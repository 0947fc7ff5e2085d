// Shared pieces of the benchmark runner: options, the per-run outcome
// (gates, counts, metrics), host-clock timing, and the in-memory span log.
//
// Spans are the benchmark's own: they wrap the calls the runner makes into
// a layer's public functions (a whole campaign, one policy rank(), one FFT)
// and are recorded only in traced runs. Nothing under src/ is touched.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace pb {

/// Host seconds on the monotonic clock.
double now_s();

/// CPU seconds the calling thread has run (user + system).
double thread_cpu_s();

/// Median of `v` (0 when empty).
double median(std::vector<double> v);

/// 16-digit hex, the way the repository prints digests.
std::string hex(std::uint64_t v);

/// Where every run writes (spans, the campaign's job files), relative to
/// the checkout root the benchmark runs from.
inline constexpr const char* kOutDir = ".bench_out";

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  ///< smoke-test sizes
  int threads = 1;    ///< pm pool width: the CPUs this process may use
  /// Test hook: replaces the first pinned value of the workload, so the
  /// smoke test can prove a mismatch fails the run.
  std::string pin_override;
};

/// `value`, or the pin_override test value when one is set.
std::uint64_t pinned(const Options& options, std::uint64_t value);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// A correctness gate and how often it was checked and failed.
struct Gate {
  std::string name;
  std::uint64_t checks = 0;
  std::uint64_t fails = 0;
};

/// What one run produced: operations attempted/failed, every gate, and
/// the metrics to print.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Gate> gates;
  std::vector<std::pair<std::string, std::string>> info;
  /// Peak resident memory of the processes a workload forked, MiB.
  double child_peak_rss_mib = 0.0;

  /// Records one evaluation of gate `name`; returns `ok`.
  bool gate(const std::string& name, bool ok);
  void metric(const std::string& name, double value, const std::string& unit);
  void note(const std::string& key, const std::string& value);
};

/// Spans (name, start, end, parent) kept in memory and written as JSON
/// when the run ends. Disabled logs record nothing.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    long parent = -1;  ///< index into spans(), -1 for a root span
  };

  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span under the innermost open one; -1 when not recorded.
  long open(const std::string& name);
  void close(long index);
  /// Appends a finished span recorded by a child process that continued
  /// this log (its indices line up with ours).
  void add(const Span& span);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  bool write_json(const std::string& path) const;

 private:
  static constexpr std::size_t kMaxSpans = 200000;
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<long> stack_;
  std::uint64_t dropped_ = 0;
};

/// RAII span around one call into a layer.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name)
      : log_(log), index_(log.open(name)) {}
  ~ScopedSpan() { log_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  long index_;
};

/// Runs `rep` (which returns its own timed seconds) until `seconds` of
/// host time have passed since the call, stopping early rather than
/// overshooting by more than one median repetition; always at least
/// `min_reps` times. Returns the per-repetition times.
template <class Rep>
std::vector<double> repeat_for(double seconds, std::size_t min_reps,
                               Rep&& rep) {
  std::vector<double> times;
  const double t0 = now_s();
  while (times.size() < min_reps ||
         (now_s() - t0) + median(times) <= seconds) {
    times.push_back(rep());
  }
  return times;
}

/// Peak resident set size of this process, MiB.
double peak_rss_mib();

/// Runs `body` in a forked child process and returns the text it
/// produced; nullopt when the child did not exit cleanly (a failed
/// GC_CHECK aborts it). The caller must be single-threaded.
std::optional<std::string> run_in_child(
    const std::function<std::string()>& body);

/// Workload entry points (des_workloads.cpp, pm_workload.cpp).
Outcome run_campaign(const Options& options, SpanLog& spans, bool congested);
Outcome run_serving(const Options& options, SpanLog& spans);
Outcome run_pm(const Options& options, SpanLog& spans);

}  // namespace pb
