// perfbench_runner: runs one benchmark workload for a fixed host-time
// budget and prints one JSON object with its gates, counts and metrics.
//
//   perfbench_runner --workload campaign|congested|serving|pm --seed N
//                    --seconds S --trace 0|1 [--size full|tiny]
//                    [--pin-override HEX]
//
// Run from the checkout root; it writes under .bench_out/. perfbench/run.py
// builds this binary and turns its output into the benchmark's result line;
// see perfbench/README.md.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>
#include <thread>

#include "bench.hpp"
#include "common/cli.hpp"
#include "common/log.hpp"

namespace {

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

/// JSON number with every significant digit.
std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const pb::Options& o, const pb::Outcome& out) {
  bool gates_ok = true;
  std::string gates;
  for (const pb::Gate& g : out.gates) {
    std::printf("gate %-34s checks=%llu fails=%llu\n", g.name.c_str(),
                static_cast<unsigned long long>(g.checks),
                static_cast<unsigned long long>(g.fails));
    gates_ok = gates_ok && g.fails == 0;
    gates += std::string(gates.empty() ? "" : ", ") + "\"" + g.name +
             "\": {\"checks\": " + std::to_string(g.checks) +
             ", \"fails\": " + std::to_string(g.fails) + "}";
  }
  std::string info;
  for (const auto& [key, value] : out.info) {
    info += std::string(info.empty() ? "" : ", ") + "\"" + key + "\": \"" +
            value + "\"";
  }
  std::string metrics;
  for (const pb::Metric& m : out.metrics) {
    metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + m.name +
               "\": {\"value\": " + num(m.value) + ", \"unit\": \"" + m.unit +
               "\"}";
  }
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"size\": \"%s\", \"correct\": %s, \"attempted\": %llu, "
      "\"failed\": %llu, \"gates\": {%s}, \"info\": {%s}, "
      "\"build\": {\"nproc\": %d, \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"gc_check\": \"%s\"}, \"metrics\": {%s}}\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed),
      o.trace ? 1 : 0, o.tiny ? "tiny" : "full",
      gates_ok && out.failed == 0 && out.attempted > 0 ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), gates.c_str(), info.c_str(),
      usable_cpus(), PB_BUILD_TYPE, PB_COMPILER, PB_GC_CHECK, metrics.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  gc::set_default_log_level(gc::LogLevel::kWarn);
  const gc::CliArgs args(argc, argv);
  pb::Options o;
  o.workload = args.get("workload", "");
  o.seed = static_cast<std::uint64_t>(args.get_int("seed", 0));
  o.seconds = args.get_double("seconds", 10.0);
  o.trace = args.get_int("trace", 0) != 0;
  o.tiny = args.get("size", "full") == "tiny";
  o.threads = usable_cpus();
  o.pin_override = args.get("pin-override", "");
  if (o.workload != "campaign" && o.workload != "congested" &&
      o.workload != "serving" && o.workload != "pm") {
    std::fprintf(stderr,
                 "usage: %s --workload campaign|congested|serving|pm "
                 "--seed N --seconds S --trace 0|1 [--size full|tiny]\n",
                 args.program().c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(pb::kOutDir, ec);

  pb::SpanLog spans;
  spans.set_enabled(o.trace);
  pb::Outcome out;
  if (o.workload == "campaign" || o.workload == "congested") {
    out = pb::run_campaign(o, spans, o.workload == "congested");
  } else if (o.workload == "serving") {
    out = pb::run_serving(o, spans);
  } else {
    out = pb::run_pm(o, spans);
  }

  if (o.trace) {
    out.metric("obs.spans", static_cast<double>(spans.spans().size()),
               "count");
    const std::string path =
        std::string(pb::kOutDir) + "/spans-" + o.workload + ".json";
    if (!spans.write_json(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("spans: %zu written to %s\n", spans.spans().size(),
                path.c_str());
  } else {
    out.metric("peak_rss_mib",
               std::max(pb::peak_rss_mib(), out.child_peak_rss_mib), "MiB");
  }
  print_result(o, out);
  return 0;
}
