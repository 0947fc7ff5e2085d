#include "bench.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <ctime>

namespace pb {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
  const double upper = v[mid];
  if (v.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(v.begin(), v.begin() + static_cast<long>(mid));
  return 0.5 * (lower + upper);
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::uint64_t pinned(const Options& options, std::uint64_t value) {
  if (options.pin_override.empty()) return value;
  return std::strtoull(options.pin_override.c_str(), nullptr, 16);
}

bool Outcome::gate(const std::string& name, bool ok) {
  auto it = std::find_if(gates.begin(), gates.end(),
                         [&name](const Gate& g) { return g.name == name; });
  if (it == gates.end()) it = gates.insert(gates.end(), Gate{name});
  ++it->checks;
  if (!ok) ++it->fails;
  return ok;
}

void Outcome::metric(const std::string& name, double value,
                     const std::string& unit) {
  metrics.push_back({name, value, unit});
}

void Outcome::note(const std::string& key, const std::string& value) {
  info.emplace_back(key, value);
}

long SpanLog::open(const std::string& name) {
  if (!enabled_) return -1;
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return -1;
  }
  const long parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({name, now_s(), 0.0, parent});
  const long index = static_cast<long>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void SpanLog::close(long index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_s = now_s();
  // Spans close in LIFO order (ScopedSpan); pop through to `index` so a
  // dropped inner span can never leave the stack out of step.
  while (!stack_.empty()) {
    const long top = stack_.back();
    stack_.pop_back();
    if (top == index) break;
  }
}

void SpanLog::add(const Span& span) {
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  spans_.push_back(span);
}

bool SpanLog::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start_s;
  std::fprintf(f, "{\"dropped\": %llu, \"spans\": [",
               static_cast<unsigned long long>(dropped_));
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n  {\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                 "\"end_us\": %.3f, \"parent\": %ld}",
                 i == 0 ? "" : ",", i, s.name.c_str(), (s.start_s - t0) * 1e6,
                 (s.end_s - t0) * 1e6, s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

double peak_rss_mib() {
  // VmHWM belongs to this address space. getrusage's ru_maxrss survives
  // execve, so it would report the launching process's peak when that
  // one is bigger.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

std::optional<std::string> run_in_child(
    const std::function<std::string()>& body) {
  std::fflush(nullptr);  // or the child would flush our buffers again
  int fds[2];
  if (pipe(fds) != 0) return std::nullopt;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    try {
      const std::string text = body();
      std::size_t done = 0;
      while (done < text.size()) {
        const ssize_t n = write(fds[1], text.data() + done, text.size() - done);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) {
          code = 1;
          break;
        }
        done += static_cast<std::size_t>(n);
      }
    } catch (...) {
      code = 1;
    }
    close(fds[1]);
    _exit(code);  // no atexit handlers, no stdio flush
  }
  close(fds[1]);
  std::string text;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return std::nullopt;
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return std::nullopt;
  return text;
}

}  // namespace pb
