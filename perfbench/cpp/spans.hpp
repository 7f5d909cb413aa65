// In-memory span log for the traced run.  Spans are recorded by the
// benchmark's own code around its calls into each layer of the library;
// nothing inside the program is instrumented.  Each thread that records
// owns one SpanLog (no locking); logs are written out once, at the end.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the benchmark's monotonic clock.
[[nodiscard]] inline double now() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  std::int64_t parent = -1;  ///< index into the same log, -1 at the root
  std::int64_t id = -1;      ///< level, batch or cycle id; -1 when none
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled = false) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its handle (-1 when
  /// tracing is off).
  std::int64_t open(const char* name, std::int64_t id = -1) {
    if (!enabled_) return -1;
    const auto handle = static_cast<std::int64_t>(spans_.size());
    spans_.push_back({name, now(), 0.0, stack_.empty() ? -1 : stack_.back(), id});
    stack_.push_back(handle);
    return handle;
  }

  void close(std::int64_t handle) {
    if (handle < 0) return;
    spans_[static_cast<std::size_t>(handle)].end = now();
    if (!stack_.empty() && stack_.back() == handle) stack_.pop_back();
  }

  /// RAII span.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name, std::int64_t id = -1)
        : log_(log), handle_(log.open(name, id)) {}
    ~Scope() { log_.close(handle_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    std::int64_t handle_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration of every span called `name`.
  [[nodiscard]] double total(const std::string& name) const {
    double t = 0.0;
    for (const Span& s : spans_) {
      if (name == s.name) t += s.end - s.start;
    }
    return t;
  }

  /// Durations of the spans called `name`, in recording order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(s.end - s.start);
    }
    return out;
  }

  /// Appends the log as JSON lines (one span per line) to `out`.
  void write_jsonl(std::FILE* out, const std::string& thread) const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "{\"thread\":\"%s\",\"span\":%zu,\"name\":\"%s\",\"start\":%.9f,"
                   "\"end\":%.9f,\"parent\":%lld,\"id\":%lld}\n",
                   thread.c_str(), i, s.name, s.start, s.end,
                   static_cast<long long>(s.parent), static_cast<long long>(s.id));
    }
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
};

}  // namespace perfbench
