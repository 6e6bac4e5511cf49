// Bench-owned, in-memory span log for the traced run.
//
// Every call the benchmark makes into a vcopt layer (service, cell,
// placement, mapreduce, journal/replay) is wrapped in a Span when tracing is
// on.  Spans nest per thread (the benchmark's generator is one thread), are
// kept in a vector while the run measures, and are written out only at the
// end, so tracing adds two clock reads and one vector push per call.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace vcbench {

/// One recorded interval.  `parent` is the index of the enclosing span in
/// SpanLog::spans(), or -1 at the top level.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
};

/// Per-name aggregate: total duration, and self time — the duration minus
/// the part of it covered by direct child spans.
struct SelfTime {
  std::string name;
  std::uint64_t count = 0;
  double total_s = 0;
  double self_s = 0;
};

class SpanLog {
 public:
  SpanLog();

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span and returns its index (or -1 while disabled).
  std::int64_t open(const char* name);
  void close(std::int64_t index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Aggregates spans()[first..] by span name, sorted by descending self
  /// time.  A span's children always follow it, so a suffix that starts at
  /// a top-level span is self-contained.
  std::vector<SelfTime> self_times(std::size_t first = 0) const;

  /// Sum of self time over spans()[first..] called `name`.
  double self_seconds(const std::string& name, std::size_t first = 0) const;

  /// Chrome trace-event JSON ("X" events, microseconds since the log began).
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  bool enabled_ = false;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::int64_t current_ = -1;  // innermost open span
};

/// RAII span; a no-op while the log is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name)
      : log_(log), index_(log.open(name)) {}
  ~ScopedSpan() { log_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::int64_t index_;
};

}  // namespace vcbench
