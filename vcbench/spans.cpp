#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

namespace vcbench {

SpanLog::SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::int64_t SpanLog::open(const char* name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = current_;
  s.start_ns = now_ns();
  spans_.push_back(s);
  current_ = static_cast<std::int64_t>(spans_.size()) - 1;
  return current_;
}

void SpanLog::close(std::int64_t index) {
  if (index < 0) return;
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end_ns = now_ns();
  current_ = s.parent;
}

std::vector<SelfTime> SpanLog::self_times(std::size_t first) const {
  // Child time per span first (spans nest, so a child lies inside its
  // parent's interval), then aggregate duration and self time by name.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (std::size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, SelfTime> by_name;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    SelfTime& agg = by_name[s.name];
    agg.name = s.name;
    ++agg.count;
    const std::int64_t dur = s.end_ns - s.start_ns;
    agg.total_s += static_cast<double>(dur) * 1e-9;
    agg.self_s += static_cast<double>(dur - child_ns[i]) * 1e-9;
  }
  std::vector<SelfTime> out;
  out.reserve(by_name.size());
  for (auto& [name, agg] : by_name) out.push_back(std::move(agg));
  std::sort(out.begin(), out.end(), [](const SelfTime& a, const SelfTime& b) {
    return a.self_s > b.self_s;
  });
  return out;
}

double SpanLog::self_seconds(const std::string& name,
                             std::size_t first) const {
  for (const SelfTime& t : self_times(first)) {
    if (t.name == name) return t.self_s;
  }
  return 0;
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":1,\"tid\":1}",
                  i == 0 ? "" : ",", s.name,
                  static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    out << buf;
  }
  out << "\n]\n";
  return static_cast<bool>(out);
}

}  // namespace vcbench
