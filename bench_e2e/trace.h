// Spans recorded by the end-to-end benchmark around its calls into each
// NetTrails layer. Spans stay in memory and are written out as Chrome
// trace-event JSON when the run ends. A span's name is "<layer>.<call>";
// op spans ("op.*") wrap one timed operation, and every span opened inside
// an op carries that op's id.
#ifndef NETTRAILS_BENCH_E2E_TRACE_H_
#define NETTRAILS_BENCH_E2E_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Span {
  const char* name;  // string literal
  Clock::time_point start;
  Clock::time_point end;
  int32_t parent;  // index into the span list, -1 for a root
  uint32_t op;     // 0 outside ops (set-up, oracles)
};

class Tracer {
 public:
  /// Spans are recorded only while enabled. The traced run leaves the ops
  /// of every other round untraced, and they give the overhead.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  int32_t Begin(const char* name, bool new_op) {
    uint32_t op = 0;
    if (new_op) {
      op = ++last_op_;
    } else if (!stack_.empty()) {
      op = spans_[stack_.back()].op;
    }
    int32_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, Clock::now(), {}, parent, op});
    stack_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return stack_.back();
  }
  void End(int32_t idx) {
    spans_[idx].end = Clock::now();
    stack_.pop_back();
  }

  /// Per span name: calls, total and self time (a span minus its
  /// children), over the spans inside ops or over all spans.
  struct Row {
    uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, Row> Summary(bool ops_only) const {
    const std::vector<double> child_ms = ChildMs();
    std::map<std::string, Row> rows;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (ops_only && spans_[i].op == 0) continue;
      Row& r = rows[spans_[i].name];
      double ms = MsBetween(spans_[i].start, spans_[i].end);
      ++r.count;
      r.total_ms += ms;
      r.self_ms += ms - child_ms[i];
    }
    return rows;
  }

  /// The share of an op's wall time that its child spans cover, at
  /// quantile `q` over all ops (1 when there are none).
  double OpCoverage(double q) const {
    const std::vector<double> child_ms = ChildMs();
    std::vector<double> coverage;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0 || spans_[i].op == 0) continue;
      double ms = MsBetween(spans_[i].start, spans_[i].end);
      if (ms > 0) coverage.push_back(child_ms[i] / ms);
    }
    if (coverage.empty()) return 1.0;
    std::sort(coverage.begin(), coverage.end());
    return coverage[static_cast<size_t>(q * (coverage.size() - 1))];
  }

  /// Writes the spans as Chrome trace-event JSON ("X" complete events,
  /// microseconds from the first span). Returns false on an I/O error.
  bool WriteChromeJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const Clock::time_point t0 =
        spans_.empty() ? Clock::now() : spans_.front().start;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::string name = s.name;
      std::string layer = name.substr(0, name.find('.'));
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"op\":%u,\"parent\":%d}}",
                   i == 0 ? "" : ",", name.c_str(), layer.c_str(),
                   MsBetween(t0, s.start) * 1000.0,
                   MsBetween(s.start, s.end) * 1000.0, s.op, s.parent);
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  /// Time each span's direct children cover.
  std::vector<double> ChildMs() const {
    std::vector<double> child_ms(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ms[s.parent] += MsBetween(s.start, s.end);
    }
    return child_ms;
  }

  bool enabled_ = false;
  uint32_t last_op_ = 0;
  // A deque: growing it never copies the spans recorded so far, which in a
  // vector would land inside whichever span was opening at the time.
  std::deque<Span> spans_;
  std::vector<int32_t> stack_;
};

/// Records one span for its lifetime if the tracer is enabled at entry.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, bool new_op = false)
      : tracer_(tracer),
        idx_(tracer->enabled() ? tracer->Begin(name, new_op) : -1) {}
  ~ScopedSpan() {
    if (idx_ >= 0) tracer_->End(idx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t idx_;
};

}  // namespace e2e

#endif  // NETTRAILS_BENCH_E2E_TRACE_H_
