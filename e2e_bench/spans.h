// The traced run's span log: kept in memory, written once at exit as
// chrome://tracing JSON (the format tools/check_trace.py validates).

#ifndef E2E_BENCH_SPANS_H_
#define E2E_BENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

struct Span {
  std::string name;
  double start_s = 0.0;  ///< Run-clock seconds.
  double dur_s = 0.0;
  int parent = -1;       ///< Index of the enclosing span, -1 for roots.
  int lane = 1;          ///< Display row (chrome "tid"), >= 1.
  std::string stmt;      ///< Statement id shared by a statement's spans.
};

class SpanLog {
 public:
  /// Appends a span and returns its index.
  int Add(Span span);

  size_t size() const { return spans_.size(); }

  /// Per span name: count, total and self milliseconds, where self time
  /// is a span's duration minus the time its direct children cover.
  std::string SelfTimeTable() const;

  /// Trace Event Format JSON with origin-relative microsecond times.
  std::string ToChromeJson(const std::string& title) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace e2e

#endif  // E2E_BENCH_SPANS_H_
