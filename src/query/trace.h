// Per-query span trees: where one statement spent its time.
//
// A QueryTrace is attached to a run through ExecContext::trace (null by
// default -- the disabled path allocates nothing and branches once per
// stage, never per row). The federated engine opens one TraceSpan per
// pipeline stage (plan, cache probe, ghost harvest, fan-out with one
// child span per shard, merge/fold) and annotates spans with
// stage-local detail: per-shard containers, columnar-vs-row split,
// bytes scanned/shipped, sink time. The workbench adds the admission
// wait and keeps slow or sampled captures in a TraceRing as
// chrome://tracing JSON (load via chrome://tracing or
// https://ui.perfetto.dev).
//
// Timestamps come from an injectable nanosecond clock so tests pin span
// trees deterministically under core::SimClock; the default clock is
// std::chrono::steady_clock.

#ifndef SDSS_QUERY_TRACE_H_
#define SDSS_QUERY_TRACE_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sdss::query {

class QueryTrace;

/// One timed stage of a query, in a parent-linked tree. Spans are
/// created by QueryTrace::Begin and addressed by index.
struct TraceSpan {
  std::string name;
  int parent = -1;          ///< Index of the parent span, -1 for roots.
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;      ///< 0 until End() (exported as zero-length).
  /// Display lane: 0 shares the main timeline, 1 + shard index gives
  /// concurrent shard scans their own chrome://tracing row.
  int lane = 0;
  std::vector<std::pair<std::string, double>> nums;
  std::vector<std::pair<std::string, std::string>> notes;

  /// Numeric annotation by key, or `dflt` when absent.
  double Num(std::string_view key, double dflt = 0.0) const;
  /// String annotation by key, or "" when absent.
  std::string_view Note(std::string_view key) const;
};

/// The span tree of one query run. Thread-safe: shard threads Begin /
/// annotate / End concurrently with the merge thread (one mutex; the
/// per-query call count is a handful of spans, not per-row work).
class QueryTrace {
 public:
  static constexpr int kNoSpan = -1;
  /// Nanosecond clock; injectable for deterministic tests.
  using NowFn = std::function<uint64_t()>;

  QueryTrace();                     ///< steady_clock-backed.
  explicit QueryTrace(NowFn now);   ///< e.g. bound to a SimClock.

  QueryTrace(const QueryTrace&) = delete;
  QueryTrace& operator=(const QueryTrace&) = delete;

  /// Opens a span and returns its id. `lane` picks the display row in
  /// the chrome export (see TraceSpan::lane).
  int Begin(std::string_view name, int parent = kNoSpan, int lane = 0);
  void End(int span);
  void Num(int span, std::string_view key, double value);
  void Note(int span, std::string_view key, std::string_view value);

  /// Trace-level metadata exported in the JSON "otherData" object
  /// (SQL text, user, job id).
  void SetMeta(std::string_view key, std::string_view value);

  size_t span_count() const;
  /// A consistent copy of the tree (spans in Begin order, parent
  /// indices into the same vector).
  std::vector<TraceSpan> Spans() const;
  /// Spans named `name`, in Begin order.
  std::vector<TraceSpan> Find(std::string_view name) const;

  /// chrome://tracing "Trace Event Format" JSON: one complete ("X")
  /// event per span, timestamps in microseconds, annotations in args.
  std::string ToChromeJson() const;

 private:
  uint64_t NowNs() const { return now_ ? now_() : SteadyNowNs(); }
  static uint64_t SteadyNowNs();

  const NowFn now_;
  mutable std::mutex mu_;
  std::vector<TraceSpan> spans_;
  std::vector<std::pair<std::string, std::string>> meta_;
};

/// One finished query's trace, as retained by a TraceRing: enough
/// context to list it in /tracez and the full chrome://tracing JSON to
/// download it.
struct TraceCapture {
  uint64_t id = 0;       ///< Ring-assigned, monotonically increasing.
  uint64_t job_id = 0;
  std::string user;
  std::string sql;
  double seconds = 0.0;  ///< Wall-clock run time.
  bool slow = false;     ///< Crossed the slow-query threshold (vs sampled).
  std::string chrome_json;
};

/// Fixed-capacity ring of the last N completed query traces, the store
/// behind the admin endpoint's /tracez. Push overwrites the oldest;
/// List returns newest-first. Thread-safe.
class TraceRing {
 public:
  explicit TraceRing(size_t capacity = 32);

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// Stores a capture and returns its assigned id (ids start at 1).
  uint64_t Push(TraceCapture capture);

  /// Retained captures, newest first.
  std::vector<TraceCapture> List() const;
  /// The capture with ring id `id`, or an empty capture (id 0) when it
  /// has been overwritten or never existed.
  TraceCapture Find(uint64_t id) const;

  size_t capacity() const { return capacity_; }
  uint64_t pushes() const;

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::vector<TraceCapture> ring_;  ///< Circular, `next_` is the oldest.
  size_t next_ = 0;
  uint64_t pushes_ = 0;
};

/// Null-safe helpers: every engine call site guards on `trace` once via
/// these instead of open-coding the branch.
inline int TraceBegin(QueryTrace* t, std::string_view name,
                      int parent = QueryTrace::kNoSpan, int lane = 0) {
  return t != nullptr ? t->Begin(name, parent, lane) : QueryTrace::kNoSpan;
}
inline void TraceEnd(QueryTrace* t, int span) {
  if (t != nullptr && span != QueryTrace::kNoSpan) t->End(span);
}
inline void TraceNum(QueryTrace* t, int span, std::string_view key,
                     double value) {
  if (t != nullptr && span != QueryTrace::kNoSpan) t->Num(span, key, value);
}
inline void TraceNote(QueryTrace* t, int span, std::string_view key,
                      std::string_view value) {
  if (t != nullptr && span != QueryTrace::kNoSpan) t->Note(span, key, value);
}

}  // namespace sdss::query

#endif  // SDSS_QUERY_TRACE_H_
