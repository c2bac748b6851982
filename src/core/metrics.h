// Process-wide, low-overhead metrics: atomic counters, gauges, and
// fixed log2-bucket latency histograms with quantile extraction.
//
// The registry is the observability substrate the rest of the archive
// reports into: the query server's session and query counters, the
// federated engine's result-cache verdicts, the workbench's lane depths
// and queue-wait, and the journal's append/fsync latency all live here,
// and nowhere else. Two read surfaces: a struct snapshot
// (`Registry::Snapshot`, also what the STATS wire frame ships) and a
// Prometheus-style text exposition.
//
// Hot-path cost: recording touches one (counter/gauge) or three
// (histogram) relaxed atomics through a pointer obtained once at setup
// -- no locks, no allocation, no name lookup. The registry mutex guards
// only registration and snapshotting.

#ifndef SDSS_CORE_METRICS_H_
#define SDSS_CORE_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sdss::metrics {

/// Monotonically increasing event count.
class Counter {
 public:
  void Inc(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// A value that goes up and down (queue depths, live sessions).
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Fixed log2 bucket layout shared by live histograms and their
/// snapshots: bucket 0 counts zero values; bucket i (i >= 1) counts
/// values v with 2^(i-1) <= v < 2^i, i.e. i == std::bit_width(v).
/// 65 buckets cover the whole uint64_t range.
inline constexpr size_t kHistogramBuckets = 65;

/// Inclusive upper bound of bucket `i` (0 for bucket 0, 2^i - 1 else),
/// the representative value quantile extraction reports.
uint64_t HistogramBucketUpperBound(size_t i);

/// Point-in-time copy of one histogram, sparse (zero buckets omitted).
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  /// (bucket index, bucket count), ascending index, counts > 0 only.
  std::vector<std::pair<uint8_t, uint64_t>> buckets;

  /// The inclusive upper bound of the bucket holding the q-quantile
  /// observation (0 <= q <= 1; rank = ceil(q * count) clamped to
  /// [1, count]). 0 when the histogram is empty. Bucket-resolution by
  /// construction: the true observation is within 2x of the answer.
  uint64_t Quantile(double q) const;
  uint64_t P50() const { return Quantile(0.50); }
  uint64_t P95() const { return Quantile(0.95); }
  uint64_t P99() const { return Quantile(0.99); }
};

/// Latency/size distribution over fixed log2 buckets. Record() is three
/// relaxed atomic adds; quantiles come from snapshots.
class Histogram {
 public:
  void Record(uint64_t v);
  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  HistogramSnapshot Snapshot() const;

 private:
  std::atomic<uint64_t> buckets_[kHistogramBuckets]{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

enum class Kind : uint8_t {
  kCounter = 1,
  kGauge = 2,
  kHistogram = 3,
};

/// One instrument's point-in-time value, the unit of both the struct
/// snapshot API and the STATS wire frame.
struct InstrumentSnapshot {
  std::string name;
  Kind kind = Kind::kCounter;
  uint64_t counter = 0;  ///< kCounter.
  int64_t gauge = 0;     ///< kGauge.
  HistogramSnapshot hist;  ///< kHistogram.
};

/// Named instruments with stable addresses. Get* registers on first
/// use and returns the existing instrument afterwards, so independent
/// components wire themselves to a shared registry without
/// coordination; a name keeps its first kind (a Get* under a different
/// kind returns a detached dummy instrument rather than aliasing).
///
/// Thread-safety: all methods may be called concurrently; returned
/// instrument pointers stay valid for the registry's lifetime.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Names should follow Prometheus convention ([a-z0-9_], e.g.
  /// "server_sessions_accepted", "persist_journal_fsync_us").
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  /// Every instrument, sorted by name.
  std::vector<InstrumentSnapshot> Snapshot() const;

  /// Prometheus text exposition (text format 0.0.4): `# TYPE` comments,
  /// cumulative `_bucket{le="..."}` series plus `_sum`/`_count` for
  /// histograms. Instrument names are passed through
  /// PrometheusMetricName, so a registry name that strays outside the
  /// Prometheus charset still yields a scrapeable page.
  std::string TextExposition() const;

 private:
  struct Entry {
    Kind kind = Kind::kCounter;
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
    Histogram* histogram = nullptr;
  };

  mutable std::mutex mu_;
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::map<std::string, Entry, std::less<>> by_name_;
};

/// `name` coerced into the Prometheus metric-name charset
/// ([a-zA-Z_:][a-zA-Z0-9_:]*): invalid characters become '_', and a
/// leading digit gets a '_' prefix. The exposition format has no name
/// escaping, so sanitizing is the only way a stray name stays
/// parseable. Empty input yields "_".
std::string PrometheusMetricName(std::string_view name);

/// The process-wide default registry, for callers that do not wire an
/// explicit one. Components with per-instance semantics (one
/// QueryServer's server_* counters) default to a private registry
/// instead.
Registry& DefaultRegistry();

}  // namespace sdss::metrics

#endif  // SDSS_CORE_METRICS_H_
