// The ASAP-push executor for Query Execution Trees.
//
// A plan runs on the thread that calls RunTree: streaming nodes (limit,
// union dedupe, the probe side of intersect/difference) and blocking
// nodes (sort, top-k, aggregate fold, the build side of
// intersect/difference) are plain code over their child's batch stream
// -- no thread and no channel per node. Blocking nodes drain before
// emitting, exactly as the paper specifies. Only scan-shaped work fans
// out: scan and mydb-scan leaves, aggregate pushdown and both pair-join
// phases run as morsels on the shared ThreadPool, the calling thread
// among them. Scan morsels hand their batches to the calling thread
// through StreamMorsels' bounded queue as soon as they are produced, so
// the consumer "starts seeing results almost immediately", and the
// caller's sink only ever runs on the calling thread.

#ifndef SDSS_QUERY_EXECUTOR_H_
#define SDSS_QUERY_EXECUTOR_H_

#include <algorithm>
#include <atomic>
#include <functional>
#include <limits>
#include <unordered_set>

#include "catalog/object_store.h"
#include "core/thread_pool.h"
#include "query/qet.h"

namespace sdss::query {

/// Execution metrics, including the streaming latency the C8 benchmark
/// reports (time to first row vs time to completion).
struct ExecStats {
  uint64_t rows_emitted = 0;
  double seconds_to_first_row = 0.0;
  double seconds_total = 0.0;

  // Scan-side counters (summed over all scan leaves).
  uint64_t containers_scanned = 0;
  /// How many scanned containers ran the columnar scan kernel: every
  /// container a scan, mydb-scan or pair-join leaf reads (tag leaves
  /// included), so it equals containers_scanned.
  uint64_t containers_columnar = 0;
  uint64_t objects_examined = 0;
  uint64_t objects_matched = 0;
  uint64_t bytes_touched = 0;
  /// Ghost-exchange traffic: bytes of boundary objects shipped to this
  /// executor's pair join from other shards (0 off the federated path).
  /// The network-cost side of the ledger, vs bytes_touched's scan side.
  uint64_t bytes_shipped = 0;
  bool cancelled_early = false;  ///< Sink stopped consumption (LIMIT etc).

  // Result-cache verdict for the query these stats describe (set by the
  // federated engine, not the executor). At most one is true.
  bool cache_hit = false;          ///< Answered verbatim from the cache.
  bool cache_containment = false;  ///< Answered by filtering a superset
                                   ///< entry's rows (cover containment).

  // Per-stage wall-clock breakdown (seconds), set once by the federated
  // engine's run entry for every execution shape and surfaced in the
  // wire protocol's DONE frame. There, seconds_total covers the run
  // after planning: cache probe + ghost harvest + fan-out never exceed
  // it, and seconds_stream_out is the part of the fan-out (or of a cache
  // answer) spent inside the caller's sink -- nonzero whenever rows were
  // emitted. Stages that did not run (no cache configured, no join, a
  // cache-answered run's fan-out) stay 0.
  double seconds_plan = 0.0;           ///< Parse + plan (Prepare).
  double seconds_cache_probe = 0.0;    ///< Result-cache consult.
  double seconds_ghost_harvest = 0.0;  ///< Join boundary-ghost exchange.
  double seconds_fan_out = 0.0;        ///< Execution + merge + fold, wall.
  double seconds_stream_out = 0.0;     ///< Time inside the row sink.
};

/// Decomposed aggregate state: the executor's scan-side fold, the
/// partial rows federated shard plans emit, and the federation-level
/// combine all traffic in this one struct so the semantics (COUNT/SUM
/// add, MIN/MAX fold, AVG = sum/count, empty input finalizes to 0)
/// cannot diverge between layers.
struct AggFold {
  uint64_t count = 0;
  double sum = 0.0;
  double min_v = std::numeric_limits<double>::infinity();
  double max_v = -std::numeric_limits<double>::infinity();

  void Add(double v) {
    sum += v;
    min_v = std::min(min_v, v);
    max_v = std::max(max_v, v);
  }
  void Merge(const AggFold& o) {
    count += o.count;
    sum += o.sum;
    min_v = std::min(min_v, o.min_v);
    max_v = std::max(max_v, o.max_v);
  }
};

/// Builds an aggregate's output row from folded state: the decomposed
/// {count, sum, min, max} partial when `partial`, the final value
/// otherwise.
ResultRow FinishAggregate(AggFunc agg, bool partial, const AggFold& fold);

/// Streams `rows` to `sink` in batches of at most `batch_size` rows.
/// Returns false once the sink stops consumption.
bool EmitRows(RowBatch&& rows, size_t batch_size, const BatchSink& sink);

/// The containers a scan or pair-join leaf reads from `store`, in the
/// order it reads them: pruned by the node's HTM cover when it carries
/// a region, and restricted to `container_filter` (a shard assignment)
/// when non-null. The executor's leaves and the federated join's ghost
/// harvest both read exactly this list.
std::vector<const catalog::Container*> CollectScanContainers(
    const PlanNode* node, const catalog::ObjectStore* store,
    const std::unordered_set<uint64_t>* container_filter);

/// Observes every archive container a scan actually reads (called once
/// per container per scan, from whichever thread runs the container's
/// morsel -- implementations must be thread-safe). The workbench binds
/// this to archive::ShardedStore::RecordAccess so mining jobs feed the
/// replica-promotion heat loop; personal (mydb) stores never report.
using AccessRecorder = std::function<void(uint64_t container)>;

/// Boundary objects another shard shipped to this executor's pair join:
/// already phase-1 filtered, added to the hash as foreign ghosts (they
/// complete cross-shard pairs but never initiate emission). Owned by the
/// caller; must outlive the RunTree call.
struct PairJoinGhosts {
  std::vector<catalog::PhotoObj> objects;
};

/// Executes plans against one store.
///
/// The scan pool is injected and never owned: nested engines (the
/// federated fan-out runs one Executor per shard) share one pool so N
/// shards do not oversubscribe the machine with N * scan_threads
/// workers. RunTree itself starts no thread.
class Executor {
 public:
  struct Options {
    size_t scan_threads = 4;   ///< Pool width for container fan-out.
    size_t batch_size = 512;   ///< Rows per pushed batch.
  };

  /// Scans on `pool`, which must outlive the executor.
  Executor(const catalog::ObjectStore* store, Options options,
           ThreadPool* pool)
      : store_(store), options_(options), pool_(pool) {}

  /// Runs a plan subtree on the calling thread, invoking `on_batch` --
  /// on this thread only -- for every batch that reaches `root` (in ASAP
  /// order). The sink receives each batch by rvalue and may steal it,
  /// and may return false to cancel the query (remaining upstream work
  /// is abandoned). Returns execution stats, or the first error raised
  /// by any node.
  ///
  /// `container_filter`, when non-null, restricts every scan leaf to
  /// containers whose id is in the set -- the federated engine's shard
  /// assignment (a shard holds replica containers it is not currently
  /// serving). `join_ghosts`, when non-null, feeds the tree's
  /// pair-join leaf the boundary objects neighboring shards shipped
  /// here. `cancel`, when non-null, is a cooperative cancel flag: the
  /// scan and join loops poll it per chunk/pair, and a raised flag
  /// aborts the tree with a Cancelled status (the batch-workbench job
  /// cancellation path). `access_recorder`, when non-null, sees the id
  /// of every non-personal container the tree scans.
  Result<ExecStats> RunTree(
      const PlanNode* root, const std::function<bool(RowBatch&&)>& on_batch,
      const std::unordered_set<uint64_t>* container_filter = nullptr,
      const PairJoinGhosts* join_ghosts = nullptr,
      const std::atomic<bool>* cancel = nullptr,
      const AccessRecorder* access_recorder = nullptr);

  ThreadPool* pool() { return pool_; }

 private:
  const catalog::ObjectStore* store_;
  Options options_;
  ThreadPool* pool_;
};

}  // namespace sdss::query

#endif  // SDSS_QUERY_EXECUTOR_H_
