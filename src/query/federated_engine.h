// The query engine of the Science Archive: SQL in, rows (or an
// aggregate) out, over a fleet of one or more shards.
//
// The paper's archive is explicitly distributed: "the base-data objects
// will be spatially partitioned among the servers ... some of the
// high-traffic data will be replicated among servers." This engine
// parses and plans a query ONCE and runs it in one of two shapes:
//
//  - single store: a personal (mydb) plan or a one-shard fleet runs the
//    whole tree on one Executor -- no shard thread, no merge, no partial
//    aggregates. This is also the oracle the federation suites hold the
//    fan-out against (a one-shard engine over the unsharded store).
//  - fan-out: the plan goes to every live shard on one shared scan pool,
//    the per-shard ASAP batch streams merge into a single ordered /
//    limited stream, and partial aggregates combine (COUNT/SUM add,
//    MIN/MAX fold, AVG = sum/count) -- so a query over N servers answers
//    exactly like a query over one big store, and keeps answering when a
//    server is marked down and its containers are re-routed to
//    surviving replicas.
//
// Both shapes sit behind one run entry that owns the result cache, the
// engine metrics and every per-stage clock.

#ifndef SDSS_QUERY_FEDERATED_ENGINE_H_
#define SDSS_QUERY_FEDERATED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "catalog/object_store.h"
#include "core/metrics.h"
#include "core/thread_pool.h"
#include "query/executor.h"
#include "query/qet.h"
#include "query/result_cache.h"
#include "query/trace.h"

namespace sdss::query {

/// The shape of a query's result, announced to a streaming consumer
/// before the first batch arrives -- everything a remote client needs
/// to interpret the row stream (the query server's HEADER frame).
struct ResultHeader {
  std::vector<std::string> columns;
  /// True when the stream carries exactly one row whose first value is
  /// the aggregate.
  bool is_aggregate = false;
};

/// A fully materialized query answer.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<ResultRow> rows;
  bool is_aggregate = false;
  double aggregate_value = 0.0;

  ExecStats exec;
  catalog::ObjectStore::Prediction prediction;
  bool used_tag_store = false;
  bool used_spatial_index = false;
};

/// One member of the fleet as the federated engine sees it: the server's
/// materialized store plus the container ids the router currently assigns
/// to it. A shard store also holds replica containers it is NOT serving
/// right now (that is what makes failover possible); `assigned` is what
/// keeps every container scanned exactly once across the fleet. A null
/// `assigned` means the shard serves its whole store.
struct Shard {
  size_t server = 0;
  const catalog::ObjectStore* store = nullptr;
  std::shared_ptr<const std::unordered_set<uint64_t>> assigned;
};

/// Per-shard slice of the density-map prediction (Explain output).
struct ShardPrediction {
  size_t server = 0;
  uint64_t containers = 0;
  uint64_t bytes_to_scan = 0;
  uint64_t min_objects = 0;
  uint64_t max_objects = 0;
  double expected_objects = 0.0;
  /// Predicted ghost-exchange traffic for neighbor joins: bytes of edge
  /// objects crossing this shard's container boundary (boundary-band
  /// estimate from the density map; the first piece of the network cost
  /// model). The band is symmetric, so this estimates both what the
  /// shard ships and what it receives -- the measured counterpart,
  /// ExecStats.bytes_shipped, counts the receive side. Zero for
  /// non-join plans and single-shard fleets.
  uint64_t bytes_shipped = 0;
};

/// Job-scoped execution context: what a single query run carries beyond
/// its SQL. The batch workbench passes one per job -- the job's
/// cooperative cancel flag and the submitting user's personal-store
/// namespace -- without perturbing the engine's shared configuration.
struct ExecContext {
  /// Cooperative cancel flag, polled inside every shard executor's scan
  /// and join loops; raising it aborts the run with a Cancelled status.
  const std::atomic<bool>* cancel = nullptr;
  /// Per-user mydb namespace; overrides PlannerOptions::mydb when set.
  MyDbResolver mydb;
  /// Heat feedback: when set, every archive container any shard executor
  /// scans for this run is reported here (once per container per scan,
  /// from pool threads). The workbench binds it to
  /// archive::ShardedStore::RecordAccess so mining jobs drive the
  /// replica-promotion loop. Personal (mydb) scans never report.
  AccessRecorder access_recorder;
  /// Set only by a caller that will materialize the INTO target itself
  /// (the workbench's ExecuteInto sink). Left false, Execute /
  /// ExecuteStreaming refuse `SELECT ... INTO mydb.<name>` queries --
  /// the engine alone would run the bare select and silently store
  /// nothing. Explain and EstimateCost always accept INTO (they only
  /// describe / price the select).
  bool into_sink = false;
  /// Opt out of the semantic result cache for this run: neither consult
  /// it nor install into it (e.g. a caller that must observe real scan
  /// counters, or wants to force a fresh fleet pass).
  bool no_result_cache = false;
  /// Per-query span tree, null (tracing off) by default. When set, the
  /// engine opens one span per pipeline stage -- plan, cache_probe,
  /// ghost_harvest, fan_out with a child per shard, merge, fold -- and
  /// annotates them with stage-local detail (containers, columnar
  /// split, bytes scanned/shipped). Must outlive the run. The disabled
  /// path allocates nothing.
  QueryTrace* trace = nullptr;
};

/// The admission-relevant slice of the fleet-wide Explain prediction:
/// what a query would cost before running it. The workbench's
/// cost-based lane choice keys off `TotalBytes()`.
struct CostEstimate {
  uint64_t bytes_to_scan = 0;   ///< Summed over all live shards.
  uint64_t bytes_shipped = 0;   ///< Predicted join ghost traffic.
  double expected_objects = 0.0;
  /// FROM mydb: the plan reads a personal store, not the fleet.
  bool personal_store = false;
  /// INTO mydb.<name> target parsed from the query ("" = plain select),
  /// surfaced so admission needs no second parse.
  std::string into_mydb;
  /// The engine's result cache would answer this query right now (at
  /// the epoch observed while estimating) without any fleet scan.
  bool predicted_cache_hit = false;

  /// Admission-relevant byte cost: a predicted cache hit scans nothing,
  /// so it prices at zero and lands in the QUICK lane.
  uint64_t TotalBytes() const {
    return predicted_cache_hit ? 0 : bytes_to_scan + bytes_shipped;
  }
};

/// Parses, plans, and executes queries against a fleet of shards. A
/// single store is the one-shard fleet `{Shard{0, &store, nullptr}}`.
///
/// Thread-safety: Execute / ExecuteStreaming / Explain may be called
/// concurrently from any number of threads; SetShards may interleave
/// (in-flight queries keep their snapshot of the previous routing).
class FederatedQueryEngine {
 public:
  struct Options {
    PlannerOptions planner;
    /// `executor.scan_threads` sizes the ONE pool every shard
    /// sub-executor scans on -- the fan-out never multiplies pools.
    Executor::Options executor;
    /// Byte budget of the semantic result cache (query::ResultCache).
    /// 0 = caching off (the default: callers that assert on scan
    /// counters or drive the heat loop with repeated queries opt in
    /// explicitly).
    size_t result_cache_bytes = 0;
    /// Mutation-generation source the cache keys entries by. The fleet
    /// owner wires this to archive::ShardedStore::Epoch so cached
    /// answers survive failover (routing changes which stores are
    /// listed live; the full fleet's epoch sum does not move). Unset,
    /// the engine sums the distinct live shard stores' epochs.
    std::function<uint64_t()> cache_epoch_source;
    /// Metrics registry the engine publishes into (query_cache_hits /
    /// query_cache_containment / query_cache_misses counters and the
    /// query_exec_us latency histogram). Null = no metrics; must
    /// outlive the engine when set.
    metrics::Registry* metrics = nullptr;
  };

  explicit FederatedQueryEngine(std::vector<Shard> shards)
      : FederatedQueryEngine(std::move(shards), Options()) {}
  FederatedQueryEngine(std::vector<Shard> shards, Options options);

  /// Runs `sql` and materializes the result: a collecting sink over the
  /// same run as ExecuteStreaming. FROM mydb.<name> plans run in the
  /// single-store shape (a personal store is never sharded) but still
  /// share the engine's scan pool.
  Result<QueryResult> Execute(const std::string& sql,
                              const ExecContext& ctx = {});

  /// Streaming execution: `on_batch` sees merged batches (globally
  /// ordered when the query sorts, ASAP arrival order otherwise) and may
  /// return false to cancel the whole fan-out.
  Result<ExecStats> ExecuteStreaming(
      const std::string& sql,
      const std::function<bool(const RowBatch&)>& on_batch,
      const ExecContext& ctx = {});

  /// Streaming execution that first announces the result shape:
  /// `on_header`, when set, is invoked exactly once -- after parsing and
  /// planning succeed, before the first batch -- with the projected
  /// column names and the aggregate flag. This is what lets a remote
  /// consumer (the query server) frame a result stream without
  /// materializing it first.
  Result<ExecStats> ExecuteStreaming(
      const std::string& sql,
      const std::function<void(const ResultHeader&)>& on_header,
      const std::function<bool(const RowBatch&)>& on_batch,
      const ExecContext& ctx = {});

  /// The plan explanation plus per-shard container/byte predictions.
  Result<std::string> Explain(const std::string& sql,
                              const ExecContext& ctx = {});

  /// One shard's predicted-vs-actual ledger from an EXPLAIN ANALYZE run.
  struct ShardAnalysis {
    size_t server = 0;
    uint64_t containers_predicted = 0;
    uint64_t containers_scanned = 0;
    uint64_t containers_columnar = 0;
    uint64_t predicted_bytes = 0;  ///< Density-map prediction.
    uint64_t actual_bytes = 0;     ///< Bytes the scan really touched.
    uint64_t rows = 0;             ///< Rows this shard emitted.
    double seconds = 0.0;          ///< Shard wall time (RunTree).
  };

  /// EXPLAIN ANALYZE: runs the query for real (bypassing the result
  /// cache so the fleet actually scans) with tracing on, and reports the
  /// density-map prediction next to what each shard measured.
  struct ExplainAnalysis {
    std::string report;             ///< Human-readable side-by-side.
    ExecStats exec;                 ///< Folded stats of the real run.
    std::vector<ShardAnalysis> shards;
    std::string trace_json;         ///< chrome://tracing export.
  };

  /// Accepts either the bare statement or one prefixed with
  /// "EXPLAIN ANALYZE". Rows are drained internally; only the ledger
  /// comes back.
  Result<ExplainAnalysis> ExplainAnalyze(const std::string& sql,
                                         const ExecContext& ctx = {});

  /// Plans `sql` and returns the fleet-wide cost prediction without
  /// executing -- the workbench's admission estimate.
  Result<CostEstimate> EstimateCost(const std::string& sql,
                                    const ExecContext& ctx = {});

  /// Failover hook: replaces the routed shard set (e.g. after
  /// archive::ShardedStore::MarkServerDown + LiveShards()).
  void SetShards(std::vector<Shard> shards);

  size_t num_shards() const;
  const Options& options() const { return options_; }

  /// The semantic result cache, or null when Options::result_cache_bytes
  /// is 0. Exposed for instrumentation (hit counters, tests).
  ResultCache* result_cache() { return cache_.get(); }

 private:
  struct Prepared;
  struct MergePolicy;
  using Sink = std::function<bool(RowBatch&&)>;

  std::vector<Shard> SnapshotShards() const;
  /// The cache-keying epoch for a run's shard snapshot.
  uint64_t CacheEpoch(const std::vector<Shard>& shards) const;
  Result<Prepared> Prepare(const std::string& sql,
                           const ExecContext& ctx = {}) const;
  /// The one run entry behind Execute, ExecuteStreaming and
  /// ExplainAnalyze: prepares `sql`, refuses an unsinked INTO, hands the
  /// plan to `on_plan`, then answers from the result cache or runs one
  /// of the two execution shapes. It alone installs into the cache,
  /// records the engine metrics and sets every ExecStats stage clock.
  Result<ExecStats> Run(const std::string& sql, const ExecContext& ctx,
                        const std::function<void(const Prepared&)>& on_plan,
                        const Sink& sink);
  /// Shape (a): the whole tree on one Executor over the first shard.
  Status RunSingleStore(const Prepared& prep, const ExecContext& ctx,
                        const Sink& sink, ExecStats* stats);
  /// Shape (b): picks the merge policy for the plan (partial or
  /// LIMIT-capped aggregate, pair join, branch-limited set query, plain
  /// chain) and fans out.
  Status RunFanOut(Prepared& prep, const ExecContext& ctx, const Sink& sink,
                   ExecStats* stats);
  /// The merge primitive: runs `policy.root` on every shard and merges
  /// the streams into `sink`; adds the scan counters into `stats`.
  Status FanOut(const Prepared& prep, const ExecContext& ctx,
                const MergePolicy& policy, const Sink& sink,
                ExecStats* stats);
  /// One shard's executor run of `root`, closing its trace span.
  Result<ExecStats> RunShard(const Shard& shard, const PlanNode* root,
                             const Sink& sink, const PairJoinGhosts* ghosts,
                             const ExecContext& ctx, int span);

  Options options_;
  ThreadPool pool_;  ///< Shared scan pool for every shard sub-executor.
  std::unique_ptr<ResultCache> cache_;  ///< Null when caching is off.
  // Engine-level instruments, resolved once in the constructor. All
  // null when Options::metrics is unset.
  metrics::Counter* m_queries_ = nullptr;
  metrics::Counter* m_cache_hits_ = nullptr;
  metrics::Counter* m_cache_containment_ = nullptr;
  metrics::Counter* m_cache_misses_ = nullptr;
  metrics::Histogram* m_exec_us_ = nullptr;
  mutable std::mutex mu_;
  std::vector<Shard> shards_;
};

/// Per-shard density-map predictions for `plan`'s leftmost scan: the
/// containers each shard would touch, the bytes it would read, and the
/// expected object yield. Summing the slices gives the fleet-wide
/// prediction.
std::vector<ShardPrediction> PredictShards(const std::vector<Shard>& shards,
                                           const Plan& plan);

}  // namespace sdss::query

#endif  // SDSS_QUERY_FEDERATED_ENGINE_H_
