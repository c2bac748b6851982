// The query engine of the Science Archive: SQL in, rows (or an
// aggregate) out, over a fleet of one or more shards.
//
// The paper's archive is explicitly distributed: "the base-data objects
// will be spatially partitioned among the servers ... some of the
// high-traffic data will be replicated among servers." This engine
// parses and plans a query ONCE (Prepare) and runs it as one executor
// tree:
//
//  - a personal (mydb) plan or a one-shard fleet runs its logical tree
//    whole on one Executor. This is also the oracle the federation
//    suites hold the fleet against (a one-shard engine over the
//    unsharded store).
//  - over a wider fleet, DistributePlan splits the tree at GATHER nodes
//    and the coordinator's executor runs the part above them on the
//    calling thread. Each gather runs its child on every live shard as
//    one morsel on the shared scan pool (the calling thread runs
//    morsels too) and merges the shard streams: k-way on the sort key
//    when ordered, in ASAP arrival order otherwise, after a boundary
//    ghost exchange and with pair dedupe for a neighbor join. Global
//    LIMITs, partial-aggregate combines (COUNT/SUM add, MIN/MAX fold,
//    AVG = sum/count) and branch-limited set algebra are ordinary
//    executor nodes above the gathers -- so a query over N servers
//    answers exactly like a query over one big store, and keeps
//    answering when a server is marked down and its containers are
//    re-routed to surviving replicas.
//
// A prepared statement holds no fleet state: the shard snapshot, the
// GATHER split and the cache epoch are taken when it runs, so a statement
// priced before a failover runs on the routing that exists after it. One
// run entry owns the result cache (keyed by the logical tree), the
// engine metrics and every per-stage clock. No thread is started: the
// caller's sink runs only on the thread that called the engine.

#ifndef SDSS_QUERY_FEDERATED_ENGINE_H_
#define SDSS_QUERY_FEDERATED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
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
  catalog::ObjectStore::Prediction prediction;  ///< SumShards of the run.
  bool used_tag_store = false;
  bool used_spatial_index = false;
};

/// One member of the fleet as the federated engine sees it: the server
/// and the store of exactly the containers it serves. Across a fleet the
/// stores partition the archive, so every container is scanned once.
/// `owner`, when set, keeps `store` alive for as long as any copy of the
/// shard exists (archive::ShardedStore::LiveShards cuts one store per
/// routing); null means the caller owns the store.
struct Shard {
  size_t server = 0;
  const catalog::ObjectStore* store = nullptr;
  std::shared_ptr<const catalog::ObjectStore> owner;
};

/// Per-shard slice of the density-map prediction (Explain output): the
/// containers the shard serves that its plan leaves read, counted with
/// ObjectStore::Prediction::Add.
struct ShardPrediction : catalog::ObjectStore::Prediction {
  size_t server = 0;
  uint64_t containers = 0;
  /// Predicted ghost-exchange traffic for neighbor joins: bytes of edge
  /// objects crossing this shard's container boundary (JoinBandFraction
  /// of the join's scan bytes; the first piece of the network cost
  /// model). The band is symmetric, so this estimates both what the
  /// shard ships and what it receives -- the measured counterpart,
  /// ExecStats.bytes_shipped, counts the receive side. Zero for
  /// non-join plans, single-shard fleets and personal stores.
  uint64_t bytes_shipped = 0;
};

/// The boundary-band model of neighbor-join ghost traffic: the share of
/// a container's objects within `sep_arcsec` of its edge, which scales
/// like 3 * sep / side for a `level` trixel about 90 / 2^level degrees
/// across, capped at 1. PredictShards' bytes_shipped and
/// archive::ShardedStore::ReplicasFor both price ghost traffic with it.
double JoinBandFraction(double sep_arcsec, int level);

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
  /// from whichever thread runs the container's morsel). The workbench
  /// binds it to archive::ShardedStore::RecordAccess so mining jobs drive
  /// the replica-promotion loop. Personal (mydb) scans never report.
  AccessRecorder access_recorder;
  /// Set only by a caller that will materialize the INTO target itself
  /// (the workbench, whose job sink stores the rows of the statement it
  /// prepared at admission). Left false, every run entry refuses
  /// `SELECT ... INTO mydb.<name>` queries -- the engine alone would run
  /// the bare select and silently store nothing. Prepare, Explain and
  /// EstimateCost always accept INTO (they only plan, describe or price
  /// the select).
  bool into_sink = false;
  /// Opt out of the semantic result cache for this run: neither consult
  /// it nor install into it (e.g. a caller that must observe real scan
  /// counters, or wants to force a fresh fleet pass).
  bool no_result_cache = false;
  /// Per-query span tree, null (tracing off) by default. When set, the
  /// engine opens one span per pipeline stage -- plan (in Prepare),
  /// cache_probe, then per gather ghost_harvest and fan_out with a child
  /// per shard and a merge -- and annotates them with stage-local detail (containers,
  /// columnar split, bytes scanned/shipped). Must outlive the run. The disabled
  /// path allocates nothing.
  QueryTrace* trace = nullptr;
};

/// The admission-relevant slice of the Explain prediction (the summed
/// PredictShards slices): what a query would cost before running it.
/// The workbench's cost-based lane choice keys off `TotalBytes()`.
struct CostEstimate {
  uint64_t bytes_to_scan = 0;   ///< Summed over all live shards.
  uint64_t bytes_shipped = 0;   ///< Predicted join ghost traffic.
  double expected_objects = 0.0;
  /// The engine's result cache would answer this query right now (at
  /// the epoch observed while estimating) without any fleet scan.
  bool predicted_cache_hit = false;

  /// Admission-relevant byte cost: a predicted cache hit scans nothing,
  /// so it prices at zero and lands in the QUICK lane.
  uint64_t TotalBytes() const {
    return predicted_cache_hit ? 0 : bytes_to_scan + bytes_shipped;
  }
};

/// One statement parsed and planned once (FederatedQueryEngine::Prepare)
/// and then priced, explained or run any number of times. It carries no
/// fleet state, and a mydb leaf owns its personal store, so a statement
/// held in a queue stays valid across failover and MyDb::Drop.
struct PreparedQuery {
  ParsedQuery parsed;
  Plan plan;  ///< The logical tree; a run splits it for its fleet.
  /// The plan reads a personal mydb store, which is never sharded.
  bool mydb = false;
  /// The engine's result cache may answer and keep this statement.
  bool cacheable = false;
  std::string fingerprint;  ///< The cache key; set when cacheable.
  double seconds_plan = 0.0;  ///< Parse + plan wall time (Prepare).

  /// The INTO mydb.<name> target ("" = plain select).
  const std::string& into() const { return parsed.first.into_mydb; }
  /// The result shape a run streams.
  ResultHeader header() const { return {plan.columns, plan.is_aggregate}; }
};

/// Parses, plans, and executes queries against a fleet of shards. A
/// single store is the one-shard fleet `{Shard{0, &store, nullptr}}`.
///
/// Thread-safety: every entry may be called concurrently from any number
/// of threads; SetShards may interleave (in-flight queries keep their
/// snapshot of the previous routing).
class FederatedQueryEngine {
 public:
  /// A run's row sink; returning false cancels the run.
  using Sink = std::function<bool(RowBatch&&)>;

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
    /// answers survive failover (a routing change cuts new shard
    /// stores; the fleet's container directory, whose generation this
    /// is, does not move). Unset, the engine sums the distinct live
    /// shard stores' epochs.
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

  /// Parses and plans `sql` against the current fleet, and fingerprints
  /// it when the result cache may serve it: the engine has a cache and
  /// `ctx.no_result_cache` is unset (a statement prepared without the
  /// cache never uses it). Refuses a FROM tag no live shard can serve.
  /// `ctx.mydb` resolves personal tables; `ctx.trace` gets the plan span.
  Result<PreparedQuery> Prepare(const std::string& sql,
                                const ExecContext& ctx = {}) const;

  /// The one run entry: refuses an unsinked INTO, snapshots the fleet,
  /// then answers from the result cache or runs the plan's executor
  /// tree, split at gathers when more than one shard is live. It alone
  /// installs into the cache, records the engine metrics and sets every
  /// ExecStats stage clock (seconds_plan is the statement's).
  Result<ExecStats> Run(const PreparedQuery& prep, const ExecContext& ctx,
                        const Sink& sink);

  /// Prepare plus the statement's cost prediction, without executing.
  Result<CostEstimate> EstimateCost(const std::string& sql,
                                    const ExecContext& ctx = {});

  /// The workbench's admission estimate of a prepared statement, priced
  /// on the fleet as it stands now.
  Result<CostEstimate> EstimateCost(const PreparedQuery& prep,
                                    const ExecContext& ctx = {});

  /// Runs `sql` and materializes the result: a collecting sink over the
  /// same run as ExecuteStreaming. FROM mydb.<name> plans run whole on
  /// one executor (a personal store is never sharded) but still share
  /// the engine's scan pool.
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
  /// `on_header`, when set, is invoked exactly once -- after Prepare
  /// succeeds, before the first batch -- with the projected
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

  /// Failover hook: replaces the routed shard set (e.g. after
  /// archive::ShardedStore::MarkServerDown + LiveShards()).
  void SetShards(std::vector<Shard> shards);

  size_t num_shards() const;
  const Options& options() const { return options_; }

  /// The semantic result cache, or null when Options::result_cache_bytes
  /// is 0. Exposed for instrumentation (hit counters, tests).
  ResultCache* result_cache() { return cache_.get(); }

 private:
  std::vector<Shard> SnapshotShards() const;
  /// The cache-keying epoch for a run's shard snapshot.
  uint64_t CacheEpoch(const std::vector<Shard>& shards) const;
  /// Run on a shard snapshot the caller already took (and predicted on).
  Result<ExecStats> RunOn(const PreparedQuery& prep,
                          const std::vector<Shard>& shards,
                          const ExecContext& ctx, const Sink& sink);
  /// Runs the plan's one executor tree: the logical tree on the first
  /// shard for a mydb plan or a one-shard fleet, otherwise the
  /// DistributePlan split, with FanOut as its gather source. Adds every
  /// shard's scan counters into `stats`.
  Status RunPlan(const PreparedQuery& prep, const std::vector<Shard>& shards,
                 const ExecContext& ctx, const Sink& sink, ExecStats* stats);
  /// Runs `part` on every shard and merges the shard streams into `emit`
  /// as `gather` directs: after the ghost exchange for a pair join, k-way
  /// on the sort key when ordered, in arrival order otherwise, dropping
  /// repeated pairs. A null `gather` runs a whole plan on one shard.
  Status FanOut(const std::vector<Shard>& shards, const PlanNode& part,
                const PlanNode* gather, const ExecContext& ctx,
                const Sink& emit, ExecStats* stats);
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

/// The one density-map predictor of a plan, summed over its scan and
/// join leaves: per shard, the containers it serves that the leaves
/// read (one htm::ForEachInCover walk per region leaf, every container
/// FULL for a region-less one), the bytes it would read, the object
/// yield and, for a pair join over several shards, the ghost traffic.
/// A mydb plan reads personal stores, never the fleet: it gets one
/// slice (server 0), each leaf predicted over its own whole store.
/// SumShards of the result is the statement's prediction everywhere --
/// Explain, EstimateCost and QueryResult::prediction.
std::vector<ShardPrediction> PredictShards(const std::vector<Shard>& shards,
                                           const Plan& plan);

/// The statement-wide prediction: the PredictShards slices summed.
/// `shipped` receives the summed ghost traffic.
catalog::ObjectStore::Prediction SumShards(
    const std::vector<ShardPrediction>& slices, uint64_t* shipped);

}  // namespace sdss::query

#endif  // SDSS_QUERY_FEDERATED_ENGINE_H_
