// The Query Execution Tree (QET).
//
// The paper: "Each query received from the User Interface is parsed into
// a Query Execution Tree (QET) that is then executed by the Query Engine.
// Each node of the QET is either a query or a set-operation node, and
// returns a bag of object-pointers upon execution. The multi-threaded
// Query Engine executes in parallel at all the nodes at a given level of
// the QET. Results from child nodes are passed up the tree as soon as
// they are generated" (the ASAP push strategy), with sort / aggregation /
// intersection / difference nodes blocking on one side.
//
// This header defines the plan-node tree, the batch exchange the
// executor streams scan output through, the planner that lowers a
// parsed query onto a specific ObjectStore (spatial cover extraction,
// tag-store selection, and the density-map cost prediction), and the
// planner step that splits a fleet plan at GATHER nodes.

#ifndef SDSS_QUERY_QET_H_
#define SDSS_QUERY_QET_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "catalog/object_store.h"
#include "core/thread_pool.h"
#include "query/parser.h"

namespace sdss::query {

/// One result row: the object pointer plus projected attribute values.
/// Pair-join rows carry both members' ids (obj_id = the `a` role,
/// obj_id_b = the `b` role); plain rows leave obj_id_b zero.
struct ResultRow {
  uint64_t obj_id = 0;
  uint64_t obj_id_b = 0;
  /// Unit position of the object, carried verbatim from the scan leaf
  /// (ColumnarBlock::Position, or TagPosition for tag leaves).
  /// Lets spatial predicates be re-evaluated over a materialized row
  /// bit-identically to the original scan -- the hook query::ResultCache
  /// containment filtering hangs off. Zero for pair-join rows.
  Vec3 pos;
  std::vector<double> values;
};

using RowBatch = std::vector<ResultRow>;

/// The engine's one sort order: by values[col] (ascending or
/// descending), with (obj_id, obj_id_b) as the stable tie-break. The
/// sort node, the top-k fusion, and the federated k-way merge must all
/// agree on this total order -- do not inline variants.
inline bool RowBefore(const ResultRow& a, const ResultRow& b, size_t col,
                      bool desc) {
  double av = a.values[col], bv = b.values[col];
  if (av != bv) return desc ? av > bv : av < bv;
  if (a.obj_id != b.obj_id) return a.obj_id < b.obj_id;
  return a.obj_id_b < b.obj_id_b;
}

/// A batch consumer: takes each batch by rvalue (and may steal it), and
/// returns false to stop the stream.
using BatchSink = std::function<bool(RowBatch&&)>;

/// One morsel of scan-shaped work: produces morsel `i`'s batches into
/// `emit`, and stops early once `emit` returns false.
using Morsel = std::function<void(size_t i, const BatchSink& emit)>;

/// The executor's one exchange between the scan pool and the query's
/// own thread. Runs morsel(i, emit) for every i in [0, n) on `pool`
/// AND on the calling thread, and hands every batch any morsel emits to
/// `consume` on the calling thread only -- ASAP, in arrival order.
///
/// Pool morsels hand their batches over through one queue bounded at
/// `max_queued` batches: a full queue blocks them, so a slow consumer
/// backpressures the scan. The calling thread never blocks on that
/// queue: it drains it, runs unclaimed morsels itself (their batches go
/// straight to `consume`), and only waits while a pool thread is inside
/// a morsel. So the run completes even when every pool worker is busy
/// elsewhere -- the caller then runs all n morsels itself.
///
/// Once `consume` returns false, queued batches are dropped, every
/// blocked or later `emit` returns false, and unstarted morsels are
/// skipped. Returns false when `consume` stopped the stream.
bool StreamMorsels(ThreadPool* pool, size_t n, const Morsel& morsel,
                   const BatchSink& consume, size_t max_queued = 64);

/// QET node types: one scan ("query node") plus the paper's set-operation
/// and blocking node kinds, and the hash-machine neighbor join.
enum class PlanNodeType {
  kScan,        ///< Leaf: container-pruned store scan with predicate.
  kMyDbScan,    ///< Leaf: scan of a personal mydb result store.
  kPairJoin,    ///< Leaf: two-phase spatial hash join (PairHasher).
  kUnion,       ///< Bag union (dedup by obj_id); streams both sides ASAP.
  kIntersect,   ///< Blocking on the right side, then streams the left.
  kDifference,  ///< Blocking on the right side, then streams the left.
  kSort,        ///< Blocking: drains child, sorts, then streams.
  kLimit,       ///< Streaming with early-out cancellation.
  kAggregate,   ///< Blocking: folds child stream to one row.
  kGather,      ///< Coordinator leaf of a fleet plan: runs its child on
                ///< every shard and merges the shard streams.
};

const char* PlanNodeTypeName(PlanNodeType t);

/// A node of the QET. Nodes are immutable once planned; a distributed
/// tree shares the logical tree's subtrees instead of copying them.
struct PlanNode {
  PlanNodeType type = PlanNodeType::kScan;
  std::vector<std::shared_ptr<const PlanNode>> children;

  // -- kScan ---------------------------------------------------------
  TableRef table = TableRef::kPhoto;
  Expr::Ptr predicate;                 ///< Null = accept all.
  bool has_region = false;
  htm::Region region;                  ///< Container-pruning bound.
  std::vector<std::string> projection; ///< Output column names.
  double sample = 1.0;                 ///< Bernoulli sampling fraction.
  uint64_t sample_seed = 7777;

  // -- kMyDbScan -----------------------------------------------------
  // Like kScan, but over a personal result store resolved at plan time.
  // The node shares ownership of the store, so a plan reads the table
  // as it stood when it was planned, even if the table is dropped
  // before or while the plan runs. Personal stores are never sharded,
  // so the federated engine runs these plans on one local executor and
  // shard container filters do not apply.
  std::shared_ptr<const catalog::ObjectStore> mydb_store;
  std::string mydb_name;

  // -- kPairJoin -----------------------------------------------------
  // A leaf like kScan: phase 1 runs `predicate` (the unqualified
  // conjuncts AND the derived either-side filter; null = every object
  // is a candidate) over its containers with the scan kernel, and only
  // the survivors are decoded for the hash machine. Emits one row per
  // unordered pair within the separation; `projection` names are
  // alias-qualified ("a.r", "b.g") or the separation pseudo-column
  // "sep".
  double pair_max_sep_arcsec = 0.0;
  /// Bucket depth of the hash, chosen by the planner from the
  /// separation (PairHasher::ChooseBucketLevel).
  int pair_bucket_level = 10;
  /// Pair predicate: the conjunction of alias-qualified conjuncts. A
  /// pair {x, y} qualifies when SOME assignment of its members to
  /// (a, b) satisfies it; the satisfying assignment (lower-id member
  /// first when both hold) binds the aliases in the projection.
  Expr::Ptr pair_where;
  std::string pair_alias_a = "a";
  std::string pair_alias_b = "b";

  // -- kSort (and an ordered kGather's merge key) ---------------------
  size_t sort_column = 0;
  bool sort_desc = false;

  // -- kLimit --------------------------------------------------------
  int64_t limit = -1;

  // -- kAggregate ----------------------------------------------------
  AggFunc agg = AggFunc::kNone;
  /// Partial mode (the shard side of a DistributePlan split): emit the
  /// decomposed state {count, sum, min, max} instead of the final value,
  /// so per-shard partials combine exactly (COUNT/SUM add, MIN/MAX fold,
  /// AVG = sum/count). An aggregate over a gather of partial aggregates
  /// combines those rows instead of folding raw values.
  bool agg_partial = false;

  // -- kGather -------------------------------------------------------
  // The split point of a distributed plan. children[0] is the subtree
  // every shard runs; the gather itself is a leaf of the coordinator's
  // tree, whose rows the engine supplies (Executor::RunTree's gather
  // source). An ordered gather k-way merges the sorted shard streams on
  // (sort_column, sort_desc); an unordered one interleaves them in ASAP
  // arrival order.
  bool gather_ordered = false;
  /// A pair-join gather: boundary ghosts are exchanged between the
  /// shards before the fan-out, and a pair row another shard already
  /// delivered is dropped.
  bool gather_pairs = false;

  /// Indented plan explanation (EXPLAIN output).
  std::string Explain(int indent = 0) const;
};

/// A complete plan.
struct Plan {
  /// The logical tree: what the query means, and what the result cache
  /// fingerprints and answers.
  std::shared_ptr<const PlanNode> root;
  std::vector<std::string> columns;  ///< Output column names.
  bool is_aggregate = false;

  /// Planner decisions, for instrumentation.
  bool used_tag_store = false;
  bool used_spatial_index = false;
  /// Density-map estimate, summed over every scan and join leaf.
  catalog::ObjectStore::Prediction prediction;

  /// The tree that runs -- `tree` (a DistributePlan split) when set,
  /// the logical tree otherwise -- plus the planner decisions.
  std::string Explain(const PlanNode* tree = nullptr) const;
};

/// Resolves a mydb table name to the personal store backing it, or null
/// when the name is unknown. Bound per user (archive::MyDb::ResolverFor);
/// the plan keeps the returned owner for its lifetime.
using MyDbResolver = std::function<std::shared_ptr<const catalog::ObjectStore>(
    const std::string&)>;

/// Planner options.
struct PlannerOptions {
  /// Rewrite photo-table selects onto the tag vertical partition when
  /// every referenced attribute lives in the tag (the paper's "searched
  /// more than 10 times faster" path).
  bool auto_tag_selection = true;

  /// Extract spatial atoms into an HTM cover for container pruning. Off
  /// = full scan (the baseline of the C7 benchmark).
  bool use_spatial_index = true;

  /// Personal-store catalog for FROM mydb.<name> selects. Unset = mydb
  /// references fail with InvalidArgument. The federated engine's
  /// ExecContext overrides this per job (each user sees their own
  /// namespace).
  MyDbResolver mydb;
};

/// Lowers a parsed query against a store. Fails on unknown attributes.
Result<Plan> BuildPlan(const ParsedQuery& query,
                       const catalog::ObjectStore& store,
                       const PlannerOptions& options = {});

/// Calls `fn` for every scan, mydb-scan and pair-join leaf under
/// `node`, left to right.
void ForEachLeaf(const PlanNode& node,
                 const std::function<void(const PlanNode&)>& fn);

/// Splits a fleet plan for a fleet of several shards: returns the
/// coordinator's tree, the logical tree `root` cut at kGather nodes
/// (`root` itself is shared, not changed). A select chain, or a set tree whose branches
/// carry no LIMIT, runs whole on every shard under one gather (shards
/// hold disjoint objects); a LIMIT is re-applied above its gather; an
/// aggregate over a whole-gathered body runs in partial mode on the
/// shards; a branch-limited set tree keeps its set nodes above one
/// gather per branch. Never called for personal (mydb) plans.
std::shared_ptr<const PlanNode> DistributePlan(
    const std::shared_ptr<const PlanNode>& root);

}  // namespace sdss::query

#endif  // SDSS_QUERY_QET_H_
