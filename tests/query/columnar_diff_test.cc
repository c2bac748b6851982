// Differential suite pinning the columnar scan kernel -- the one scan
// path -- to a row oracle, bit for bit: for every query's scan and
// pair-join leaves, the kernel's survivors, projected values, aggregate
// inputs, SAMPLE draws and divide-by-zero row must equal Expr::EvalBool
// over each container's decoded rows (ColumnarBlock::Materialize(); via
// GetAttribute, or GetTagAttribute over TagObj::FromPhoto for tag
// leaves) under the same per-container Rng seed. End to end, a
// mapped-snapshot store and an owned-column store (row-built by
// BulkLoad) must answer identically, alone and as federated fleets of
// 1-8 shards. Covers cone/rect/band scans, every aggregate, SAMPLE, set
// operations, tag queries and neighbour joins.
//
// Determinism note: float accumulation order and the SAMPLE Rng stream
// depend on container visit order, so the engines here run with
// scan_threads = 1 -- that makes "bit-identical" a meaningful assertion
// rather than a tolerance. One test re-checks multiset equality under
// the default thread count.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "archive/sharded_store.h"
#include "catalog/sky_generator.h"
#include "core/random.h"
#include "persist/snapshot.h"
#include "query/columnar_scan.h"
#include "query/federated_engine.h"
#include "query/parser.h"

namespace sdss::query {
namespace {

namespace fs = std::filesystem;

catalog::ObjectStore MakeSky(uint64_t seed, size_t scale = 1) {
  catalog::SkyModel m;
  m.seed = seed;
  m.num_galaxies = 3000 * scale;
  m.num_stars = 2200 * scale;
  m.num_quasars = 80 * scale;
  catalog::StoreOptions opts;
  opts.build_tags = true;
  catalog::ObjectStore store(opts);
  EXPECT_TRUE(store.BulkLoad(catalog::SkyGenerator(m).Generate()).ok());
  return store;
}

/// This process's snapshot directory under the test tmpdir. It carries
/// the pid: ctest runs every case as its own process, and concurrent
/// writers of one snapshot path race on its temporary file.
fs::path MapDir() {
  return fs::path(::testing::TempDir()) /
         ("columnar_diff_" + std::to_string(::getpid()));
}

/// Snapshots `store` to a fresh file under MapDir() and maps it.
Result<catalog::ObjectStore> MapStore(const catalog::ObjectStore& store,
                                      const std::string& name) {
  const fs::path dir = MapDir();
  fs::create_directories(dir);
  const std::string path = (dir / (name + ".snap")).string();
  persist::SnapshotWriter writer(path);
  Status written = writer.Write(store);
  if (!written.ok()) return written;
  return persist::MapSnapshotStore(path);
}

/// How each query's answers are compared. Aggregates and ordered rows
/// compare exactly (operator== on doubles); kRows sorts first because
/// ASAP delivery order is not part of the contract even single-threaded
/// (set operations hash-merge).
enum class Mode { kRows, kOrdered, kAggregate };

struct DiffQuery {
  std::string sql;
  Mode mode = Mode::kRows;
};

/// The neighbour joins: the served mining shapes (quasar-galaxy and
/// galaxy-galaxy pairs inside a circle, at separations wide enough to
/// find pairs on this sparse sky) and the colour-twin lens query, whose
/// phase-1 filter is empty.
const char kQsoGalaxyJoin[] =
    "SELECT a.obj_id, b.obj_id, sep FROM photo AS a JOIN photoobj AS b "
    "WITHIN 3600 ARCSEC WHERE CIRCLE('GAL', 120, 55, 20) AND "
    "a.class = 'QSO' AND b.class = 'GALAXY' AND b.r > 17.5";
const char kGalaxyPairsJoin[] =
    "SELECT a.obj_id, b.obj_id, sep FROM photo AS a JOIN photoobj AS b "
    "WITHIN 60 ARCSEC WHERE CIRCLE('GAL', 30, 70, 12) AND "
    "a.class = 'GALAXY' AND b.class = 'GALAXY' AND a.r < 22.5";
const char kLensJoin[] =
    "SELECT a.obj_id, b.obj_id, sep FROM photo AS a JOIN photo AS b "
    "WITHIN 30 ARCSEC WHERE a.g - a.r - b.g + b.r < 0.05 AND "
    "b.g - b.r - a.g + a.r < 0.05";

std::vector<DiffQuery> DiffQueries() {
  using M = Mode;
  return {
      {"SELECT obj_id, r FROM photo WHERE r < 20.5", M::kRows},
      {"SELECT obj_id, g, r FROM photo WHERE g - r < 0.8 AND r < 21",
       M::kRows},
      {"SELECT obj_id FROM photo WHERE class = 'QSO'", M::kRows},
      {"SELECT obj_id, u, z FROM photo WHERE u - g > 0.4 AND "
       "NOT (class = 'STAR')",
       M::kRows},
      {"SELECT obj_id, r FROM photo WHERE CIRCLE('GAL', 30, 70, 8)",
       M::kRows},
      {"SELECT obj_id, r FROM photo WHERE CIRCLE('GAL', 120, 55, 10) "
       "AND r < 21.5",
       M::kRows},
      {"SELECT obj_id FROM photo WHERE RECT(170, 210, 20, 50) AND "
       "class = 'GALAXY'",
       M::kRows},
      {"SELECT obj_id, r FROM photo WHERE BAND('GAL', 45, 65) AND r < 22",
       M::kRows},
      {"SELECT obj_id, redshift FROM photo WHERE redshift > 0.5",
       M::kRows},
      {"SELECT obj_id, err_r, sb FROM photo WHERE err_r < 0.05 AND "
       "sb < 24",
       M::kRows},
      {"SELECT obj_id, r FROM photo WHERE r < 21 ORDER BY r LIMIT 50",
       M::kOrdered},
      {"SELECT obj_id, dec FROM photo WHERE CIRCLE('GAL', 30, 70, 10) "
       "ORDER BY dec DESC LIMIT 30",
       M::kOrdered},
      {"SELECT COUNT(*) FROM photo", M::kAggregate},
      {"SELECT COUNT(*) FROM photo WHERE r < 21", M::kAggregate},
      {"SELECT SUM(r) FROM photo WHERE r < 22", M::kAggregate},
      {"SELECT AVG(g) FROM photo WHERE class = 'GALAXY'", M::kAggregate},
      {"SELECT MIN(r) FROM photo", M::kAggregate},
      {"SELECT MAX(z) FROM photo WHERE class = 'STAR'", M::kAggregate},
      {"SELECT COUNT(*) FROM photo WHERE CIRCLE('GAL', 0, 60, 12)",
       M::kAggregate},
      {"SELECT obj_id FROM photo WHERE r < 22 SAMPLE 0.3", M::kRows},
      {"SELECT COUNT(*) FROM photo WHERE r < 23 SAMPLE 0.5",
       M::kAggregate},
      {"SELECT obj_id, r FROM photo WHERE class = 'QSO' UNION "
       "SELECT obj_id, r FROM photo WHERE r < 18.5",
       M::kRows},
      {"SELECT obj_id, r FROM photo WHERE r < 21 INTERSECT "
       "SELECT obj_id, r FROM photo WHERE g - r < 0.6",
       M::kRows},
      {"SELECT obj_id, r FROM photo WHERE r < 20 EXCEPT "
       "SELECT obj_id, r FROM photo WHERE class = 'STAR'",
       M::kRows},
      // Tag queries: the kernel reads the photo columns at the tag's
      // precision (float cx/cy/cz, renormalized position).
      {"SELECT * FROM tag WHERE r < 19", M::kRows},
      {"SELECT obj_id, r FROM tag WHERE r < 20 ORDER BY r LIMIT 40",
       M::kOrdered},
      {"SELECT AVG(r) FROM tag WHERE g - r < 1.0", M::kAggregate},
      {"SELECT obj_id, cx, cz FROM tag WHERE CIRCLE('GAL', 30, 70, 8) "
       "AND cy > -0.5",
       M::kRows},
      {"SELECT obj_id, cy FROM tag WHERE cz > 0.4", M::kRows},
      {"SELECT SUM(cz) FROM tag WHERE CIRCLE('GAL', 120, 55, 10)",
       M::kAggregate},
      // Division runs on the kernel too, with Expr::Eval's exact
      // divide-by-zero semantics (these divisors never hit zero; the
      // erroring cases get their own test below).
      {"SELECT obj_id FROM photo WHERE r / 2 < 10.2", M::kRows},
      {"SELECT obj_id, g FROM photo WHERE (g - r) / (r + 1) < 0.04",
       M::kRows},
      {"SELECT obj_id FROM photo WHERE CIRCLE('GAL', 30, 70, 8) AND "
       "u / (g + 1) < 1.2",
       M::kRows},
      {"SELECT AVG(r) FROM photo WHERE u / (g + 1) < 1.2", M::kAggregate},
      // Right operands nested deeper than the evaluator's on-stack
      // chunk buffers.
      {"SELECT obj_id, r FROM photo WHERE r - (g - (u - (i - (z - r)))) "
       "< 1.5",
       M::kRows},
      // A zero divisor behind an untaken AND/OR arm: no row evaluates
      // it, so neither errors.
      {"SELECT obj_id FROM photo WHERE r > 99 AND 1 / (r - r) > 0",
       M::kRows},
      {"SELECT obj_id FROM photo WHERE r < 99 OR 1 / (r - r) > 0",
       M::kRows},
      // Joins: phase 1 filters on the kernel.
      {kQsoGalaxyJoin, M::kRows},
      {kGalaxyPairsJoin, M::kRows},
      {kLensJoin, M::kRows},
  };
}

using SortedRows = std::vector<std::pair<uint64_t, std::vector<double>>>;

SortedRows Sorted(const QueryResult& r) {
  SortedRows rows;
  rows.reserve(r.rows.size());
  for (const auto& row : r.rows) rows.emplace_back(row.obj_id, row.values);
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Bit-exact equivalence of two results under `mode`. Doubles compare
/// with ==: the kernel's contract is the SAME bits, not close bits.
/// Scan counters compare too unless the query carries a bare LIMIT --
/// a filled limit cancels upstream scans at a point that depends on
/// which morsels the pool had started.
void ExpectIdentical(const QueryResult& want, const QueryResult& got,
                     Mode mode, const std::string& context) {
  SCOPED_TRACE(context);
  const bool deterministic_counters =
      context.find("LIMIT") == std::string::npos;
  ASSERT_EQ(want.is_aggregate, got.is_aggregate);
  EXPECT_EQ(want.columns, got.columns);
  switch (mode) {
    case Mode::kRows:
      EXPECT_EQ(Sorted(want), Sorted(got));
      break;
    case Mode::kOrdered:
      ASSERT_EQ(want.rows.size(), got.rows.size());
      for (size_t i = 0; i < want.rows.size(); ++i) {
        EXPECT_EQ(want.rows[i].obj_id, got.rows[i].obj_id) << "row " << i;
        EXPECT_EQ(want.rows[i].values, got.rows[i].values) << "row " << i;
      }
      break;
    case Mode::kAggregate:
      EXPECT_EQ(want.aggregate_value, got.aggregate_value);
      break;
  }
  if (deterministic_counters) {
    EXPECT_EQ(want.exec.objects_examined, got.exec.objects_examined);
    EXPECT_EQ(want.exec.objects_matched, got.exec.objects_matched);
  }
}

FederatedQueryEngine::Options SingleThreaded(bool auto_tag = false) {
  FederatedQueryEngine::Options opts;
  opts.executor.scan_threads = 1;
  // With auto tag selection on, nearly every query in the list
  // rewrites onto the tag partition (its attributes all live in the
  // tag) and never reads the photo columns at full precision; the
  // tests run both settings.
  opts.planner.auto_tag_selection = auto_tag;
  return opts;
}

/// The single-store engine: a one-shard fleet over `store`.
FederatedQueryEngine OneShard(const catalog::ObjectStore* store,
                              FederatedQueryEngine::Options options) {
  return FederatedQueryEngine({Shard{0, store, nullptr}}, options);
}

/// What one scan leaf yields from one container.
struct LeafRun {
  std::vector<ResultRow> rows;     ///< Survivors, projected.
  std::vector<double> agg_inputs;  ///< The first value column per row.
  uint64_t rng_after = 0;          ///< Next draw of the sample stream.
  Status status;                   ///< Divide by zero, else OK.
};

/// The value columns a leaf's kernel is compiled with: its projection,
/// or none for a pair join (whose phase 1 only filters).
std::vector<std::string> LeafAttrs(const PlanNode& leaf) {
  if (leaf.type == PlanNodeType::kPairJoin) return {};
  return leaf.projection;
}

/// The oracle: row-at-a-time sampling, Expr::EvalBool and attribute
/// lookup over the container's decoded rows (their tag projection for a
/// tag leaf), seeded as the executor seeds container `ci`.
LeafRun OracleScan(const PlanNode& leaf, const catalog::Container& c,
                   size_t ci) {
  LeafRun run;
  Rng rng(leaf.sample_seed + ci * 7919);
  const bool tag = leaf.table == TableRef::kTag;
  for (const catalog::PhotoObj& o : c.columnar.Materialize()) {
    if (leaf.sample < 1.0 && !rng.Bernoulli(leaf.sample)) continue;
    const catalog::TagObj t = catalog::TagObj::FromPhoto(o);
    RowAccessor acc{[&](const std::string& name) {
                      return tag ? catalog::GetTagAttribute(t, name)
                                 : catalog::GetAttribute(o, name);
                    },
                    tag ? t.Position() : o.pos};
    if (leaf.predicate) {
      auto keep = leaf.predicate->EvalBool(acc);
      if (!keep.ok()) {
        run.status = keep.status();
        break;
      }
      if (!*keep) continue;
    }
    ResultRow row;
    row.obj_id = tag ? t.obj_id : o.obj_id;
    row.pos = acc.position;
    for (const std::string& name : LeafAttrs(leaf)) {
      auto v = acc.get(name);
      EXPECT_TRUE(v.ok()) << name;
      row.values.push_back(v.ok() ? *v : 0.0);
    }
    if (!row.values.empty()) run.agg_inputs.push_back(row.values[0]);
    run.rows.push_back(std::move(row));
  }
  run.rng_after = rng.Next64();
  return run;
}

/// The kernel over the same container and seed.
LeafRun KernelScan(const PlanNode& leaf, const catalog::Container& c,
                   size_t ci) {
  LeafRun run;
  ColumnarScan kernel;
  const std::vector<std::string> attrs = LeafAttrs(leaf);
  Status compiled = ColumnarScan::Compile(leaf, attrs, &kernel);
  EXPECT_TRUE(compiled.ok()) << compiled.ToString();
  if (!compiled.ok()) return run;
  Rng rng(leaf.sample_seed + ci * 7919);
  kernel.Scan(
      c.columnar, &rng,
      [&](size_t i) {
        ResultRow row;
        kernel.ProjectRow(c.columnar, i, &row);
        if (!attrs.empty()) {
          run.agg_inputs.push_back(kernel.Value(c.columnar, i));
        }
        run.rows.push_back(std::move(row));
        return true;
      },
      [](size_t) { return true; }, &run.status);
  run.rng_after = rng.Next64();
  return run;
}

void CollectScanLeaves(const PlanNode* node,
                       std::vector<const PlanNode*>* leaves) {
  if (node->type == PlanNodeType::kScan ||
      node->type == PlanNodeType::kPairJoin) {
    leaves->push_back(node);
  }
  for (const auto& child : node->children) {
    CollectScanLeaves(child.get(), leaves);
  }
}

/// Runs every scan and pair-join leaf of `sql`'s plan over every
/// container of `store` through the kernel and the oracle and demands
/// identical bits.
/// Returns how many leaves read the tag partition.
size_t ExpectLeavesMatchOracle(const catalog::ObjectStore& store,
                               const std::string& sql, bool auto_tag) {
  SCOPED_TRACE(sql + (auto_tag ? " [auto tag]" : ""));
  auto parsed = Parse(sql);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  if (!parsed.ok()) return 0;
  PlannerOptions planner;
  planner.auto_tag_selection = auto_tag;
  auto plan = BuildPlan(*parsed, store, planner);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  if (!plan.ok()) return 0;
  std::vector<const PlanNode*> leaves;
  CollectScanLeaves(plan->root.get(), &leaves);
  EXPECT_FALSE(leaves.empty());
  size_t tag_leaves = 0;
  for (const PlanNode* leaf : leaves) {
    tag_leaves += leaf->table == TableRef::kTag ? 1 : 0;
    size_t ci = 0;
    for (const auto& [raw, c] : store.containers()) {
      SCOPED_TRACE("container " + std::to_string(raw));
      const LeafRun want = OracleScan(*leaf, c, ci);
      const LeafRun got = KernelScan(*leaf, c, ci);
      ++ci;
      EXPECT_EQ(want.status.code(), got.status.code());
      EXPECT_EQ(want.status.message(), got.status.message());
      // The kernel draws a whole chunk's variates before evaluating it,
      // so the streams agree afterwards only when no row errored.
      if (want.status.ok()) {
        EXPECT_EQ(want.rng_after, got.rng_after) << "sample draws differ";
      }
      EXPECT_EQ(want.agg_inputs, got.agg_inputs);
      EXPECT_EQ(want.rows.size(), got.rows.size());
      if (want.rows.size() != got.rows.size()) continue;
      for (size_t i = 0; i < want.rows.size(); ++i) {
        const ResultRow& a = want.rows[i];
        const ResultRow& b = got.rows[i];
        EXPECT_EQ(a.obj_id, b.obj_id) << "row " << i;
        EXPECT_EQ(a.pos.x, b.pos.x) << "row " << i;
        EXPECT_EQ(a.pos.y, b.pos.y) << "row " << i;
        EXPECT_EQ(a.pos.z, b.pos.z) << "row " << i;
        EXPECT_EQ(a.values, b.values) << "row " << i;
      }
    }
  }
  return tag_leaves;
}

class ColumnarDiffTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    row_store_ = new catalog::ObjectStore(MakeSky(8101));
    auto mapped = MapStore(*row_store_, "diff");
    if (mapped.ok()) {
      mapped_store_ = new catalog::ObjectStore(std::move(*mapped));
    } else {
      map_error_ = mapped.status().ToString();
    }
  }
  // A fatal failure inside SetUpTestSuite only marks the cases skipped,
  // which ctest counts as passing: a missing fixture store must fail
  // every case instead.
  void SetUp() override { ASSERT_NE(mapped_store_, nullptr) << map_error_; }
  static void TearDownTestSuite() {
    delete mapped_store_;
    delete row_store_;
    mapped_store_ = nullptr;
    row_store_ = nullptr;
    fs::remove_all(MapDir());
  }
  /// Row-built: BulkLoad into owned columns.
  static catalog::ObjectStore* row_store_;
  /// The same objects mapped from a snapshot of row_store_.
  static catalog::ObjectStore* mapped_store_;
  inline static std::string map_error_;
};

catalog::ObjectStore* ColumnarDiffTest::row_store_ = nullptr;
catalog::ObjectStore* ColumnarDiffTest::mapped_store_ = nullptr;

TEST_F(ColumnarDiffTest, KernelMatchesRowPathBitExactly) {
  // Leaf level: the kernel against the row oracle, photo leaves, the
  // joins' phase-1 filters and (with auto tag selection) the tag
  // partition.
  size_t tag_leaves = 0;
  for (const DiffQuery& q : DiffQueries()) {
    for (bool auto_tag : {false, true}) {
      tag_leaves += ExpectLeavesMatchOracle(*row_store_, q.sql, auto_tag);
    }
  }
  EXPECT_GT(tag_leaves, 10u);

  // Engine level: owned columns and mapped columns answer identically,
  // and every scanned container runs the kernel.
  for (bool auto_tag : {false, true}) {
    FederatedQueryEngine owned =
        OneShard(row_store_, SingleThreaded(auto_tag));
    FederatedQueryEngine mapped =
        OneShard(mapped_store_, SingleThreaded(auto_tag));
    for (const DiffQuery& q : DiffQueries()) {
      auto want = owned.Execute(q.sql);
      ASSERT_TRUE(want.ok()) << q.sql << ": " << want.status().ToString();
      auto got = mapped.Execute(q.sql);
      ASSERT_TRUE(got.ok()) << q.sql << ": " << got.status().ToString();
      ExpectIdentical(*want, *got, q.mode, q.sql);
      // The joins find pairs on this sky, so their answers compare
      // something.
      if (q.sql.find(" JOIN ") != std::string::npos) {
        EXPECT_FALSE(want->rows.empty()) << q.sql;
      }
      for (const QueryResult* r : {&*want, &*got}) {
        EXPECT_GT(r->exec.containers_columnar, 0u) << q.sql;
        EXPECT_EQ(r->exec.containers_columnar, r->exec.containers_scanned)
            << q.sql;
      }
    }
  }
}

/// Fleets of 3 and 8 servers over `sky` (two replicas per container).
std::vector<std::unique_ptr<archive::ShardedStore>> Fleets(
    const catalog::ObjectStore& sky) {
  std::vector<std::unique_ptr<archive::ShardedStore>> fleets;
  for (size_t servers : {size_t{3}, size_t{8}}) {
    archive::ReplicationOptions repl;
    repl.num_servers = servers;
    repl.base_replicas = 2;
    fleets.push_back(std::make_unique<archive::ShardedStore>(sky, repl));
  }
  return fleets;
}

TEST_F(ColumnarDiffTest, RuntimeErrorsSurfaceIdentically) {
  // Divide by zero must surface with Expr::Eval's exact status on
  // exactly the oracle's row -- whether the zero divisor hits on the
  // very first row or midway through a container's chunked predicate
  // loop -- and identically from owned and mapped stores and from
  // fleets (where a join's ghost harvest runs the filter first).
  FederatedQueryEngine owned = OneShard(row_store_, SingleThreaded());
  FederatedQueryEngine mapped = OneShard(mapped_store_, SingleThreaded());
  const auto fleets = Fleets(*row_store_);
  for (const char* sql : {
           // Every row divides by zero: the first chunk errors at k=0.
           "SELECT obj_id FROM photo WHERE 1 / (r - r) > 0",
           // Stars carry class = 1, so the divisor zeroes only on star
           // rows -- partway through a chunk, after galaxy survivors
           // were already marked.
           "SELECT obj_id FROM photo WHERE 1 / (class - 1) > 0",
           // Same mid-container zero divisor behind a spatial conjunct:
           // AND short-circuiting decides which rows divide at all.
           "SELECT obj_id FROM photo WHERE CIRCLE('GAL', 30, 70, 20) "
           "AND 1 / (class - 1) > 0",
           // NOT passes its operand's error through.
           "SELECT obj_id FROM photo WHERE NOT (1 / (class - 1) > 0)",
           // The same divisor in a join's phase-1 filter.
           "SELECT a.obj_id, b.obj_id FROM photo AS a JOIN photo AS b "
           "WITHIN 5 ARCSEC WHERE 1 / (class - 1) > 0",
       }) {
    SCOPED_TRACE(sql);
    ExpectLeavesMatchOracle(*row_store_, sql, /*auto_tag=*/false);
    auto a = owned.Execute(sql);
    auto b = mapped.Execute(sql);
    ASSERT_FALSE(a.ok());
    ASSERT_FALSE(b.ok());
    EXPECT_EQ(a.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(a.status().message(), "division by zero");
    EXPECT_EQ(a.status().code(), b.status().code());
    EXPECT_EQ(a.status().message(), b.status().message());
    for (const auto& fleet : fleets) {
      auto shards = fleet->LiveShards();
      ASSERT_TRUE(shards.ok()) << shards.status().ToString();
      FederatedQueryEngine fed(*shards, SingleThreaded());
      auto f = fed.Execute(sql);
      ASSERT_FALSE(f.ok()) << shards->size() << " shards";
      EXPECT_EQ(f.status().code(), a.status().code());
      EXPECT_EQ(f.status().message(), a.status().message());
    }
  }
}

TEST_F(ColumnarDiffTest, CancelledJoinsFailCancelled) {
  // A flag raised before the run stops the join's phase 1 on one store
  // and the ghost harvest on a fleet.
  std::atomic<bool> cancel{true};
  ExecContext ctx;
  ctx.cancel = &cancel;
  std::vector<std::vector<Shard>> fleets = {{Shard{0, row_store_, nullptr}}};
  const auto sharded = Fleets(*row_store_);
  for (const auto& fleet : sharded) {
    auto shards = fleet->LiveShards();
    ASSERT_TRUE(shards.ok()) << shards.status().ToString();
    fleets.push_back(*shards);
  }
  for (const std::vector<Shard>& shards : fleets) {
    SCOPED_TRACE(std::to_string(shards.size()) + " shards");
    FederatedQueryEngine engine(shards, SingleThreaded());
    for (const char* sql : {kGalaxyPairsJoin, kLensJoin}) {
      SCOPED_TRACE(sql);
      auto r = engine.Execute(sql, ctx);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
    }
  }
}

TEST_F(ColumnarDiffTest, ParallelScansStillAgreeAsMultisets) {
  // Default thread count: delivery and accumulation order are free, so
  // compare order-free queries only (integer rows and COUNT).
  FederatedQueryEngine::Options opts;
  opts.planner.auto_tag_selection = false;
  FederatedQueryEngine owned = OneShard(row_store_, opts);
  FederatedQueryEngine mapped = OneShard(mapped_store_, opts);
  for (const char* sql :
       {"SELECT obj_id, r FROM photo WHERE CIRCLE('GAL', 120, 55, 10)",
        "SELECT obj_id FROM photo WHERE class = 'QSO'",
        "SELECT COUNT(*) FROM photo WHERE r < 21"}) {
    auto want = owned.Execute(sql);
    auto got = mapped.Execute(sql);
    ASSERT_TRUE(want.ok() && got.ok()) << sql;
    ExpectIdentical(*want, *got,
                    want->is_aggregate ? Mode::kAggregate : Mode::kRows,
                    std::string(sql) + " [parallel]");
  }
}

TEST_F(ColumnarDiffTest, MappedColdStartSkipsRebuild) {
  // Adoption is a rebuild-free cold start: every container holds column
  // views into the mapping and no materialized rows until asked.
  ASSERT_EQ(mapped_store_->object_count(), row_store_->object_count());
  ASSERT_EQ(mapped_store_->container_count(),
            row_store_->container_count());
  for (const auto& [raw, c] : mapped_store_->containers()) {
    EXPECT_GT(c.size(), 0u) << "container " << raw;
    EXPECT_EQ(c.size(), row_store_->containers().at(raw).size());
  }
  // Mapped containers are immutable: mutation is refused whole. The
  // refused Insert still bumps the store's epoch, which the snapshot
  // header encodes, so probe a store mapped for this test alone and
  // leave the shared one byte-identical to its source.
  auto probe = MapStore(*row_store_, "insert_probe");
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  catalog::PhotoObj obj =
      row_store_->containers().begin()->second.columnar.MaterializeObject(0);
  Status insert = probe->Insert(obj);
  EXPECT_EQ(insert.code(), StatusCode::kFailedPrecondition);
  // The density map (admission + routing) survives adoption.
  htm::Region cone = htm::Region::Circle(180.0, 40.0, 6.0);
  auto pa = row_store_->PredictRegion(cone);
  auto pb = mapped_store_->PredictRegion(cone);
  EXPECT_EQ(pa.bytes_to_scan, pb.bytes_to_scan);
  EXPECT_EQ(pa.max_objects, pb.max_objects);
}

TEST_F(ColumnarDiffTest, MappedStoreReencodesBitExact) {
  // Canonical encoding: a mapped store re-encodes to the byte string it
  // was mapped from, so snapshot-of-mapped-store is a faithful copy.
  EXPECT_EQ(persist::EncodeSnapshot(*mapped_store_),
            persist::EncodeSnapshot(*row_store_));
}

/// A one-store sky several scan morsels wide: the executor claims runs
/// of about 8192 rows, so its scans cross run boundaries here.
class ColumnarMorselTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sky_ = new catalog::ObjectStore(MakeSky(8404, /*scale=*/8));
  }
  static void TearDownTestSuite() {
    delete sky_;
    sky_ = nullptr;
  }
  void SetUp() override { ASSERT_GT(sky_->object_count(), 4u * 8192u); }
  inline static catalog::ObjectStore* sky_ = nullptr;
};

TEST_F(ColumnarMorselTest, OneStoreSumIsScheduleIndependent) {
  // Each morsel folds its own run and the folds merge in run order, so
  // a double sum has the same bits on every run, at any thread count.
  // A sum of r (float magnitudes) is exact in a double whatever the
  // order; a sum of ra is not, so it is the one that shows the order.
  for (const char* sql : {"SELECT SUM(r) FROM photo WHERE r < 22",
                          "SELECT SUM(ra) FROM photo WHERE r < 22"}) {
    SCOPED_TRACE(sql);
    auto want = OneShard(sky_, SingleThreaded()).Execute(sql);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    FederatedQueryEngine::Options options = SingleThreaded();
    options.executor.scan_threads = 4;
    FederatedQueryEngine engine = OneShard(sky_, options);
    for (int run = 0; run < 50; ++run) {
      auto got = engine.Execute(sql);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_EQ(got->aggregate_value, want->aggregate_value)
          << "run " << run;
    }
  }
}

TEST_F(ColumnarMorselTest, SampleSeedsFollowContainerIndex) {
  // SAMPLE draws are seeded per container index, whichever run and
  // thread scan the container: the engine's sample is the union of the
  // per-container oracle samples over CollectScanContainers' list.
  // (Delivery order across morsels is not part of the contract, so the
  // ids compare sorted.)
  const char sql[] = "SELECT obj_id FROM photo WHERE r < 22 SAMPLE 0.3";
  auto parsed = Parse(sql);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  PlannerOptions planner;
  planner.auto_tag_selection = false;
  auto plan = BuildPlan(*parsed, *sky_, planner);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::vector<const PlanNode*> leaves;
  CollectScanLeaves(plan->root.get(), &leaves);
  ASSERT_EQ(leaves.size(), 1u);
  const std::vector<const catalog::Container*> containers =
      CollectScanContainers(leaves[0], sky_);
  std::vector<uint64_t> want;
  for (size_t ci = 0; ci < containers.size(); ++ci) {
    const LeafRun run = OracleScan(*leaves[0], *containers[ci], ci);
    for (const ResultRow& row : run.rows) want.push_back(row.obj_id);
  }
  ASSERT_FALSE(want.empty());
  std::sort(want.begin(), want.end());
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("scan_threads=" + std::to_string(threads));
    FederatedQueryEngine::Options options = SingleThreaded();
    options.executor.scan_threads = threads;
    auto got = OneShard(sky_, options).Execute(sql);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    std::vector<uint64_t> ids;
    for (const ResultRow& row : got->rows) ids.push_back(row.obj_id);
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids, want);
  }
}

TEST(ColumnarFederationTest, MappedShardFleetsMatchRowFleets) {
  catalog::ObjectStore sky = MakeSky(8202);
  for (size_t servers : {size_t{1}, size_t{3}, size_t{8}}) {
    SCOPED_TRACE("servers=" + std::to_string(servers));
    archive::ReplicationOptions repl;
    repl.num_servers = servers;
    repl.base_replicas = servers > 1 ? 2 : 1;
    archive::ShardedStore sharded(sky, repl);
    auto row_shards = sharded.LiveShards();
    ASSERT_TRUE(row_shards.ok()) << row_shards.status().ToString();

    // The mapped fleet: each shard's store snapshotted and mmap'd,
    // serving the same container set.
    std::vector<catalog::ObjectStore> mapped_stores;
    mapped_stores.reserve(row_shards->size());
    std::vector<Shard> mapped_shards;
    for (const Shard& s : *row_shards) {
      auto mapped = MapStore(
          *s.store, "fleet" + std::to_string(servers) + "_srv" +
                        std::to_string(s.server));
      ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
      mapped_stores.push_back(std::move(*mapped));
      mapped_shards.push_back(Shard{s.server, &mapped_stores.back(), nullptr});
    }

    for (bool auto_tag : {false, true}) {
      FederatedQueryEngine row_fed(*row_shards, SingleThreaded(auto_tag));
      FederatedQueryEngine mapped_fed(mapped_shards,
                                      SingleThreaded(auto_tag));
      for (const DiffQuery& q : DiffQueries()) {
        auto want = row_fed.Execute(q.sql);
        ASSERT_TRUE(want.ok()) << q.sql << ": " << want.status().ToString();
        auto got = mapped_fed.Execute(q.sql);
        ASSERT_TRUE(got.ok()) << q.sql << ": " << got.status().ToString();
        ExpectIdentical(*want, *got, q.mode, q.sql);
        // The kernel (and its stat) flows through the federated merge.
        for (const QueryResult* r : {&*want, &*got}) {
          EXPECT_GT(r->exec.containers_columnar, 0u) << q.sql;
          EXPECT_EQ(r->exec.containers_columnar,
                    r->exec.containers_scanned)
              << q.sql;
        }
      }
    }
  }
  fs::remove_all(MapDir());
}

TEST(ColumnarFederationTest, MixedFleetTagScansReadOnlyTaggedShards) {
  // One shard's store keeps no tag partition: a tag scan over the fleet
  // returns exactly the other shards' tag rows, and the untagged shard
  // contributes nothing (not its photo rows).
  catalog::ObjectStore sky = MakeSky(8303);
  archive::ReplicationOptions repl;
  repl.num_servers = 3;
  repl.base_replicas = 1;
  archive::ShardedStore sharded(sky, repl);
  auto shards = sharded.LiveShards();
  ASSERT_TRUE(shards.ok()) << shards.status().ToString();
  ASSERT_EQ(shards->size(), 3u);

  catalog::StoreOptions untagged_options;
  untagged_options.build_tags = false;
  catalog::ObjectStore untagged(untagged_options);
  std::vector<catalog::PhotoObj> shard0_rows;
  (*shards)[0].store->ForEachObject(
      [&](const catalog::PhotoObj& o) { shard0_rows.push_back(o); });
  ASSERT_TRUE(untagged.BulkLoad(shard0_rows).ok());
  std::vector<Shard> mixed = *shards;
  mixed[0].store = &untagged;

  std::vector<uint64_t> expected;
  for (size_t i = 1; i < mixed.size(); ++i) {
    for (const auto& [raw, container] : mixed[i].store->containers()) {
      for (const catalog::PhotoObj& o : container.columnar.Materialize()) {
        if (o.mag[catalog::kR] < 21.0f) expected.push_back(o.obj_id);
      }
    }
  }
  ASSERT_FALSE(expected.empty());
  std::sort(expected.begin(), expected.end());

  FederatedQueryEngine fed(mixed, SingleThreaded());
  auto got = fed.Execute("SELECT obj_id FROM tag WHERE r < 21");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  std::vector<uint64_t> ids;
  for (const ResultRow& row : got->rows) ids.push_back(row.obj_id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, expected);
  EXPECT_GT(got->exec.containers_scanned, 0u);
}

}  // namespace
}  // namespace sdss::query
