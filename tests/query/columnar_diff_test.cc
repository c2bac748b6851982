// Differential suite pinning the columnar scan kernel to the row path:
// the same SQL over (a) the original row store, (b) the mmap'd snapshot
// store with the kernel enabled, and (c) the mapped store with the
// kernel switched off must agree BIT-identically -- not approximately.
// Covers cone/rect/band scans, every aggregate, SAMPLE, set operations,
// tag queries (which always take the row path), and federated fleets of
// 1-8 shards whose members are mapped stores.
//
// Determinism note: float accumulation order and the SAMPLE Rng stream
// depend on container visit order, so every engine here runs with
// scan_threads = 1 -- that makes "bit-identical" a meaningful assertion
// rather than a tolerance. A final test re-checks multiset equality
// under the default thread count.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "archive/sharded_store.h"
#include "catalog/sky_generator.h"
#include "persist/snapshot.h"
#include "query/federated_engine.h"

namespace sdss::query {
namespace {

namespace fs = std::filesystem;

catalog::ObjectStore MakeSky(uint64_t seed) {
  catalog::SkyModel m;
  m.seed = seed;
  m.num_galaxies = 3000;
  m.num_stars = 2200;
  m.num_quasars = 80;
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
  bool photo_scan = true;  ///< Expect the kernel to engage (not tag-only).
};

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
      // Tag queries: the kernel never runs (the tag partition has no
      // column views) but the mapped store's lazily rebuilt tag rows
      // must still answer identically.
      {"SELECT * FROM tag WHERE r < 19", M::kRows, false},
      {"SELECT obj_id, r FROM tag WHERE r < 20 ORDER BY r LIMIT 40",
       M::kOrdered, false},
      {"SELECT AVG(r) FROM tag WHERE g - r < 1.0", M::kAggregate, false},
      // Division runs on the kernel too, with the row path's exact
      // divide-by-zero semantics (these divisors never hit zero; the
      // erroring cases get their own test below).
      {"SELECT obj_id FROM photo WHERE r / 2 < 10.2", M::kRows},
      {"SELECT obj_id, g FROM photo WHERE (g - r) / (r + 1) < 0.04",
       M::kRows},
      {"SELECT obj_id FROM photo WHERE CIRCLE('GAL', 30, 70, 8) AND "
       "u / (g + 1) < 1.2",
       M::kRows},
      {"SELECT AVG(r) FROM photo WHERE u / (g + 1) < 1.2", M::kAggregate},
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
/// a filled limit cancels upstream scans at a point that differs
/// between the per-row path and the chunked kernel.
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

FederatedQueryEngine::Options SingleThreaded(bool columnar_kernel) {
  FederatedQueryEngine::Options opts;
  opts.executor.scan_threads = 1;
  opts.executor.columnar_kernel = columnar_kernel;
  // Without this, nearly every query in the list auto-selects the tag
  // vertical partition (its attributes all live in the tag) and never
  // reaches a photo container. Pinning selects to the photo table is
  // what makes this a KERNEL differential; the explicit FROM tag
  // queries cover the tag path.
  opts.planner.auto_tag_selection = false;
  return opts;
}

/// The single-store engine: a one-shard fleet over `store`.
FederatedQueryEngine OneShard(const catalog::ObjectStore* store,
                              FederatedQueryEngine::Options options) {
  return FederatedQueryEngine({Shard{0, store, nullptr}}, options);
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
  static catalog::ObjectStore* row_store_;
  static catalog::ObjectStore* mapped_store_;
  inline static std::string map_error_;
};

catalog::ObjectStore* ColumnarDiffTest::row_store_ = nullptr;
catalog::ObjectStore* ColumnarDiffTest::mapped_store_ = nullptr;

TEST_F(ColumnarDiffTest, KernelMatchesRowPathBitExactly) {
  FederatedQueryEngine rows = OneShard(row_store_, SingleThreaded(false));
  FederatedQueryEngine kernel = OneShard(mapped_store_, SingleThreaded(true));
  FederatedQueryEngine fallback =
      OneShard(mapped_store_, SingleThreaded(false));

  for (const DiffQuery& q : DiffQueries()) {
    auto want = rows.Execute(q.sql);
    ASSERT_TRUE(want.ok()) << q.sql << ": " << want.status().ToString();
    auto via_kernel = kernel.Execute(q.sql);
    ASSERT_TRUE(via_kernel.ok())
        << q.sql << ": " << via_kernel.status().ToString();
    auto via_fallback = fallback.Execute(q.sql);
    ASSERT_TRUE(via_fallback.ok())
        << q.sql << ": " << via_fallback.status().ToString();

    ExpectIdentical(*want, *via_kernel, q.mode, q.sql + " [kernel]");
    ExpectIdentical(*want, *via_fallback, q.mode, q.sql + " [fallback]");

    // The row store has no column views, so its engine never reports
    // columnar containers; the mapped store with the kernel on must
    // (except for tag scans and leaves the kernel declines).
    EXPECT_EQ(want->exec.containers_columnar, 0u) << q.sql;
    EXPECT_EQ(via_fallback->exec.containers_columnar, 0u) << q.sql;
    if (q.photo_scan) {
      EXPECT_GT(via_kernel->exec.containers_columnar, 0u) << q.sql;
    } else {
      EXPECT_EQ(via_kernel->exec.containers_columnar, 0u) << q.sql;
    }
  }
}

TEST_F(ColumnarDiffTest, RuntimeErrorsSurfaceIdentically) {
  // The kernel runs division leaves itself now, so its divide-by-zero
  // must surface with the row path's exact status -- whether the zero
  // divisor hits on the very first row or midway through a container's
  // chunked predicate loop.
  FederatedQueryEngine rows = OneShard(row_store_, SingleThreaded(false));
  FederatedQueryEngine kernel = OneShard(mapped_store_, SingleThreaded(true));
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
       }) {
    SCOPED_TRACE(sql);
    auto a = rows.Execute(sql);
    auto b = kernel.Execute(sql);
    ASSERT_FALSE(a.ok());
    ASSERT_FALSE(b.ok());
    EXPECT_EQ(a.status().code(), b.status().code());
    EXPECT_EQ(a.status().message(), b.status().message());
  }
}

TEST_F(ColumnarDiffTest, ParallelScansStillAgreeAsMultisets) {
  // Default thread count: delivery and accumulation order are free, so
  // compare order-free queries only (integer rows and COUNT).
  FederatedQueryEngine::Options opts;
  opts.planner.auto_tag_selection = false;
  FederatedQueryEngine rows = OneShard(row_store_, opts);
  FederatedQueryEngine kernel = OneShard(mapped_store_, opts);
  for (const char* sql :
       {"SELECT obj_id, r FROM photo WHERE CIRCLE('GAL', 120, 55, 10)",
        "SELECT obj_id FROM photo WHERE class = 'QSO'",
        "SELECT COUNT(*) FROM photo WHERE r < 21"}) {
    auto want = rows.Execute(sql);
    auto got = kernel.Execute(sql);
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
    EXPECT_GT(c.columnar.n, 0u) << "container " << raw;
    EXPECT_TRUE(c.objects.empty()) << "container " << raw;
  }
  // Mapped containers are immutable: mutation is refused whole.
  catalog::PhotoObj obj = row_store_->containers().begin()
                              ->second.rows()
                              .front();
  Status insert = mapped_store_->Insert(obj);
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

    // The mapped fleet: each server's store snapshotted and mmap'd,
    // serving the same assigned container set.
    std::vector<catalog::ObjectStore> mapped_stores;
    mapped_stores.reserve(row_shards->size());
    std::vector<Shard> mapped_shards;
    for (const Shard& s : *row_shards) {
      auto mapped = MapStore(
          *s.store, "fleet" + std::to_string(servers) + "_srv" +
                        std::to_string(s.server));
      ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
      mapped_stores.push_back(std::move(*mapped));
      Shard shard = s;
      shard.store = &mapped_stores.back();
      mapped_shards.push_back(std::move(shard));
    }

    FederatedQueryEngine::Options opts;
    opts.executor.scan_threads = 1;
    opts.planner.auto_tag_selection = false;
    FederatedQueryEngine row_fed(*row_shards, opts);
    FederatedQueryEngine mapped_fed(mapped_shards, opts);

    bool saw_columnar = false;
    for (const DiffQuery& q : DiffQueries()) {
      auto want = row_fed.Execute(q.sql);
      ASSERT_TRUE(want.ok()) << q.sql << ": " << want.status().ToString();
      auto got = mapped_fed.Execute(q.sql);
      ASSERT_TRUE(got.ok()) << q.sql << ": " << got.status().ToString();
      ExpectIdentical(*want, *got, q.mode, q.sql);
      saw_columnar |= got->exec.containers_columnar > 0;
      EXPECT_EQ(want->exec.containers_columnar, 0u) << q.sql;
    }
    // The kernel (and its stat) flows through the federated merge.
    EXPECT_TRUE(saw_columnar);
  }
  fs::remove_all(MapDir());
}

}  // namespace
}  // namespace sdss::query
