// ResultCache unit tests: fingerprint canonicalization, the never-cached
// list, exact replay + epoch invalidation, containment answers checked
// against brute-force engine runs, and byte-budget eviction.

#include "query/result_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "catalog/object_store.h"
#include "catalog/sky_generator.h"
#include "query/federated_engine.h"
#include "query/parser.h"
#include "query/qet.h"

namespace sdss::query {
namespace {

class ResultCacheTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog::SkyModel m;
    m.seed = 4100;
    m.num_galaxies = 6000;
    m.num_stars = 5000;
    m.num_quasars = 150;
    store_ = new catalog::ObjectStore();
    ASSERT_TRUE(
        store_->BulkLoad(catalog::SkyGenerator(m).Generate()).ok());
    engine_ = new FederatedQueryEngine({Shard{0, store_, nullptr}});
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete store_;
    engine_ = nullptr;
    store_ = nullptr;
  }

  static Plan PlanFor(const std::string& sql) {
    auto parsed = Parse(sql);
    EXPECT_TRUE(parsed.ok()) << sql << ": " << parsed.status().ToString();
    auto plan = BuildPlan(*parsed, *store_);
    EXPECT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
    return std::move(*plan);
  }

  static std::string Fp(const std::string& sql) {
    return ResultCache::Fingerprint(PlanFor(sql));
  }

  static bool CacheableSql(const std::string& sql) {
    auto parsed = Parse(sql);
    EXPECT_TRUE(parsed.ok()) << sql << ": " << parsed.status().ToString();
    auto plan = BuildPlan(*parsed, *store_);
    EXPECT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
    return ResultCache::Cacheable(*parsed, *plan);
  }

  /// Runs `sql` on the ground-truth engine and installs its final rows.
  static void InstallFromRun(ResultCache* cache, const std::string& sql,
                             uint64_t epoch) {
    Plan plan = PlanFor(sql);
    auto run = engine_->Execute(sql);
    ASSERT_TRUE(run.ok()) << sql << ": " << run.status().ToString();
    cache->Install(ResultCache::Fingerprint(plan), plan, epoch,
                   std::move(run->rows));
  }

  using RowKey = std::pair<uint64_t, std::vector<double>>;
  static std::vector<RowKey> Normalize(const std::vector<ResultRow>& rows) {
    std::vector<RowKey> keys;
    keys.reserve(rows.size());
    for (const auto& r : rows) keys.emplace_back(r.obj_id, r.values);
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  inline static catalog::ObjectStore* store_ = nullptr;
  inline static FederatedQueryEngine* engine_ = nullptr;
};

TEST_F(ResultCacheTest, FingerprintCanonicalizesEquivalentPredicates) {
  // Commutative conjunct order.
  EXPECT_EQ(Fp("SELECT obj_id FROM photo WHERE r < 22 AND g > 19"),
            Fp("SELECT obj_id FROM photo WHERE g > 19 AND r < 22"));
  // Associativity: the AND spine is flattened before sorting.
  EXPECT_EQ(
      Fp("SELECT obj_id FROM photo WHERE r < 22 AND (g > 19 AND u < 23)"),
      Fp("SELECT obj_id FROM photo WHERE (u < 23 AND r < 22) AND g > 19"));
  // Comparison direction: "22 > r" is "r < 22".
  EXPECT_EQ(Fp("SELECT obj_id FROM photo WHERE r < 22"),
            Fp("SELECT obj_id FROM photo WHERE 22 > r"));
  // Symmetric comparison operand order.
  EXPECT_EQ(Fp("SELECT obj_id FROM photo WHERE r = g"),
            Fp("SELECT obj_id FROM photo WHERE g = r"));
  // Commutative arithmetic inside a comparison.
  EXPECT_EQ(Fp("SELECT obj_id FROM photo WHERE g + r < 40"),
            Fp("SELECT obj_id FROM photo WHERE r + g < 40"));

  // Distinct constants, projections, and ordering stay distinct.
  EXPECT_NE(Fp("SELECT obj_id FROM photo WHERE r < 22"),
            Fp("SELECT obj_id FROM photo WHERE r < 21"));
  EXPECT_NE(Fp("SELECT obj_id FROM photo WHERE r < 22"),
            Fp("SELECT obj_id, g FROM photo WHERE r < 22"));
  EXPECT_NE(Fp("SELECT obj_id, r FROM photo WHERE r < 22 ORDER BY r"),
            Fp("SELECT obj_id, r FROM photo WHERE r < 22 ORDER BY r DESC"));
  // Subtraction is NOT commutative.
  EXPECT_NE(Fp("SELECT obj_id FROM photo WHERE g - r < 1"),
            Fp("SELECT obj_id FROM photo WHERE r - g < 1"));
}

TEST_F(ResultCacheTest, CacheableRefusesTheUnsoundShapes) {
  EXPECT_TRUE(CacheableSql("SELECT obj_id, r FROM photo WHERE r < 21"));
  EXPECT_TRUE(CacheableSql(
      "SELECT obj_id, r FROM photo WHERE r < 21 ORDER BY r LIMIT 10"));
  EXPECT_TRUE(CacheableSql("SELECT COUNT(*) FROM photo WHERE r < 21"));

  // INTO: the workbench materializes; the bare select must not be
  // replayed as if it had been stored.
  EXPECT_FALSE(CacheableSql(
      "SELECT * INTO mydb.bright FROM photo WHERE r < 20"));
  // SAMPLE draws fresh rows each run.
  EXPECT_FALSE(CacheableSql(
      "SELECT obj_id FROM photo WHERE r < 21 ORDER BY r SAMPLE 0.5"));
  // LIMIT without ORDER keeps an arrival-order-dependent subset.
  EXPECT_FALSE(CacheableSql("SELECT obj_id FROM photo WHERE r < 21 LIMIT 5"));
  // Division can raise divide-by-zero: reordering and subset
  // re-filtering are both observable, so such queries never cache.
  EXPECT_FALSE(CacheableSql("SELECT obj_id FROM photo WHERE r / 2 < 10"));
  // Set operations inherit every branch's restrictions.
  EXPECT_FALSE(CacheableSql(
      "SELECT obj_id, r FROM photo WHERE r < 20 UNION "
      "SELECT obj_id, r FROM photo WHERE g / 2 < 10"));
}

TEST_F(ResultCacheTest, ExactReplayHitsAndEpochBumpInvalidates) {
  const std::string sql = "SELECT obj_id, r FROM photo WHERE r < 20.5";
  Plan plan = PlanFor(sql);
  const std::string fp = ResultCache::Fingerprint(plan);
  auto run = engine_->Execute(sql);
  ASSERT_TRUE(run.ok());
  ASSERT_FALSE(run->rows.empty());

  ResultCache cache;
  ResultCache::Answer ans;
  EXPECT_FALSE(cache.TryAnswer(fp, plan, 7, &ans));
  cache.Install(fp, plan, 7, run->rows);
  ASSERT_TRUE(cache.TryAnswer(fp, plan, 7, &ans));
  EXPECT_FALSE(ans.containment);
  ASSERT_EQ(ans.rows.size(), run->rows.size());
  for (size_t i = 0; i < ans.rows.size(); ++i) {
    EXPECT_EQ(ans.rows[i].obj_id, run->rows[i].obj_id);
    EXPECT_EQ(ans.rows[i].values, run->rows[i].values);
  }
  EXPECT_TRUE(cache.WouldAnswer(fp, plan, 7));
  EXPECT_FALSE(cache.WouldAnswer(fp, plan, 8));

  // An epoch bump makes the entry permanently stale: the lookup misses
  // AND reaps it.
  EXPECT_FALSE(cache.TryAnswer(fp, plan, 8, &ans));
  ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.epoch_invalidations, 1u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes_used, 0u);
}

TEST_F(ResultCacheTest, ContainmentMatchesBruteForceRuns) {
  // One wide entry: every attribute narrower probes will need, complete
  // row set of a 10-degree cone. All attributes are tag attributes, so
  // auto tag selection routes the entry AND the probes below to the tag
  // table -- containment only serves within one physical table.
  ResultCache cache;
  InstallFromRun(
      &cache,
      "SELECT obj_id, u, g, r FROM photo "
      "WHERE CIRCLE('GAL', 30, 70, 10)",
      /*epoch=*/1);

  const std::vector<std::string> contained = {
      // Narrower cone + photometric cut.
      "SELECT obj_id, r FROM photo WHERE CIRCLE('GAL', 30, 70, 5) "
      "AND r < 21",
      // Rectangle well inside the cone (same Galactic frame).
      "SELECT obj_id, g, r FROM photo WHERE RECT('GAL', 27, 33, 68, 72) "
      "AND g - r < 0.8",
      // Ordered + limited: re-sorted with the engine's total order.
      "SELECT obj_id, r FROM photo WHERE CIRCLE('GAL', 30, 70, 6) "
      "AND g < 22 ORDER BY r LIMIT 20",
      "SELECT obj_id, u FROM photo WHERE CIRCLE('GAL', 30, 70, 4) "
      "ORDER BY u DESC",
  };
  for (const std::string& sql : contained) {
    SCOPED_TRACE(sql);
    Plan plan = PlanFor(sql);
    ResultCache::Answer ans;
    ASSERT_TRUE(
        cache.TryAnswer(ResultCache::Fingerprint(plan), plan, 1, &ans));
    EXPECT_TRUE(ans.containment);
    auto brute = engine_->Execute(sql);
    ASSERT_TRUE(brute.ok());
    if (sql.find("ORDER BY") != std::string::npos) {
      ASSERT_EQ(ans.rows.size(), brute->rows.size());
      for (size_t i = 0; i < ans.rows.size(); ++i) {
        EXPECT_EQ(ans.rows[i].obj_id, brute->rows[i].obj_id) << "row " << i;
        EXPECT_EQ(ans.rows[i].values, brute->rows[i].values) << "row " << i;
      }
    } else {
      EXPECT_EQ(Normalize(ans.rows), Normalize(brute->rows));
    }
  }

  // COUNT/MIN/MAX recombine exactly from the filtered subset.
  const std::vector<std::string> aggregates = {
      "SELECT COUNT(*) FROM photo WHERE CIRCLE('GAL', 30, 70, 5)",
      "SELECT MIN(r) FROM photo WHERE CIRCLE('GAL', 30, 70, 6) AND g < 22",
      "SELECT MAX(u) FROM photo WHERE CIRCLE('GAL', 30, 70, 4)",
  };
  for (const std::string& sql : aggregates) {
    SCOPED_TRACE(sql);
    Plan plan = PlanFor(sql);
    ResultCache::Answer ans;
    ASSERT_TRUE(
        cache.TryAnswer(ResultCache::Fingerprint(plan), plan, 1, &ans));
    EXPECT_TRUE(ans.containment);
    ASSERT_EQ(ans.rows.size(), 1u);
    auto brute = engine_->Execute(sql);
    ASSERT_TRUE(brute.ok());
    EXPECT_TRUE(brute->is_aggregate);
    ASSERT_FALSE(ans.rows[0].values.empty());
    EXPECT_EQ(ans.rows[0].values[0], brute->aggregate_value);
  }

  // Refused: order-sensitive folds, regions not provably inside,
  // attributes the entry does not carry, and cross-table probes.
  const std::vector<std::string> refused = {
      "SELECT SUM(r) FROM photo WHERE CIRCLE('GAL', 30, 70, 5)",
      "SELECT AVG(r) FROM photo WHERE CIRCLE('GAL', 30, 70, 5)",
      "SELECT obj_id FROM photo WHERE CIRCLE('GAL', 200, -40, 5)",
      "SELECT obj_id, z FROM photo WHERE CIRCLE('GAL', 30, 70, 5)",
      // Superset (radius 12 > 10) must never be served by the entry.
      "SELECT obj_id, r FROM photo WHERE CIRCLE('GAL', 30, 70, 12)",
      // `dec` forces the photo table; the tag-table entry must refuse
      // (tag positions are float precision -- boundary membership can
      // differ from a real photo scan).
      "SELECT obj_id, dec FROM photo WHERE CIRCLE('GAL', 30, 70, 4)",
  };
  for (const std::string& sql : refused) {
    SCOPED_TRACE(sql);
    Plan plan = PlanFor(sql);
    ResultCache::Answer ans;
    EXPECT_FALSE(
        cache.TryAnswer(ResultCache::Fingerprint(plan), plan, 1, &ans));
  }
}

TEST_F(ResultCacheTest, PredicateSubsetContainmentWithoutSpatialAtom) {
  // Entry predicate "r < 21" is a conjunct of the probe's predicate:
  // containment needs no spatial reasoning at all.
  ResultCache cache;
  InstallFromRun(&cache,
                 "SELECT obj_id, g, r FROM photo WHERE r < 21",
                 /*epoch=*/3);
  const std::string sql =
      "SELECT obj_id, g FROM photo WHERE r < 21 AND g - r < 0.6";
  Plan plan = PlanFor(sql);
  ResultCache::Answer ans;
  ASSERT_TRUE(
      cache.TryAnswer(ResultCache::Fingerprint(plan), plan, 3, &ans));
  EXPECT_TRUE(ans.containment);
  auto brute = engine_->Execute(sql);
  ASSERT_TRUE(brute.ok());
  EXPECT_EQ(Normalize(ans.rows), Normalize(brute->rows));

  // The reverse direction (probe weaker than the entry) must refuse.
  Plan wider = PlanFor("SELECT obj_id, g FROM photo WHERE r < 21.5");
  EXPECT_FALSE(cache.TryAnswer(ResultCache::Fingerprint(wider), wider, 3,
                               &ans));
}

TEST_F(ResultCacheTest, EvictionRespectsTheByteBudget) {
  auto run = engine_->Execute("SELECT obj_id, r FROM photo WHERE r < 21");
  ASSERT_TRUE(run.ok());
  size_t row_bytes = 0;
  for (const auto& r : run->rows) {
    row_bytes += ResultCache::ApproxRowBytes(r);
  }
  ASSERT_GT(row_bytes, 0u);

  // Budget fits roughly three such entries; install six distinct ones.
  ResultCache::Options opt;
  opt.max_bytes = row_bytes * 3 + 4096;
  opt.max_entry_bytes = opt.max_bytes;  // Entries themselves always fit.
  ResultCache cache(opt);
  for (int i = 0; i < 6; ++i) {
    const std::string sql = "SELECT obj_id, r FROM photo WHERE r < 21 AND "
                            "g < " + std::to_string(30 + i);
    InstallFromRun(&cache, sql, /*epoch=*/1);
  }
  ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.installs, 6u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes_used, opt.max_bytes);
  EXPECT_LT(stats.entries, 6u);
  EXPECT_GT(stats.entries, 0u);

  // The most recently installed entry survived the pressure.
  Plan last = PlanFor("SELECT obj_id, r FROM photo WHERE r < 21 AND g < 35");
  EXPECT_TRUE(cache.WouldAnswer(ResultCache::Fingerprint(last), last, 1));
}

TEST_F(ResultCacheTest, OversizedEntriesAreNeverAdmitted) {
  ResultCache::Options opt;
  opt.max_bytes = 1 << 20;
  opt.max_entry_bytes = 256;  // Smaller than any real result.
  ResultCache cache(opt);
  InstallFromRun(&cache, "SELECT obj_id, r FROM photo WHERE r < 21",
                 /*epoch=*/1);
  ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes_used, 0u);
}

}  // namespace
}  // namespace sdss::query
