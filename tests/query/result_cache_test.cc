// ResultCache unit tests: fingerprint canonicalization, the never-cached
// list, exact replay + epoch invalidation, containment answers checked
// against brute-force engine runs, the memoized spatial test checked
// against freshly computed covers, the LRU candidate walk, byte-budget
// eviction, and concurrent probes, installs and epoch bumps.

#include "query/result_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/object_store.h"
#include "catalog/sky_generator.h"
#include "core/random.h"
#include "htm/cover.h"
#include "htm/range_set.h"
#include "query/expr.h"
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

  /// The scan leaf of a single-scan plan.
  static const PlanNode& ScanOf(const Plan& plan) {
    const PlanNode* n = plan.root.get();
    while (n->type != PlanNodeType::kScan) n = n->children[0].get();
    return *n;
  }

  /// The region of the one spatial conjunct of a single-scan plan.
  static htm::Region AtomRegionOf(const Plan& plan) {
    std::vector<Expr::Ptr> conjuncts;
    FlattenConjuncts(ScanOf(plan).predicate, &conjuncts);
    for (const Expr::Ptr& c : conjuncts) {
      if (c->kind() == Expr::Kind::kSpatial) return c->region();
    }
    ADD_FAILURE() << "plan has no spatial conjunct";
    return htm::Region();
  }

  /// "SELECT obj_id, r FROM photo WHERE CIRCLE('<frame>', ra, dec, rad)"
  /// with three decimals, so the atom's canonical key is exact.
  static std::string ConeSql(const char* frame, double ra, double dec,
                             double radius) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "SELECT obj_id, r FROM photo WHERE "
                  "CIRCLE('%s', %.3f, %.3f, %.3f)",
                  frame, ra, dec, radius);
    return buf;
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

TEST_F(ResultCacheTest, SpatialDecisionMatchesFreshTwoCoverTest) {
  // Each pair: one resident cone entry, one cone probe. The cache's
  // verdict (entry covers precomputed at install, one probe cover) must
  // equal the containment test computed from scratch: the probe's
  // FULL+PARTIAL leaves at level 8 inside the entry's FULL leaves.
  enum class Geometry {
    kNested,
    kInnerTangent,
    kOuterTangent,
    kStraddling,
    kDisjoint,
    kRandomFrames,
  };
  const char* const kFrames[] = {"J2000", "GAL"};
  Rng rng(7319);
  int served = 0, refused = 0, pairs = 0;
  for (int trial = 0; trial < 180; ++trial) {
    const auto geometry = static_cast<Geometry>(trial % 6);
    const char* frame = kFrames[rng.UniformInt(0, 1)];
    const double ra = rng.Uniform(0.0, 360.0);
    const double dec = rng.Uniform(-60.0, 60.0);
    // Nested pairs get room to spare: level-8 trixels are about a third
    // of a degree, so a snug fit is refused and would starve the test
    // of positive verdicts.
    const bool nested = geometry == Geometry::kNested;
    const double big = rng.Uniform(nested ? 1.2 : 0.3, 2.0);
    const double small = rng.Uniform(0.3, nested ? 0.6 : big);
    // The probe centre moves along the entry's meridian by `sep`
    // degrees, so the two cones are exactly that far apart.
    double sep = 0.0;
    switch (geometry) {
      case Geometry::kNested:
        sep = (big - small) * rng.Uniform(0.0, 0.6);
        break;
      case Geometry::kInnerTangent:
        sep = big - small;
        break;
      case Geometry::kOuterTangent:
        sep = big + small;
        break;
      case Geometry::kStraddling:
        sep = rng.Uniform(big - small, big + small);
        break;
      case Geometry::kDisjoint:
        sep = big + small + rng.Uniform(0.05, 2.0);
        break;
      case Geometry::kRandomFrames:
        sep = rng.Uniform(0.0, big + small);
        break;
    }
    const char* probe_frame = geometry == Geometry::kRandomFrames
                                  ? kFrames[rng.UniformInt(0, 1)]
                                  : frame;
    const std::string entry_sql = ConeSql(frame, ra, dec, big);
    const std::string probe_sql =
        ConeSql(probe_frame, ra, dec + sep, small);
    if (entry_sql == probe_sql) continue;  // Keyed replay, not geometry.
    SCOPED_TRACE(entry_sql + "  <-  " + probe_sql);

    const Plan entry = PlanFor(entry_sql);
    const Plan probe = PlanFor(probe_sql);
    const htm::RangeSet inner =
        htm::Cover(ScanOf(probe).region, 8).ToRangeSet();
    const htm::RangeSet outer =
        htm::Cover(AtomRegionOf(entry), 8).FullRangeSet();
    const bool expected = inner.DifferenceWith(outer).empty();

    ResultCache cache;
    cache.Install(ResultCache::Fingerprint(entry), entry, 1, {});
    const std::string fp = ResultCache::Fingerprint(probe);
    EXPECT_EQ(cache.WouldAnswer(fp, probe, 1), expected);
    ResultCache::Answer ans;
    EXPECT_EQ(cache.TryAnswer(fp, probe, 1, &ans), expected);
    ++pairs;
    (expected ? served : refused) += 1;
  }
  EXPECT_GT(pairs, 150);
  // Both verdicts were exercised.
  EXPECT_GT(served, 10);
  EXPECT_GT(refused, 10);
}

TEST_F(ResultCacheTest, MissWalksEveryResidentConeEntry) {
  // 128 resident 1-degree cone entries along the equator, none of which
  // contains the probe at dec 40: the miss must test every one of them.
  auto install_ring = [](ResultCache* cache) {
    for (int i = 0; i < 128; ++i) {
      const Plan entry = PlanFor(ConeSql("J2000", 2.5 * i, 0.0, 1.0));
      cache->Install(ResultCache::Fingerprint(entry), entry, 1, {});
    }
  };
  ResultCache::Options opt;
  opt.max_bytes = 64u << 20;
  ResultCache cache(opt);
  install_ring(&cache);
  const Plan probe = PlanFor(ConeSql("J2000", 100.0, 40.0, 0.5));
  const std::string fp = ResultCache::Fingerprint(probe);
  ResultCache::Answer ans;
  EXPECT_FALSE(cache.WouldAnswer(fp, probe, 1));
  EXPECT_FALSE(cache.TryAnswer(fp, probe, 1, &ans));
  ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 128u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.containment_hits, 0u);
  EXPECT_EQ(stats.evictions, 0u);

  // A serving entry installed before the 128 sits at the LRU tail: the
  // walk reaches it past every non-serving entry.
  ResultCache tail_cache(opt);
  const Plan wide = PlanFor(ConeSql("J2000", 100.0, 40.0, 2.0));
  tail_cache.Install(ResultCache::Fingerprint(wide), wide, 1, {});
  install_ring(&tail_cache);
  EXPECT_TRUE(tail_cache.WouldAnswer(fp, probe, 1));
  ASSERT_TRUE(tail_cache.TryAnswer(fp, probe, 1, &ans));
  EXPECT_TRUE(ans.containment);
}

TEST_F(ResultCacheTest, FirstServingEntryInLruOrderIsChosen) {
  // Two entries both contain the probe. Their rows are told apart by
  // obj_id: whichever is nearer the LRU front must answer.
  const std::string probe_sql =
      "SELECT obj_id, r FROM photo WHERE CIRCLE('GAL', 30, 70, 2)";
  auto run = engine_->Execute(probe_sql);
  ASSERT_TRUE(run.ok());
  ASSERT_FALSE(run->rows.empty());
  std::vector<ResultRow> older_rows = run->rows;
  std::vector<ResultRow> newer_rows = run->rows;
  for (ResultRow& r : newer_rows) r.obj_id += 1'000'000'000;

  const Plan older = PlanFor(
      "SELECT obj_id, r FROM photo WHERE CIRCLE('GAL', 30, 70, 6)");
  const Plan newer = PlanFor(
      "SELECT obj_id, r FROM photo WHERE CIRCLE('GAL', 30, 70, 5)");
  ResultCache cache;
  cache.Install(ResultCache::Fingerprint(older), older, 1, older_rows);
  cache.Install(ResultCache::Fingerprint(newer), newer, 1, newer_rows);

  const Plan probe = PlanFor(probe_sql);
  const std::string fp = ResultCache::Fingerprint(probe);
  ResultCache::Answer ans;
  ASSERT_TRUE(cache.TryAnswer(fp, probe, 1, &ans));
  EXPECT_TRUE(ans.containment);
  EXPECT_EQ(Normalize(ans.rows), Normalize(newer_rows));

  // An exact replay of the older entry moves it to the front; it then
  // answers the probe.
  ResultCache::Answer replay;
  ASSERT_TRUE(
      cache.TryAnswer(ResultCache::Fingerprint(older), older, 1, &replay));
  ASSERT_TRUE(cache.TryAnswer(fp, probe, 1, &ans));
  EXPECT_EQ(Normalize(ans.rows), Normalize(older_rows));
}

TEST_F(ResultCacheTest, ConcurrentProbesInstallsAndEpochBumps) {
  // Four threads mix exact and containment probes, admission probes,
  // installs and epoch bumps on one small cache. The store never
  // changes, so every answer served must equal the brute-force run,
  // whichever epoch it was installed under.
  const std::vector<std::string> entries = {
      "SELECT obj_id, u, g, r FROM photo WHERE CIRCLE('GAL', 30, 70, 10)",
      "SELECT obj_id, u, g, r FROM photo WHERE CIRCLE('GAL', 30, 70, 6)",
      "SELECT obj_id, r FROM photo WHERE CIRCLE('GAL', 31, 69, 4)",
  };
  const std::vector<std::string> probes = {
      "SELECT obj_id, r FROM photo WHERE CIRCLE('GAL', 30, 70, 3) "
      "AND r < 21",
      "SELECT obj_id, g, r FROM photo WHERE CIRCLE('GAL', 29, 70, 2)",
      "SELECT obj_id, r FROM photo WHERE CIRCLE('GAL', 31, 69, 4)",
  };
  struct Case {
    Plan plan;
    std::string fp;
    std::vector<ResultRow> rows;
    std::vector<RowKey> expected;
  };
  std::vector<Case> cases;
  for (const auto* list : {&entries, &probes}) {
    for (const std::string& sql : *list) {
      auto run = engine_->Execute(sql);
      ASSERT_TRUE(run.ok()) << sql;
      Case c{PlanFor(sql), "", run->rows, Normalize(run->rows)};
      c.fp = ResultCache::Fingerprint(c.plan);
      cases.push_back(std::move(c));
    }
  }
  size_t entry_bytes = 0;
  for (const ResultRow& r : cases[0].rows) {
    entry_bytes += ResultCache::ApproxRowBytes(r);
  }
  ResultCache::Options opt;
  opt.max_bytes = entry_bytes * 2;  // Room for about two wide entries.
  opt.max_entry_bytes = opt.max_bytes;
  ResultCache cache(opt);

  std::atomic<uint64_t> epoch{1};
  std::atomic<uint64_t> try_calls{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(500 + static_cast<uint64_t>(t));
      for (int i = 0; i < 150; ++i) {
        const Case& c = cases[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(cases.size()) - 1))];
        const int op = static_cast<int>(rng.UniformInt(0, 9));
        const uint64_t now = epoch.load();
        if (op < 4) {
          ResultCache::Answer ans;
          try_calls.fetch_add(1);
          if (cache.TryAnswer(c.fp, c.plan, now, &ans) &&
              Normalize(ans.rows) != c.expected) {
            wrong.fetch_add(1);
          }
        } else if (op < 6) {
          cache.WouldAnswer(c.fp, c.plan, now);
        } else if (op < 9) {
          cache.Install(c.fp, c.plan, now, c.rows);
        } else {
          epoch.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(wrong.load(), 0);
  ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.containment_hits + stats.misses,
            try_calls.load());
  EXPECT_LE(stats.bytes_used, opt.max_bytes);
  // The cache still works at the final epoch.
  const uint64_t last = epoch.load();
  cache.Install(cases[0].fp, cases[0].plan, last, cases[0].rows);
  ResultCache::Answer ans;
  ASSERT_TRUE(cache.TryAnswer(cases[3].fp, cases[3].plan, last, &ans));
  EXPECT_EQ(Normalize(ans.rows), cases[3].expected);
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
