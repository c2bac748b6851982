// The neighbor join end to end on one store: JOIN ... WITHIN parsing,
// kPairJoin planning (bucket level, WHERE splitting, Explain), and
// executor results against an independent brute-force evaluation of the
// same SQL semantics.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "catalog/sky_generator.h"
#include "core/angle.h"
#include "core/coords.h"
#include "core/random.h"
#include "query/federated_engine.h"

namespace sdss::query {
namespace {

using catalog::ObjClass;
using catalog::ObjectStore;
using catalog::PhotoObj;
using catalog::SkyGenerator;
using catalog::SkyModel;

// A dense clustered patch salted with planted QSO + faint-blue-galaxy
// neighbors, so both symmetric and asymmetric joins find real pairs.
std::vector<PhotoObj> MakeSkyObjects(uint64_t seed) {
  SkyModel m;
  m.seed = seed;
  m.num_galaxies = 900;
  m.num_stars = 300;
  m.num_quasars = 120;
  m.num_clusters = 8;
  m.cluster_fraction = 0.6;
  m.cluster_radius_deg = 0.05;
  std::vector<PhotoObj> objs = SkyGenerator(m).Generate();
  Rng rng(seed * 7 + 1);
  uint64_t next_id = 90'000'000;
  std::vector<PhotoObj> extra;
  for (const PhotoObj& o : objs) {
    if (o.obj_class != ObjClass::kQuasar) continue;
    if (!rng.Bernoulli(0.3)) continue;
    PhotoObj g = o;
    g.obj_id = next_id++;
    g.obj_class = ObjClass::kGalaxy;
    g.pos = rng.UnitCap(o.pos, ArcsecToRad(4.0)).Normalized();
    SphericalFromUnitVector(g.pos, &g.ra_deg, &g.dec_deg);
    g.mag[2] = static_cast<float>(rng.Uniform(20.6, 23.0));
    g.mag[1] = g.mag[2] + 0.2f;
    extra.push_back(g);
  }
  objs.insert(objs.end(), extra.begin(), extra.end());
  return objs;
}

using PairSet = std::set<std::pair<uint64_t, uint64_t>>;

PairSet ResultPairs(const QueryResult& r) {
  PairSet pairs;
  EXPECT_GE(r.columns.size(), 2u);
  for (const auto& row : r.rows) {
    uint64_t a = static_cast<uint64_t>(row.values[0]);
    uint64_t b = static_cast<uint64_t>(row.values[1]);
    EXPECT_TRUE(pairs.emplace(std::min(a, b), std::max(a, b)).second)
        << "duplicate pair " << a << ", " << b;
  }
  return pairs;
}

// Unordered brute force under the either-assignment semantics: {x, y}
// qualifies when both pass `select` and W holds under some role
// assignment.
template <typename SelectFn, typename RoleFn>
PairSet BrutePairs(const std::vector<PhotoObj>& objs, double sep_arcsec,
                   const SelectFn& select, const RoleFn& w) {
  double cos_sep = std::cos(ArcsecToRad(sep_arcsec));
  PairSet pairs;
  for (size_t i = 0; i < objs.size(); ++i) {
    if (!select(objs[i])) continue;
    for (size_t j = i + 1; j < objs.size(); ++j) {
      if (!select(objs[j])) continue;
      if (objs[i].pos.Dot(objs[j].pos) < cos_sep) continue;
      if (!w(objs[i], objs[j]) && !w(objs[j], objs[i])) continue;
      pairs.emplace(std::min(objs[i].obj_id, objs[j].obj_id),
                    std::max(objs[i].obj_id, objs[j].obj_id));
    }
  }
  return pairs;
}

class PairJoinTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    objs_ = new std::vector<PhotoObj>(MakeSkyObjects(4242));
    store_ = new ObjectStore();
    ASSERT_TRUE(store_->BulkLoad(*objs_).ok());
  }
  static void TearDownTestSuite() {
    delete store_;
    delete objs_;
    store_ = nullptr;
    objs_ = nullptr;
  }

  static std::vector<PhotoObj>* objs_;
  static ObjectStore* store_;
};

std::vector<PhotoObj>* PairJoinTest::objs_ = nullptr;
ObjectStore* PairJoinTest::store_ = nullptr;

TEST_F(PairJoinTest, ParsesJoinClause) {
  auto q = Parse(
      "SELECT x.obj_id, y.obj_id FROM photo AS x JOIN photoobj AS y "
      "WITHIN 2 ARCMIN WHERE x.r < 20");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_TRUE(q->first.join.present);
  EXPECT_EQ(q->first.join.alias_a, "x");
  EXPECT_EQ(q->first.join.alias_b, "y");
  EXPECT_DOUBLE_EQ(q->first.join.max_sep_arcsec, 120.0);

  // Default left alias, DEG unit, the ISSUE's spelling.
  auto deg = Parse(
      "SELECT a.obj_id, b.obj_id FROM photoobj JOIN photoobj AS b "
      "WITHIN 0.5 DEG");
  ASSERT_TRUE(deg.ok()) << deg.status().ToString();
  EXPECT_EQ(deg->first.join.alias_a, "a");
  EXPECT_DOUBLE_EQ(deg->first.join.max_sep_arcsec, 1800.0);
}

TEST_F(PairJoinTest, RejectsMalformedJoins) {
  EXPECT_FALSE(Parse("SELECT * FROM tag JOIN photo AS b WITHIN 2 ARCSEC")
                   .ok());
  EXPECT_FALSE(Parse("SELECT * FROM photo JOIN tag AS b WITHIN 2 ARCSEC")
                   .ok());
  EXPECT_FALSE(
      Parse("SELECT * FROM photo AS a JOIN photo AS a WITHIN 2 ARCSEC")
          .ok());
  EXPECT_FALSE(
      Parse("SELECT * FROM photo JOIN photo AS b WITHIN 0 ARCSEC").ok());
  EXPECT_FALSE(
      Parse("SELECT * FROM photo JOIN photo AS b WITHIN 2 PARSEC").ok());
}

TEST_F(PairJoinTest, PlannerRejectsUnsupportedShapes) {
  auto plan_of = [&](const std::string& sql) {
    auto parsed = Parse(sql);
    EXPECT_TRUE(parsed.ok()) << sql;
    return BuildPlan(*parsed, *store_);
  };
  // SAMPLE with JOIN.
  EXPECT_FALSE(plan_of("SELECT COUNT(*) FROM photo JOIN photo AS b "
                       "WITHIN 2 ARCSEC SAMPLE 0.5")
                   .ok());
  // JOIN inside a set operation.
  EXPECT_FALSE(plan_of("SELECT a.obj_id FROM photo AS a JOIN photo AS b "
                       "WITHIN 2 ARCSEC UNION SELECT obj_id FROM photo")
                   .ok());
  // Unknown alias and unknown attribute.
  EXPECT_FALSE(plan_of("SELECT c.obj_id FROM photo AS a JOIN photo AS b "
                       "WITHIN 2 ARCSEC")
                   .ok());
  EXPECT_FALSE(plan_of("SELECT a.bogus FROM photo AS a JOIN photo AS b "
                       "WITHIN 2 ARCSEC")
                   .ok());
  // A pair conjunct mixing qualified and bare attributes is ambiguous.
  EXPECT_FALSE(plan_of("SELECT a.obj_id FROM photo AS a JOIN photo AS b "
                       "WITHIN 2 ARCSEC WHERE a.r - g < 1")
                   .ok());
}

TEST_F(PairJoinTest, PlanShapeAndExplain) {
  auto parsed = Parse(
      "SELECT a.obj_id, b.obj_id, sep FROM photo AS a JOIN photo AS b "
      "WITHIN 10 ARCSEC WHERE r < 22 AND a.g - b.g < 0.1 AND "
      "b.g - a.g < 0.1 ORDER BY sep LIMIT 20");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto plan = BuildPlan(*parsed, *store_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  // LIMIT -> SORT -> PAIR_JOIN chain; the join leaf carries the planner
  // bucket level and the split predicates.
  const PlanNode* n = plan->root.get();
  ASSERT_EQ(n->type, PlanNodeType::kLimit);
  n = n->children[0].get();
  ASSERT_EQ(n->type, PlanNodeType::kSort);
  n = n->children[0].get();
  ASSERT_EQ(n->type, PlanNodeType::kPairJoin);
  EXPECT_DOUBLE_EQ(n->pair_max_sep_arcsec, 10.0);
  EXPECT_GE(n->pair_bucket_level, 9);
  EXPECT_LE(n->pair_bucket_level, 12);
  ASSERT_NE(n->pair_select, nullptr);   // The unqualified r < 22.
  ASSERT_NE(n->pair_where, nullptr);    // The color-similarity conjuncts.

  std::string explain = plan->Explain();
  EXPECT_NE(explain.find("PAIR_JOIN"), std::string::npos) << explain;
  EXPECT_NE(explain.find("within 10 arcsec"), std::string::npos) << explain;
  EXPECT_NE(explain.find("buckets level"), std::string::npos) << explain;
}

TEST_F(PairJoinTest, LensQueryMatchesBruteForce) {
  // C9 (c): objects within the radius with near-identical g-r color.
  FederatedQueryEngine engine({Shard{0, store_, nullptr}});
  auto result = engine.Execute(
      "SELECT a.obj_id, b.obj_id, sep FROM photo AS a JOIN photo AS b "
      "WITHIN 30 ARCSEC WHERE a.g - a.r - b.g + b.r < 0.05 AND "
      "b.g - b.r - a.g + a.r < 0.05");
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  PairSet expect = BrutePairs(
      *objs_, 30.0, [](const PhotoObj&) { return true; },
      [](const PhotoObj& a, const PhotoObj& b) {
        // Mirrors the SQL's left-associative double arithmetic exactly.
        double ag = a.mag[1], ar = a.mag[2], bg = b.mag[1], br = b.mag[2];
        return ((ag - ar) - bg) + br < 0.05 &&
               ((bg - br) - ag) + ar < 0.05;
      });
  EXPECT_GT(expect.size(), 0u) << "sky produced no lens pairs";
  EXPECT_EQ(ResultPairs(*result), expect);
}

TEST_F(PairJoinTest, AsymmetricRolesBindTheSatisfyingAssignment) {
  // C9 (b): quasars brighter than r=22 with a faint blue galaxy within
  // 5 arcsec. The a role must come out bound to the quasar.
  FederatedQueryEngine engine({Shard{0, store_, nullptr}});
  auto result = engine.Execute(
      "SELECT a.obj_id, b.obj_id, a.class, b.class FROM photo AS a "
      "JOIN photo AS b WITHIN 5 ARCSEC "
      "WHERE a.class = 'QSO' AND a.r < 22 AND "
      "b.class = 'GALAXY' AND b.r > 20.5 AND b.g - b.r < 0.5");
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto is_qso = [](const PhotoObj& o) {
    return o.obj_class == ObjClass::kQuasar && o.mag[2] < 22.0f;
  };
  auto is_fbg = [](const PhotoObj& o) {
    return o.obj_class == ObjClass::kGalaxy &&
           static_cast<double>(o.mag[2]) > 20.5 &&
           static_cast<double>(o.mag[1]) - static_cast<double>(o.mag[2]) <
               0.5;
  };
  PairSet expect = BrutePairs(
      *objs_, 5.0,
      [&](const PhotoObj& o) { return is_qso(o) || is_fbg(o); },
      [&](const PhotoObj& a, const PhotoObj& b) {
        return is_qso(a) && is_fbg(b);
      });
  EXPECT_GT(expect.size(), 0u) << "sky produced no planted neighbors";
  EXPECT_EQ(ResultPairs(*result), expect);
  for (const auto& row : result->rows) {
    EXPECT_EQ(row.values[2],
              static_cast<double>(ObjClass::kQuasar))
        << "a role not bound to the quasar";
    EXPECT_EQ(row.values[3],
              static_cast<double>(ObjClass::kGalaxy));
  }
}

TEST_F(PairJoinTest, OrderBySepLimitIsSortedAndCapped) {
  FederatedQueryEngine engine({Shard{0, store_, nullptr}});
  auto result = engine.Execute(
      "SELECT a.obj_id, b.obj_id, sep FROM photo AS a JOIN photo AS b "
      "WITHIN 60 ARCSEC ORDER BY sep LIMIT 15");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_LE(result->rows.size(), 15u);
  for (size_t i = 1; i < result->rows.size(); ++i) {
    EXPECT_LE(result->rows[i - 1].values[2], result->rows[i].values[2]);
  }
}

TEST_F(PairJoinTest, CountAggregateOverJoin) {
  FederatedQueryEngine engine({Shard{0, store_, nullptr}});
  auto count = engine.Execute(
      "SELECT COUNT(*) FROM photo AS a JOIN photo AS b WITHIN 30 ARCSEC");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  ASSERT_TRUE(count->is_aggregate);

  PairSet expect = BrutePairs(
      *objs_, 30.0, [](const PhotoObj&) { return true; },
      [](const PhotoObj&, const PhotoObj&) { return true; });
  EXPECT_EQ(static_cast<uint64_t>(count->aggregate_value), expect.size());
}

TEST_F(PairJoinTest, SpatialConjunctPrunesTheJoinScan) {
  // An unqualified CIRCLE filters every candidate, so the planner can
  // prune the join's container scan with its cover -- the paper's full
  // quasar query shape.
  const std::string sql =
      "SELECT a.obj_id, b.obj_id FROM photo AS a JOIN photo AS b "
      "WITHIN 60 ARCSEC WHERE CIRCLE('GAL', 30, 70, 25)";
  auto parsed = Parse(sql);
  ASSERT_TRUE(parsed.ok());
  auto plan = BuildPlan(*parsed, *store_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan->root->has_region);
  EXPECT_TRUE(plan->used_spatial_index);
  EXPECT_NE(plan->Explain().find("[spatially pruned]"), std::string::npos);

  FederatedQueryEngine engine({Shard{0, store_, nullptr}});
  auto result = engine.Execute(sql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LT(result->exec.containers_scanned, store_->container_count())
      << "join scan was not pruned";

  htm::Region circle = htm::Region::Circle(30, 70, 25, Frame::kGalactic);
  PairSet expect = BrutePairs(
      *objs_, 60.0,
      [&circle](const PhotoObj& o) { return circle.Contains(o.pos); },
      [](const PhotoObj&, const PhotoObj&) { return true; });
  EXPECT_GT(expect.size(), 0u) << "no pairs inside the circle";
  EXPECT_EQ(ResultPairs(*result), expect);
}

TEST_F(PairJoinTest, DefaultProjectionIsIdsAndSeparation) {
  FederatedQueryEngine engine({Shard{0, store_, nullptr}});
  auto result = engine.Execute(
      "SELECT * FROM photo AS a JOIN photo AS b WITHIN 10 ARCSEC");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->columns.size(), 3u);
  EXPECT_EQ(result->columns[0], "a.obj_id");
  EXPECT_EQ(result->columns[1], "b.obj_id");
  EXPECT_EQ(result->columns[2], "sep");
  for (const auto& row : result->rows) {
    EXPECT_EQ(static_cast<uint64_t>(row.values[0]), row.obj_id);
    EXPECT_EQ(static_cast<uint64_t>(row.values[1]), row.obj_id_b);
    EXPECT_LE(row.values[2], 10.0);
  }
}

}  // namespace
}  // namespace sdss::query
