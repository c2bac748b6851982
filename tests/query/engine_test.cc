// End-to-end query engine tests: parse -> plan -> execute against a
// generated sky, validated against brute-force evaluation.

#include "query/federated_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "catalog/sky_generator.h"
#include "core/coords.h"

namespace sdss::query {
namespace {

using catalog::ObjClass;
using catalog::ObjectStore;
using catalog::PhotoObj;
using catalog::SkyGenerator;
using catalog::SkyModel;

class EngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SkyModel m;
    m.seed = 11;
    m.num_galaxies = 8000;
    m.num_stars = 6000;
    m.num_quasars = 200;
    objects_ = new std::vector<PhotoObj>(SkyGenerator(m).Generate());
    store_ = new ObjectStore();
    ASSERT_TRUE(store_->BulkLoad(*objects_).ok());
  }
  static void TearDownTestSuite() {
    delete store_;
    delete objects_;
    store_ = nullptr;
    objects_ = nullptr;
  }

  static FederatedQueryEngine Engine(
      FederatedQueryEngine::Options options = {}) {
    return FederatedQueryEngine({Shard{0, store_, nullptr}}, options);
  }

  static std::set<uint64_t> BruteForce(
      const std::function<bool(const PhotoObj&)>& pred) {
    std::set<uint64_t> out;
    for (const auto& o : *objects_) {
      if (pred(o)) out.insert(o.obj_id);
    }
    return out;
  }

  static std::set<uint64_t> Ids(const QueryResult& r) {
    std::set<uint64_t> out;
    for (const auto& row : r.rows) out.insert(row.obj_id);
    return out;
  }

  static std::vector<PhotoObj>* objects_;
  static ObjectStore* store_;
};

std::vector<PhotoObj>* EngineTest::objects_ = nullptr;
ObjectStore* EngineTest::store_ = nullptr;

TEST_F(EngineTest, CountStarMatchesCatalog) {
  auto r = Engine().Execute("SELECT COUNT(*) FROM photo");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->is_aggregate);
  EXPECT_DOUBLE_EQ(r->aggregate_value,
                   static_cast<double>(objects_->size()));
}

TEST_F(EngineTest, MagnitudeCutMatchesBruteForce) {
  auto r = Engine().Execute("SELECT obj_id FROM photo WHERE r < 18");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Ids(*r),
            BruteForce([](const PhotoObj& o) { return o.mag[2] < 18.0f; }));
}

TEST_F(EngineTest, ColorCutMatchesBruteForce) {
  auto r = Engine().Execute(
      "SELECT obj_id FROM photo WHERE u - g < 0.2 AND class = 'QSO'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Ids(*r), BruteForce([](const PhotoObj& o) {
              return (o.mag[0] - o.mag[1]) < 0.2f &&
                     o.obj_class == ObjClass::kQuasar;
            }));
  EXPECT_FALSE(r->rows.empty());
}

TEST_F(EngineTest, SpatialConeMatchesBruteForce) {
  // Center the cone on the footprint.
  SphericalCoord eq = ToSpherical(
      EquatorialUnitVector({0.0, 90.0, Frame::kGalactic}),
      Frame::kEquatorial);
  char sql[160];
  std::snprintf(sql, sizeof(sql),
                "SELECT obj_id FROM photo WHERE CIRCLE(%.6f, %.6f, 5.0)",
                eq.lon_deg, eq.lat_deg);
  auto r = Engine().Execute(sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  htm::Region region = htm::Region::Circle(eq.lon_deg, eq.lat_deg, 5.0);
  EXPECT_EQ(Ids(*r), BruteForce([&](const PhotoObj& o) {
              return region.Contains(o.pos);
            }));
  EXPECT_TRUE(r->used_spatial_index);
  // The pruned scan must not touch every container.
  EXPECT_LT(r->exec.containers_scanned, store_->container_count());
}

TEST_F(EngineTest, GalacticBandQuery) {
  auto r = Engine().Execute(
      "SELECT obj_id FROM photo WHERE BAND('GAL', 40, 50)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  htm::Region band = htm::Region::LatBand(40, 50, Frame::kGalactic);
  EXPECT_EQ(Ids(*r), BruteForce([&](const PhotoObj& o) {
              return band.Contains(o.pos);
            }));
  EXPECT_FALSE(r->rows.empty());
}

TEST_F(EngineTest, TagStoreAutoSelected) {
  auto r = Engine().Execute("SELECT obj_id, r FROM photo WHERE r < 17");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->used_tag_store);  // r and obj_id live in the tag.
  auto r2 = Engine().Execute(
      "SELECT obj_id, redshift FROM photo WHERE redshift > 1");
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2->used_tag_store);  // redshift is full-object only.
}

TEST_F(EngineTest, TagAndFullStoresAgree) {
  FederatedQueryEngine eng = Engine();
  auto via_tag = eng.Execute("SELECT obj_id FROM tag WHERE r < 18");
  FederatedQueryEngine::Options opt;
  opt.planner.auto_tag_selection = false;
  FederatedQueryEngine full_engine = Engine(opt);
  auto via_full = full_engine.Execute(
      "SELECT obj_id FROM photo WHERE r < 18");
  ASSERT_TRUE(via_tag.ok() && via_full.ok());
  EXPECT_FALSE(via_tag->used_tag_store && via_full->used_tag_store);
  EXPECT_EQ(Ids(*via_tag), Ids(*via_full));
}

TEST_F(EngineTest, OrderByReturnsSortedRows) {
  auto r = Engine().Execute(
      "SELECT obj_id, r FROM photo WHERE r < 16.5 ORDER BY r");
  ASSERT_TRUE(r.ok());
  ASSERT_GT(r->rows.size(), 1u);
  size_t r_col = 1;
  for (size_t i = 1; i < r->rows.size(); ++i) {
    EXPECT_LE(r->rows[i - 1].values[r_col], r->rows[i].values[r_col]);
  }
}

TEST_F(EngineTest, OrderByDescLimit) {
  auto r = Engine().Execute(
      "SELECT obj_id, r FROM photo ORDER BY r DESC LIMIT 10");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 10u);
  // These are the 10 faintest objects.
  std::vector<float> mags;
  for (const auto& o : *objects_) mags.push_back(o.mag[2]);
  std::sort(mags.begin(), mags.end(), std::greater<>());
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(r->rows[i].values[1], mags[i], 1e-5);
  }
}

TEST_F(EngineTest, OrderByHiddenColumnAppended) {
  auto r = Engine().Execute("SELECT obj_id FROM photo ORDER BY r LIMIT 5");
  ASSERT_TRUE(r.ok());
  // The sort key was appended as a hidden trailing column.
  ASSERT_EQ(r->columns.size(), 2u);
  EXPECT_EQ(r->columns[1], "r");
}

TEST_F(EngineTest, LimitStopsEarly) {
  auto r = Engine().Execute("SELECT obj_id FROM photo LIMIT 100");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 100u);
}

TEST_F(EngineTest, SampleReturnsApproximateFraction) {
  auto r = Engine().Execute("SELECT obj_id FROM photo SAMPLE 0.1");
  ASSERT_TRUE(r.ok());
  double frac = static_cast<double>(r->rows.size()) /
                static_cast<double>(objects_->size());
  EXPECT_NEAR(frac, 0.1, 0.02);
}

TEST_F(EngineTest, UnionDeduplicates) {
  auto r = Engine().Execute(
      "SELECT obj_id FROM photo WHERE r < 18 "
      "UNION SELECT obj_id FROM photo WHERE r < 17");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto expected =
      BruteForce([](const PhotoObj& o) { return o.mag[2] < 18.0f; });
  EXPECT_EQ(Ids(*r), expected);
  EXPECT_EQ(r->rows.size(), expected.size());  // No duplicates.
}

TEST_F(EngineTest, IntersectMatchesAnd) {
  auto via_set = Engine().Execute(
      "SELECT obj_id FROM photo WHERE r < 18 "
      "INTERSECT SELECT obj_id FROM photo WHERE g - r > 0.8");
  auto via_and = Engine().Execute(
      "SELECT obj_id FROM photo WHERE r < 18 AND g - r > 0.8");
  ASSERT_TRUE(via_set.ok() && via_and.ok());
  EXPECT_EQ(Ids(*via_set), Ids(*via_and));
}

TEST_F(EngineTest, ExceptMatchesAndNot) {
  auto via_set = Engine().Execute(
      "SELECT obj_id FROM photo WHERE r < 18 "
      "EXCEPT SELECT obj_id FROM photo WHERE class = 'STAR'");
  auto via_and = Engine().Execute(
      "SELECT obj_id FROM photo WHERE r < 18 AND NOT class = 'STAR'");
  ASSERT_TRUE(via_set.ok() && via_and.ok());
  EXPECT_EQ(Ids(*via_set), Ids(*via_and));
}

TEST_F(EngineTest, AggregatesMatchBruteForce) {
  auto avg = Engine().Execute("SELECT AVG(r) FROM photo WHERE r < 20");
  auto mn = Engine().Execute("SELECT MIN(r) FROM photo");
  auto mx = Engine().Execute("SELECT MAX(r) FROM photo");
  ASSERT_TRUE(avg.ok() && mn.ok() && mx.ok());
  double sum = 0;
  uint64_t n = 0;
  float true_min = 1e9, true_max = -1e9;
  for (const auto& o : *objects_) {
    true_min = std::min(true_min, o.mag[2]);
    true_max = std::max(true_max, o.mag[2]);
    if (o.mag[2] < 20.0f) {
      sum += o.mag[2];
      ++n;
    }
  }
  EXPECT_NEAR(avg->aggregate_value, sum / static_cast<double>(n), 1e-6);
  EXPECT_NEAR(mn->aggregate_value, true_min, 1e-6);
  EXPECT_NEAR(mx->aggregate_value, true_max, 1e-6);
}

TEST_F(EngineTest, PredictionBoundsActualForSpatialQuery) {
  SphericalCoord eq = ToSpherical(
      EquatorialUnitVector({0.0, 90.0, Frame::kGalactic}),
      Frame::kEquatorial);
  char sql[160];
  std::snprintf(sql, sizeof(sql),
                "SELECT obj_id FROM photo WHERE CIRCLE(%.6f, %.6f, 8.0)",
                eq.lon_deg, eq.lat_deg);
  auto r = Engine().Execute(sql);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->prediction.min_objects, r->rows.size());
  EXPECT_GE(r->prediction.max_objects, r->rows.size());
}

TEST_F(EngineTest, StreamingDeliversBeforeCompletion) {
  FederatedQueryEngine eng = Engine();
  size_t batches = 0;
  uint64_t rows = 0;
  auto stats = eng.ExecuteStreaming(
      "SELECT obj_id FROM photo WHERE r < 21",
      [&](const RowBatch& batch) {
        ++batches;
        rows += batch.size();
        return true;
      });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rows_emitted, rows);
  EXPECT_GT(batches, 1u);  // Data arrived incrementally, not all at once.
  EXPECT_LE(stats->seconds_to_first_row, stats->seconds_total);
}

TEST_F(EngineTest, StreamingCancellation) {
  FederatedQueryEngine eng = Engine();
  uint64_t rows = 0;
  auto stats = eng.ExecuteStreaming("SELECT obj_id FROM photo",
                                    [&](const RowBatch& batch) {
                                      rows += batch.size();
                                      return rows < 500;  // Stop early.
                                    });
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->cancelled_early);
  EXPECT_LT(stats->objects_examined, objects_->size());
}

TEST_F(EngineTest, ExplainDescribesPlan) {
  auto text = Engine().Explain(
      "SELECT obj_id FROM photo WHERE CIRCLE(180, 40, 2) AND r < 20 "
      "ORDER BY r LIMIT 5");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("LIMIT"), std::string::npos);
  EXPECT_NE(text->find("SORT"), std::string::npos);
  EXPECT_NE(text->find("SCAN"), std::string::npos);
  EXPECT_NE(text->find("spatially pruned"), std::string::npos);
  EXPECT_NE(text->find("prediction"), std::string::npos);
}

TEST_F(EngineTest, UnknownAttributeFailsAtPlanTime) {
  auto r = Engine().Execute("SELECT bogus FROM photo");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  auto r2 = Engine().Execute("SELECT redshift FROM tag");
  EXPECT_FALSE(r2.ok());
}

TEST_F(EngineTest, DisablingIndexStillGivesExactResults) {
  FederatedQueryEngine::Options opt;
  opt.planner.use_spatial_index = false;
  FederatedQueryEngine eng = Engine(opt);
  auto no_index = eng.Execute(
      "SELECT obj_id FROM photo WHERE CIRCLE(180, 40, 5)");
  auto with_index = Engine().Execute(
      "SELECT obj_id FROM photo WHERE CIRCLE(180, 40, 5)");
  ASSERT_TRUE(no_index.ok() && with_index.ok());
  EXPECT_EQ(Ids(*no_index), Ids(*with_index));
  EXPECT_FALSE(no_index->used_spatial_index);
  EXPECT_GE(no_index->exec.objects_examined,
            with_index->exec.objects_examined);
}

TEST_F(EngineTest, NegatedSpatialPredicateIsExact) {
  // NOT of a spatial atom defeats the cover extraction (no sound bound),
  // but per-object evaluation keeps the answer exact.
  auto r = Engine().Execute(
      "SELECT obj_id FROM photo WHERE NOT CIRCLE(180, 40, 30) AND r < 17");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  htm::Region circle = htm::Region::Circle(180, 40, 30);
  EXPECT_EQ(Ids(*r), BruteForce([&](const PhotoObj& o) {
              return !circle.Contains(o.pos) && o.mag[2] < 17.0f;
            }));
  EXPECT_FALSE(r->used_spatial_index);
}

TEST_F(EngineTest, OrMixingSpatialAndAttributeIsExact) {
  auto r = Engine().Execute(
      "SELECT obj_id FROM photo WHERE CIRCLE(180, 40, 3) OR r < 15.5");
  ASSERT_TRUE(r.ok());
  htm::Region circle = htm::Region::Circle(180, 40, 3);
  EXPECT_EQ(Ids(*r), BruteForce([&](const PhotoObj& o) {
              return circle.Contains(o.pos) || o.mag[2] < 15.5f;
            }));
  EXPECT_FALSE(r->used_spatial_index);  // OR branch is unbounded.
}

TEST_F(EngineTest, TwoCircleUnionUsesIndex) {
  auto r = Engine().Execute(
      "SELECT obj_id FROM photo WHERE CIRCLE(180, 40, 3) OR "
      "CIRCLE(200, 50, 3)");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->used_spatial_index);  // Both branches bounded: union.
  htm::Region u = htm::Region::Circle(180, 40, 3)
                      .UnionWith(htm::Region::Circle(200, 50, 3));
  EXPECT_EQ(Ids(*r), BruteForce([&](const PhotoObj& o) {
              return u.Contains(o.pos);
            }));
}

TEST_F(EngineTest, PaperQuasarQuery) {
  // The paper's example: "find all the quasars brighter than r=22" (the
  // faint-blue-neighbor join half runs on the hash machine).
  auto r = Engine().Execute(
      "SELECT obj_id, ra, dec, r FROM photo WHERE class = 'QSO' AND r < "
      "22");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Ids(*r), BruteForce([](const PhotoObj& o) {
              return o.obj_class == ObjClass::kQuasar && o.mag[2] < 22.0f;
            }));
}

}  // namespace
}  // namespace sdss::query
