// Property sweeps: for randomized magnitude/color/spatial predicates, the
// engine's answer must equal brute-force evaluation over the catalog, for
// every combination of (tag vs full store) x (index on/off).

#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "catalog/sky_generator.h"
#include "core/random.h"
#include "query/federated_engine.h"

namespace sdss::query {
namespace {

using catalog::ObjectStore;
using catalog::PhotoObj;
using catalog::SkyGenerator;
using catalog::SkyModel;

struct Config {
  bool auto_tag;
  bool use_index;
};

class QueryPropertyTest : public ::testing::TestWithParam<Config> {
 protected:
  static void SetUpTestSuite() {
    SkyModel m;
    m.seed = 23;
    m.num_galaxies = 4000;
    m.num_stars = 3000;
    m.num_quasars = 100;
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

  static std::vector<PhotoObj>* objects_;
  static ObjectStore* store_;
};

std::vector<PhotoObj>* QueryPropertyTest::objects_ = nullptr;
ObjectStore* QueryPropertyTest::store_ = nullptr;

TEST_P(QueryPropertyTest, RandomPredicatesMatchBruteForce) {
  Config cfg = GetParam();
  FederatedQueryEngine::Options opt;
  opt.planner.auto_tag_selection = cfg.auto_tag;
  opt.planner.use_spatial_index = cfg.use_index;
  FederatedQueryEngine engine({Shard{0, store_, nullptr}}, opt);

  Rng rng(404 + (cfg.auto_tag ? 1 : 0) + (cfg.use_index ? 2 : 0));
  for (int trial = 0; trial < 12; ++trial) {
    double r_cut = rng.Uniform(15.0, 23.0);
    double color_cut = rng.Uniform(-0.2, 1.2);
    double ra = rng.Uniform(0, 360);
    double dec = rng.Uniform(15, 80);  // Near/off footprint mix.
    double radius = rng.Uniform(1.0, 25.0);

    char sql[256];
    std::snprintf(sql, sizeof(sql),
                  "SELECT obj_id FROM photo WHERE r < %.4f AND g - r > %.4f "
                  "AND CIRCLE(%.4f, %.4f, %.4f)",
                  r_cut, color_cut, ra, dec, radius);
    auto result = engine.Execute(sql);
    ASSERT_TRUE(result.ok()) << result.status().ToString() << "\n" << sql;

    htm::Region region = htm::Region::Circle(ra, dec, radius);
    std::set<uint64_t> expected;
    for (const auto& o : *objects_) {
      if (o.mag[2] < r_cut && (o.mag[1] - o.mag[2]) > color_cut &&
          region.Contains(o.pos)) {
        expected.insert(o.obj_id);
      }
    }
    std::set<uint64_t> got;
    for (const auto& row : result->rows) got.insert(row.obj_id);
    ASSERT_EQ(got, expected) << sql;
  }
}

TEST_P(QueryPropertyTest, CountAggregatesAgreeWithRowCounts) {
  Config cfg = GetParam();
  FederatedQueryEngine::Options opt;
  opt.planner.auto_tag_selection = cfg.auto_tag;
  opt.planner.use_spatial_index = cfg.use_index;
  FederatedQueryEngine engine({Shard{0, store_, nullptr}}, opt);

  Rng rng(505);
  for (int trial = 0; trial < 6; ++trial) {
    double cut = rng.Uniform(16.0, 22.0);
    char rows_sql[128], count_sql[128];
    std::snprintf(rows_sql, sizeof(rows_sql),
                  "SELECT obj_id FROM photo WHERE r < %.4f", cut);
    std::snprintf(count_sql, sizeof(count_sql),
                  "SELECT COUNT(*) FROM photo WHERE r < %.4f", cut);
    auto rows = engine.Execute(rows_sql);
    auto count = engine.Execute(count_sql);
    ASSERT_TRUE(rows.ok() && count.ok());
    EXPECT_DOUBLE_EQ(count->aggregate_value,
                     static_cast<double>(rows->rows.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, QueryPropertyTest,
    ::testing::Values(Config{true, true}, Config{true, false},
                      Config{false, true}, Config{false, false}),
    [](const ::testing::TestParamInfo<Config>& info) {
      return std::string(info.param.auto_tag ? "Tag" : "Full") +
             (info.param.use_index ? "Indexed" : "NoIndex");
    });

}  // namespace
}  // namespace sdss::query
