// Property sweep: the hash machine's bucketed pair search must equal the
// brute-force O(N^2) result for every combination of bucket depth and
// search radius -- including radii comparable to the bucket size, where
// edge-ghost replication is doing all the work.

#include <gtest/gtest.h>

#include <tuple>

#include "catalog/sky_generator.h"
#include "core/angle.h"
#include "core/random.h"
#include "dataflow/hash_machine.h"

namespace sdss::dataflow {
namespace {

using catalog::ObjectStore;
using catalog::PhotoObj;
using catalog::SkyGenerator;
using catalog::SkyModel;

class HashPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {
 public:
  static void SetUpTestSuite() {
    // A compact dense patch so pairs are plentiful: one cluster-heavy
    // field.
    SkyModel m;
    m.seed = 777;
    m.num_galaxies = 1500;
    m.num_stars = 500;
    m.num_quasars = 100;
    m.num_clusters = 10;
    m.cluster_fraction = 0.6;
    m.cluster_radius_deg = 0.05;  // Tight clusters: many close pairs.
    store_ = new ObjectStore();
    ASSERT_TRUE(store_->BulkLoad(SkyGenerator(m).Generate()).ok());
    ClusterConfig cfg;
    cfg.num_nodes = 4;
    cluster_ = new ClusterSim(cfg);
    ASSERT_TRUE(cluster_->LoadPartitioned(*store_).ok());
  }
  static void TearDownTestSuite() {
    delete cluster_;
    delete store_;
    cluster_ = nullptr;
    store_ = nullptr;
  }

  static ObjectStore* store_;
  static ClusterSim* cluster_;
};

ObjectStore* HashPropertyTest::store_ = nullptr;
ClusterSim* HashPropertyTest::cluster_ = nullptr;

TEST_P(HashPropertyTest, MatchesBruteForceExactly) {
  auto [bucket_level, max_sep_arcsec] = GetParam();
  HashMachine machine(cluster_);
  PairSearchOptions opt;
  opt.bucket_level = bucket_level;

  auto select = [](const PhotoObj& o) { return o.mag[2] < 22.5f; };
  auto pair_pred = [](const PhotoObj& a, const PhotoObj& b) {
    return std::fabs(a.mag[2] - b.mag[2]) < 3.0f;
  };

  auto fast = machine.FindPairs(select, max_sep_arcsec, pair_pred, opt);
  auto brute = machine.FindPairsBruteForce(select, max_sep_arcsec,
                                           pair_pred);
  ASSERT_EQ(fast.size(), brute.size())
      << "level " << bucket_level << " sep " << max_sep_arcsec;
  for (size_t i = 0; i < fast.size(); ++i) {
    ASSERT_EQ(fast[i].obj_id_a, brute[i].obj_id_a) << i;
    ASSERT_EQ(fast[i].obj_id_b, brute[i].obj_id_b) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    LevelsAndRadii, HashPropertyTest,
    ::testing::Combine(
        // Bucket depths from coarse (level 7 ~0.5 deg) to fine (level 12
        // ~16 arcsec, comparable to the largest radius below).
        ::testing::Values(7, 9, 11, 12),
        // Radii from 2 arcsec to 2 arcmin.
        ::testing::Values(2.0, 15.0, 60.0, 120.0)),
    [](const ::testing::TestParamInfo<std::tuple<int, double>>& info) {
      std::string name = "L";
      name += std::to_string(std::get<0>(info.param));
      name += "_Sep";
      name += std::to_string(static_cast<int>(std::get<1>(info.param)));
      return name;
    });

}  // namespace
}  // namespace sdss::dataflow
