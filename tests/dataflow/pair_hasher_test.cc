// PairHasher: the cluster-agnostic bucket/ghost core. Exactness against
// brute force over a grid of bucket depths and radii, the local/foreign
// emission discipline that makes the distributed join exactly-once, and
// the planner's bucket-level heuristic.

#include "dataflow/pair_hasher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "catalog/sky_generator.h"
#include "core/angle.h"
#include "htm/cover.h"
#include "htm/trixel.h"

namespace sdss::dataflow {
namespace {

using catalog::PhotoObj;
using catalog::SkyGenerator;
using catalog::SkyModel;

std::vector<PhotoObj> DensePatch(uint64_t seed) {
  SkyModel m;
  m.seed = seed;
  m.num_galaxies = 1200;
  m.num_stars = 400;
  m.num_quasars = 80;
  m.num_clusters = 8;
  m.cluster_fraction = 0.6;
  m.cluster_radius_deg = 0.05;
  return SkyGenerator(m).Generate();
}

using PairSet = std::set<std::pair<uint64_t, uint64_t>>;

PairSet BruteForce(const std::vector<PhotoObj>& objs, double sep_arcsec) {
  double cos_sep = std::cos(ArcsecToRad(sep_arcsec));
  PairSet pairs;
  for (size_t i = 0; i < objs.size(); ++i) {
    for (size_t j = i + 1; j < objs.size(); ++j) {
      if (objs[i].pos.Dot(objs[j].pos) < cos_sep) continue;
      pairs.emplace(std::min(objs[i].obj_id, objs[j].obj_id),
                    std::max(objs[i].obj_id, objs[j].obj_id));
    }
  }
  return pairs;
}

PairSet HashedPairs(const PairHasher& hasher) {
  PairSet pairs;
  for (const PairHasher::Bucket* bucket : hasher.BucketList()) {
    hasher.ForEachCandidatePair(
        *bucket, [&pairs](const PhotoObj& a, const PhotoObj& b, double) {
          EXPECT_TRUE(pairs.emplace(a.obj_id, b.obj_id).second)
              << "pair (" << a.obj_id << ", " << b.obj_id
              << ") emitted twice";
          return true;
        });
  }
  return pairs;
}

// All-local hashing equals brute force at every bucket depth and radius,
// including radii comparable to the bucket size, where edge-ghost
// replication does all the work.
class HashPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(HashPropertyTest, MatchesBruteForceExactly) {
  const auto [bucket_level, sep_arcsec] = GetParam();
  std::vector<PhotoObj> objs = DensePatch(11);
  PairHasher hasher(sep_arcsec, bucket_level);
  for (const PhotoObj& o : objs) hasher.Add(&o);
  EXPECT_EQ(hasher.local_objects(), objs.size());
  const PairSet expect = BruteForce(objs, sep_arcsec);
  EXPECT_GT(expect.size(), 0u);
  EXPECT_EQ(HashedPairs(hasher), expect);
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

TEST(PairHasherTest, AllLocalMatchesBruteForce) {
  std::vector<PhotoObj> objs = DensePatch(11);
  for (double sep_arcsec : {5.0, 30.0, 120.0}) {
    PairHasher hasher(sep_arcsec, 10);
    for (const PhotoObj& o : objs) hasher.Add(&o);
    EXPECT_EQ(hasher.local_objects(), objs.size());
    EXPECT_EQ(HashedPairs(hasher), BruteForce(objs, sep_arcsec))
        << "sep " << sep_arcsec;
  }
}

TEST(PairHasherTest, ShardedWithGhostExchangeIsExactlyOnce) {
  // Split the sky into "shards" by home trixel parity at the container
  // level, ship each object to the other shard whenever its separation
  // cap covers a trixel it does not own, and check the union of the two
  // shard-local runs is exactly the brute-force set with no duplicates
  // -- the emission discipline the federated join relies on.
  std::vector<PhotoObj> objs = DensePatch(22);
  const double sep_arcsec = 90.0;
  const int container_level = 6;
  auto owner = [&](const Vec3& pos) {
    return htm::LookupId(pos, container_level).raw() % 2;
  };

  PairHasher shard0(sep_arcsec, 9), shard1(sep_arcsec, 9);
  PairHasher* shards[2] = {&shard0, &shard1};
  double sep_deg = ArcsecToDeg(sep_arcsec);
  size_t shipped_objects = 0;
  for (const PhotoObj& o : objs) {
    uint64_t own = owner(o.pos);
    shards[own]->Add(&o, /*local=*/true);
    // Ghost exchange at the container level, by the rule the federated
    // engine's harvest applies.
    bool shipped = false;
    htm::ForEachTrixelNearPoint(o.pos, sep_deg, container_level,
                                [&shipped, own](uint64_t raw) {
                                  if (raw % 2 != own) shipped = true;
                                });
    if (shipped) {
      shards[1 - own]->Add(&o, /*local=*/false);
      ++shipped_objects;
    }
  }
  // The exchange did cross shard boundaries (else the test proves
  // nothing about ghosts).
  EXPECT_GT(shipped_objects, 0u);

  PairSet merged = HashedPairs(shard0);
  for (const auto& p : HashedPairs(shard1)) {
    EXPECT_TRUE(merged.insert(p).second)
        << "pair (" << p.first << ", " << p.second
        << ") emitted by both shards";
  }
  EXPECT_EQ(merged, BruteForce(objs, sep_arcsec));
}

TEST(PairHasherTest, ForeignObjectsNeverInitiateEmission) {
  std::vector<PhotoObj> objs = DensePatch(33);
  PairHasher hasher(60.0, 9);
  for (const PhotoObj& o : objs) hasher.Add(&o, /*local=*/false);
  EXPECT_EQ(hasher.foreign_objects(), objs.size());
  EXPECT_TRUE(HashedPairs(hasher).empty());
}

TEST(PairHasherTest, ChooseBucketLevelTracksSeparation) {
  // Smaller separations earn deeper buckets; the level stays clamped.
  EXPECT_LE(PairHasher::ChooseBucketLevel(2.0), 12);
  EXPECT_GE(PairHasher::ChooseBucketLevel(2.0),
            PairHasher::ChooseBucketLevel(60.0));
  EXPECT_GE(PairHasher::ChooseBucketLevel(60.0),
            PairHasher::ChooseBucketLevel(3600.0));
  EXPECT_GE(PairHasher::ChooseBucketLevel(8.0 * 3600.0), 4);
  // A level-10 trixel is ~316 arcsec across; 10 arcsec caps must land
  // well inside one, keeping ghosts rare.
  EXPECT_GE(PairHasher::ChooseBucketLevel(10.0), 9);
}

TEST(PairHasherTest, ReportsBucketShape) {
  std::vector<PhotoObj> objs = DensePatch(55);
  PairHasher hasher(30.0, 10);
  for (const PhotoObj& o : objs) hasher.Add(&o);
  EXPECT_GT(hasher.bucket_count(), 0u);
  EXPECT_GT(hasher.max_bucket(), 0u);
  uint64_t entries = 0;
  for (const PairHasher::Bucket* b : hasher.BucketList()) {
    entries += b->size();
  }
  EXPECT_EQ(entries, hasher.local_objects() + hasher.ghost_entries());
}

}  // namespace
}  // namespace sdss::dataflow
