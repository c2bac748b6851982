#include "catalog/cross_match.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "catalog/sky_generator.h"
#include "core/angle.h"
#include "core/random.h"
#include "htm/trixel.h"

namespace sdss::catalog {
namespace {

// Builds a base catalog plus a "second survey" that re-observes a subset
// of its objects with a small astrometric error.
struct TwoSurveys {
  ObjectStore a;
  ObjectStore b;
  std::map<uint64_t, uint64_t> truth;  // a.obj_id -> b.obj_id.
};

TwoSurveys MakeSurveys(double error_arcsec, double reobserve_fraction) {
  TwoSurveys out;
  SkyModel m;
  m.seed = 55;
  m.num_galaxies = 3000;
  m.num_stars = 1000;
  m.num_quasars = 50;
  auto objs = SkyGenerator(m).Generate();
  EXPECT_TRUE(out.a.BulkLoad(objs).ok());

  Rng rng(77);
  std::vector<PhotoObj> second;
  uint64_t next_id = 1'000'000;
  for (const auto& o : objs) {
    if (!rng.Bernoulli(reobserve_fraction)) continue;
    PhotoObj copy = o;
    copy.obj_id = next_id++;
    copy.pos = rng.UnitCap(o.pos, ArcsecToRad(error_arcsec)).Normalized();
    SphericalFromUnitVector(copy.pos, &copy.ra_deg, &copy.dec_deg);
    second.push_back(copy);
    out.truth[o.obj_id] = copy.obj_id;
  }
  EXPECT_TRUE(out.b.BulkLoad(second).ok());
  return out;
}

TEST(CrossMatchTest, FindsReobservedObjects) {
  TwoSurveys s = MakeSurveys(0.5, 0.3);
  CrossMatchOptions opt;
  opt.radius_arcsec = 2.0;
  CrossMatchStats stats;
  auto matches = CrossMatch(s.a, s.b, opt, &stats);

  // Every re-observed object must be matched to its counterpart (the sky
  // is sparse enough that nearest-neighbor is the truth).
  std::map<uint64_t, uint64_t> found;
  for (const auto& m : matches) found[m.obj_id_a] = m.obj_id_b;
  size_t correct = 0;
  for (const auto& [a_id, b_id] : s.truth) {
    auto it = found.find(a_id);
    if (it != found.end() && it->second == b_id) ++correct;
  }
  EXPECT_GE(correct, s.truth.size() * 99 / 100);
  EXPECT_EQ(stats.matches, matches.size());
}

TEST(CrossMatchTest, SeparationsAreWithinRadius) {
  TwoSurveys s = MakeSurveys(0.5, 0.2);
  CrossMatchOptions opt;
  opt.radius_arcsec = 2.0;
  auto matches = CrossMatch(s.a, s.b, opt);
  for (const auto& m : matches) {
    EXPECT_LE(m.separation_arcsec, 2.0 + 1e-9);
    EXPECT_GE(m.separation_arcsec, 0.0);
  }
}

TEST(CrossMatchTest, BestMatchKeepsOnePerObject) {
  TwoSurveys s = MakeSurveys(0.3, 0.5);
  CrossMatchOptions opt;
  opt.radius_arcsec = 5.0;
  opt.best_match_only = true;
  auto matches = CrossMatch(s.a, s.b, opt);
  std::map<uint64_t, int> counts;
  for (const auto& m : matches) ++counts[m.obj_id_a];
  for (const auto& [id, n] : counts) EXPECT_EQ(n, 1) << id;
}

TEST(CrossMatchTest, AllMatchesModeCanReturnMore) {
  TwoSurveys s = MakeSurveys(0.3, 0.9);
  CrossMatchOptions best;
  best.radius_arcsec = 60.0;
  best.best_match_only = true;
  CrossMatchOptions all = best;
  all.best_match_only = false;
  auto best_matches = CrossMatch(s.a, s.b, best);
  auto all_matches = CrossMatch(s.a, s.b, all);
  EXPECT_GE(all_matches.size(), best_matches.size());
}

TEST(CrossMatchTest, NoMatchesAcrossEmptyCatalog) {
  TwoSurveys s = MakeSurveys(0.5, 0.0);  // Nothing re-observed.
  CrossMatchOptions opt;
  auto matches = CrossMatch(s.a, s.b, opt);
  EXPECT_TRUE(matches.empty());
}

TEST(CrossMatchTest, PruningAvoidsFullCrossProduct) {
  TwoSurveys s = MakeSurveys(0.5, 0.5);
  CrossMatchOptions opt;
  opt.radius_arcsec = 2.0;
  CrossMatchStats stats;
  auto matches = CrossMatch(s.a, s.b, opt, &stats);
  (void)matches;
  uint64_t cross_product = s.a.object_count() * s.b.object_count();
  // The HTM-pruned candidate tests must be a vanishing fraction of N*M.
  EXPECT_LT(stats.candidates_tested, cross_product / 100);
}

TEST(CrossMatchTest, MatchesBruteForceOnSmallCatalog) {
  TwoSurveys s = MakeSurveys(1.0, 0.4);
  CrossMatchOptions opt;
  opt.radius_arcsec = 3.0;
  opt.best_match_only = false;
  auto matches = CrossMatch(s.a, s.b, opt);

  // Brute force reference.
  std::vector<std::pair<uint64_t, uint64_t>> brute;
  double cos_r = std::cos(ArcsecToRad(3.0));
  s.a.ForEachObject([&](const PhotoObj& oa) {
    s.b.ForEachObject([&](const PhotoObj& ob) {
      if (oa.pos.Dot(ob.pos) >= cos_r) brute.emplace_back(oa.obj_id,
                                                          ob.obj_id);
    });
  });
  std::vector<std::pair<uint64_t, uint64_t>> got;
  for (const auto& m : matches) got.emplace_back(m.obj_id_a, m.obj_id_b);
  std::sort(brute.begin(), brute.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, brute);
}

TEST(CrossMatchTest, MatchesStraddlingContainerEdges) {
  // Each pair sits 0.5 arcsec either side of a container edge (or on a
  // corner's far side), so its two members live in different containers
  // of the same cluster level: a 2 arcsec match must still find every
  // one, through the neighbour containers the cap reaches.
  SkyModel m;
  m.seed = 9;
  m.num_galaxies = 1;
  m.num_stars = 0;
  m.num_quasars = 0;
  const PhotoObj proto = SkyGenerator(m).Generate().front();
  ObjectStore a, b;
  const int level = b.cluster_level();
  Rng rng(31);
  std::vector<PhotoObj> in_a, in_b;
  auto place = [](PhotoObj o, uint64_t id, const Vec3& pos) {
    o.obj_id = id;
    o.pos = pos.Normalized();
    SphericalFromUnitVector(o.pos, &o.ra_deg, &o.dec_deg);
    return o;
  };
  const double step = ArcsecToRad(0.5);
  for (uint64_t k = 0; k < 200; ++k) {
    const htm::Trixel t =
        htm::Trixel::FromId(htm::LookupId(rng.UnitSphere(), level));
    const int e = static_cast<int>(k % 3);
    const Vec3& v = t.vertices()[e];
    const Vec3& w = t.vertices()[(e + 1) % 3];
    // Even k: a point on edge e; odd k: corner e.
    const Vec3 on = k % 2 == 0 ? (v + w * rng.Uniform(0.2, 1.0)).Normalized()
                               : v;
    const Vec3 inward = k % 2 == 0 ? v.Cross(w).Normalized()
                                   : (t.Center() - v).Normalized();
    const PhotoObj oa = place(proto, k + 1, on + inward * step);
    const PhotoObj ob = place(proto, 1'000'000 + k, on - inward * step);
    ASSERT_NE(htm::LookupId(oa.pos, level), htm::LookupId(ob.pos, level));
    in_a.push_back(oa);
    in_b.push_back(ob);
  }
  ASSERT_TRUE(a.BulkLoad(in_a).ok());
  ASSERT_TRUE(b.BulkLoad(in_b).ok());
  CrossMatchOptions opt;
  opt.radius_arcsec = 2.0;
  opt.best_match_only = false;
  std::set<std::pair<uint64_t, uint64_t>> got;
  for (const MatchPair& p : CrossMatch(a, b, opt)) {
    got.emplace(p.obj_id_a, p.obj_id_b);
  }
  for (uint64_t k = 0; k < 200; ++k) {
    EXPECT_TRUE(got.count({k + 1, 1'000'000 + k})) << "pair " << k;
  }
}

}  // namespace
}  // namespace sdss::catalog
