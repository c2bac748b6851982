#include "htm/cover.h"

#include <gtest/gtest.h>

#include "core/angle.h"
#include "core/coords.h"
#include "core/random.h"
#include "htm/htm_index.h"

namespace sdss::htm {
namespace {

TEST(CoverTest, WholeSphereRegionCoversAllBases) {
  // A convex with no constraints covers the sphere.
  Region all;
  all.Add(Convex{});
  CoverResult cover = Cover(all, 4);
  EXPECT_EQ(cover.full.size(), 8u);
  EXPECT_TRUE(cover.partial.empty());
  EXPECT_EQ(cover.ToRangeSet().CardinalityCount(), TrixelCountAtLevel(4));
}

TEST(CoverTest, EmptyRegionCoversNothing) {
  Region none;
  CoverResult cover = Cover(none, 4);
  EXPECT_TRUE(cover.full.empty());
  EXPECT_TRUE(cover.partial.empty());
}

TEST(CoverTest, SmallCircleProducesFewTrixels) {
  CoverResult cover = Cover(Region::Circle(45.0, 30.0, 0.5), 8);
  EXPECT_FALSE(cover.partial.empty() && cover.full.empty());
  // A 0.5-deg circle is tiny compared to the sphere; the cover must prune
  // almost everything.
  uint64_t accepted = cover.ToRangeSet().CardinalityCount();
  EXPECT_LT(accepted, TrixelCountAtLevel(8) / 1000);
}

TEST(CoverTest, CoverContainsAllInsidePointsAndOnlyThem) {
  Rng rng(42);
  Region region = Region::Circle(120.0, -35.0, 7.5);
  int level = 7;
  CoverResult cover = Cover(region, level);
  RangeSet accepted = cover.ToRangeSet();
  RangeSet full = cover.FullRangeSet();

  Vec3 center = EquatorialUnitVector({120.0, -35.0, Frame::kEquatorial});
  for (int i = 0; i < 3000; ++i) {
    // Half the samples concentrated near the region for coverage of the
    // boundary, half uniform for the rejection side.
    Vec3 p = (i % 2 == 0) ? rng.UnitCap(center, DegToRad(12.0))
                          : rng.UnitSphere();
    uint64_t leaf = LookupId(p, level).raw();
    bool inside = region.Contains(p);
    if (inside) {
      // Soundness: every inside point's leaf is accepted.
      EXPECT_TRUE(accepted.Contains(leaf)) << p.ToString();
    }
    if (full.Contains(leaf)) {
      // FULL trixels contain only inside points.
      EXPECT_TRUE(inside) << p.ToString();
    }
  }
}

TEST(CoverTest, Figure4StyleTwoSystemQuery) {
  // The paper's Figure 4: a declination band intersected with a band in
  // another spherical coordinate system.
  Region dec_band = Region::LatBand(10.0, 30.0, Frame::kEquatorial);
  Region gal_band = Region::LatBand(-15.0, 15.0, Frame::kGalactic);
  Region query = dec_band.IntersectWith(gal_band);

  int level = 6;
  CoverResult cover = Cover(query, level);
  EXPECT_FALSE(cover.full.empty());
  EXPECT_FALSE(cover.partial.empty());

  // Exactness on sampled points.
  Rng rng(7);
  RangeSet accepted = cover.ToRangeSet();
  RangeSet full = cover.FullRangeSet();
  for (int i = 0; i < 4000; ++i) {
    Vec3 p = rng.UnitSphere();
    uint64_t leaf = LookupId(p, level).raw();
    if (query.Contains(p)) {
      EXPECT_TRUE(accepted.Contains(leaf));
    }
    if (full.Contains(leaf)) {
      EXPECT_TRUE(query.Contains(p));
    }
  }
}

TEST(CoverTest, DeeperLevelsShrinkPartialArea) {
  // As the recursion deepens, the bisected band around the boundary
  // narrows: partial area must drop monotonically (up to tiny jitter).
  Region region = Region::Circle(200.0, 10.0, 15.0);
  double prev_partial_area = 1e18;
  for (int level = 2; level <= 8; ++level) {
    CoverResult cover = Cover(region, level);
    double partial_area = cover.PartialAreaSquareDegrees();
    EXPECT_LT(partial_area, prev_partial_area * 1.05)
        << "level " << level;
    prev_partial_area = partial_area;
  }
}

TEST(CoverTest, FullPlusPartialAreaBracketsRegionArea) {
  // FULL area <= true region area <= FULL + PARTIAL area.
  double radius_deg = 12.0;
  Region region = Region::Circle(80.0, 40.0, radius_deg);
  double true_area =
      2.0 * kPi * (1.0 - std::cos(DegToRad(radius_deg))) * kDegPerRad *
      kDegPerRad;
  CoverResult cover = Cover(region, 8);
  double full_area = cover.FullAreaSquareDegrees();
  double partial_area = cover.PartialAreaSquareDegrees();
  EXPECT_LE(full_area, true_area * 1.001);
  EXPECT_GE(full_area + partial_area, true_area * 0.999);
  // At level 8 the bracket is tight for this radius.
  EXPECT_GT(full_area, 0.8 * true_area);
  EXPECT_LT(full_area + partial_area, 1.2 * true_area);
}

TEST(CoverTest, LevelStatsAreConsistent) {
  Region region = Region::Circle(10.0, 10.0, 5.0);
  CoverResult cover = Cover(region, 6);
  ASSERT_EQ(cover.level_stats.size(), 7u);
  EXPECT_EQ(cover.level_stats[0].tested, 8u);
  for (size_t lv = 1; lv < cover.level_stats.size(); ++lv) {
    const auto& prev = cover.level_stats[lv - 1];
    const auto& cur = cover.level_stats[lv];
    // Children tested = 4 * partial parents (except at the last level
    // where partials are emitted instead of recursed).
    EXPECT_EQ(cur.tested, 4u * prev.partial) << "level " << lv;
    EXPECT_EQ(cur.tested, cur.full + cur.partial + cur.disjoint);
  }
}

TEST(CoverTest, MaxTrixelsBudgetIsHonored) {
  Region region = Region::Circle(0.0, 0.0, 20.0);
  CoverOptions opt;
  opt.level = 10;
  opt.max_trixels = 64;
  CoverResult budget = Cover(region, opt);
  EXPECT_LE(budget.full.size() + budget.partial.size(), 64u * 5u);

  // Budgeted covers remain sound (a superset of the exact cover).
  CoverResult exact = Cover(region, 10);
  RangeSet budget_rs = budget.ToRangeSet();
  RangeSet exact_rs = exact.ToRangeSet();
  EXPECT_TRUE(exact_rs.DifferenceWith(budget_rs).empty());
}

TEST(CoverTest, CoarseFullTrixelsAreNotSplit) {
  // A huge circle: most base trixels should be emitted FULL at coarse
  // levels, not exploded into leaves.
  Region region = Region::Circle(0.0, 90.0, 89.0);
  CoverResult cover = Cover(region, 8);
  bool has_coarse_full = false;
  for (HtmId id : cover.full) {
    if (id.level() < 8) has_coarse_full = true;
  }
  EXPECT_TRUE(has_coarse_full);
}

TEST(CoverTest, RootedCoverEqualsTheWholeSphereCoverInsideTheRoot) {
  // A 0.2-deg circle well inside one level-3 trixel: walking only that
  // trixel's subtree yields the same FULL and PARTIAL trixels as walking
  // from the 8 roots, and nothing is tested above the root's level.
  const Vec3 center = UnitVectorFromSpherical(45.0, 30.0);
  const Trixel root = Trixel::Locate(center, 3);
  ASSERT_TRUE(root.ContainsCap(center, DegToRad(0.2)));
  const Region region = Region::CircleAround(center, 0.2);
  CoverOptions rooted;
  rooted.level = 9;
  rooted.root = root.id();
  const CoverResult from_root = Cover(region, rooted);
  const CoverResult whole = Cover(region, 9);
  EXPECT_EQ(from_root.full, whole.full);
  EXPECT_EQ(from_root.partial, whole.partial);
  EXPECT_FALSE(from_root.partial.empty());
  EXPECT_EQ(from_root.level_stats[0].tested, 0u);
  EXPECT_EQ(from_root.level_stats[3].tested, 1u);
  EXPECT_EQ(whole.level_stats[0].tested, 8u);
}

TEST(HtmIndexTest, FacadeRoundTrip) {
  HtmIndex index(6);
  EXPECT_EQ(index.level(), 6);
  HtmId id = index.Locate(100.0, 25.0);
  EXPECT_EQ(id.level(), 6);
  EXPECT_TRUE(Trixel::FromId(id).Contains(UnitVectorFromSpherical(100, 25)));
  CoverResult cover = index.CoverRegion(Region::Circle(100.0, 25.0, 1.0));
  EXPECT_TRUE(cover.ToRangeSet().Contains(id.raw()));
  EXPECT_NEAR(index.MeanTrixelAreaSquareDegrees(),
              kSquareDegreesOnSky / TrixelCountAtLevel(6), 1e-9);
}

}  // namespace
}  // namespace sdss::htm
