// Property-based sweeps over the HTM cover algorithm: for many randomly
// generated regions of several shapes and several index depths, the cover
// must be SOUND (no inside point is ever lost) and FULL-EXACT (full
// trixels contain only inside points). These are the two invariants the
// whole query engine's correctness rests on. The point-to-neighbour rule
// (ForEachTrixelNearPoint) is swept the same way against the cover it
// replaces.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/angle.h"
#include "core/coords.h"
#include "core/random.h"
#include "htm/cover.h"

namespace sdss::htm {
namespace {

enum class Shape { kCircle, kBand, kRect, kBandIntersectCircle, kUnion };

std::string ShapeName(Shape s) {
  switch (s) {
    case Shape::kCircle:
      return "Circle";
    case Shape::kBand:
      return "Band";
    case Shape::kRect:
      return "Rect";
    case Shape::kBandIntersectCircle:
      return "BandIntersectCircle";
    case Shape::kUnion:
      return "Union";
  }
  return "?";
}

Region MakeRegion(Shape shape, Rng* rng) {
  auto rand_frame = [&]() {
    switch (rng->UniformInt(0, 2)) {
      case 0:
        return Frame::kEquatorial;
      case 1:
        return Frame::kGalactic;
      default:
        return Frame::kSupergalactic;
    }
  };
  switch (shape) {
    case Shape::kCircle:
      return Region::Circle(rng->Uniform(0, 360), rng->Uniform(-90, 90),
                            rng->Uniform(0.2, 25.0), rand_frame());
    case Shape::kBand: {
      double lo = rng->Uniform(-80, 70);
      return Region::LatBand(lo, lo + rng->Uniform(1.0, 20.0), rand_frame());
    }
    case Shape::kRect: {
      double lon = rng->Uniform(0, 360);
      double lat = rng->Uniform(-80, 60);
      return Region::Rect(lon, lon + rng->Uniform(2.0, 120.0), lat,
                          lat + rng->Uniform(1.0, 20.0), rand_frame());
    }
    case Shape::kBandIntersectCircle: {
      double lat = rng->Uniform(-60, 50);
      Region band = Region::LatBand(lat, lat + rng->Uniform(2, 15),
                                    rand_frame());
      Region circle = Region::Circle(rng->Uniform(0, 360), lat,
                                     rng->Uniform(5, 40));
      return band.IntersectWith(circle);
    }
    case Shape::kUnion: {
      Region a = Region::Circle(rng->Uniform(0, 360), rng->Uniform(-90, 90),
                                rng->Uniform(0.5, 10));
      Region b = Region::Circle(rng->Uniform(0, 360), rng->Uniform(-90, 90),
                                rng->Uniform(0.5, 10));
      return a.UnionWith(b);
    }
  }
  return Region{};
}

class CoverPropertyTest
    : public ::testing::TestWithParam<std::tuple<Shape, int>> {};

TEST_P(CoverPropertyTest, SoundAndFullExact) {
  auto [shape, level] = GetParam();
  Rng rng(1000 + static_cast<uint64_t>(level) * 31 +
          static_cast<uint64_t>(shape) * 7);

  for (int trial = 0; trial < 8; ++trial) {
    Region region = MakeRegion(shape, &rng);
    CoverResult cover = Cover(region, level);
    RangeSet accepted = cover.ToRangeSet();
    RangeSet full = cover.FullRangeSet();

    // Sample a mix of uniform points and points concentrated inside the
    // region's first convex (to stress the boundary).
    for (int i = 0; i < 400; ++i) {
      Vec3 p;
      if (i % 2 == 0 && !region.convexes().empty()) {
        auto interior = region.convexes()[0].InteriorPoint();
        p = interior ? rng.UnitCap(*interior, DegToRad(30.0))
                     : rng.UnitSphere();
      } else {
        p = rng.UnitSphere();
      }
      uint64_t leaf = LookupId(p, level).raw();
      if (region.Contains(p)) {
        // Soundness: inside points are never pruned away.
        ASSERT_TRUE(accepted.Contains(leaf))
            << ShapeName(shape) << " level " << level << " trial " << trial
            << " point " << p.ToString();
      }
      if (full.Contains(leaf)) {
        // Full-exactness: FULL trixels hold only inside points.
        ASSERT_TRUE(region.Contains(p))
            << ShapeName(shape) << " level " << level << " trial " << trial
            << " point " << p.ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CoverPropertyTest,
    ::testing::Combine(::testing::Values(Shape::kCircle, Shape::kBand,
                                         Shape::kRect,
                                         Shape::kBandIntersectCircle,
                                         Shape::kUnion),
                       ::testing::Values(3, 5, 7)),
    [](const ::testing::TestParamInfo<std::tuple<Shape, int>>& info) {
      return ShapeName(std::get<0>(info.param)) + "_L" +
             std::to_string(std::get<1>(info.param));
    });

// Point-location properties swept over depth.
class LookupPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(LookupPropertyTest, ContainmentAndHierarchy) {
  int level = GetParam();
  Rng rng(500 + static_cast<uint64_t>(level));
  for (int i = 0; i < 500; ++i) {
    Vec3 p = rng.UnitSphere();
    HtmId id = LookupId(p, level);
    ASSERT_EQ(id.level(), level);
    ASSERT_TRUE(Trixel::FromId(id).Contains(p));
    // Locate's corners are the ones FromId rebuilds, bit for bit.
    const Trixel located = Trixel::Locate(p, level);
    ASSERT_EQ(located.id(), id);
    ASSERT_EQ(located.vertices(), Trixel::FromId(id).vertices());
    if (level > 0) {
      ASSERT_EQ(LookupId(p, level - 1), id.Parent());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, LookupPropertyTest,
                         ::testing::Values(0, 1, 2, 4, 6, 8, 10, 12, 14, 20),
                         [](const ::testing::TestParamInfo<int>& info) {
                           std::string name = "L";
                           name += std::to_string(info.param);
                           return name;
                         });

// ForEachTrixelNearPoint swept over depths and radii. Centres are random
// points, points on trixel edges and corners, and points on and near the
// octahedron's seams and poles -- where the cap straddles base faces. For
// each, the ids must be a subset of the cap's Cover expansion (equal to
// it unless the cap fits in its home trixel), must start with LookupId
// of the centre and must hold LookupId of 64 points on the rim.
class NearPointPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

std::vector<Vec3> NearPointCentres(int level, double radius_rad, Rng* rng) {
  std::vector<Vec3> out;
  for (int i = 0; i < 150; ++i) out.push_back(rng->UnitSphere());
  for (int i = 0; i < 40; ++i) {
    const Trixel t = Trixel::FromId(LookupId(rng->UnitSphere(), level));
    const int e = static_cast<int>(rng->UniformInt(0, 2));
    const Vec3& a = t.vertices()[e];
    const Vec3& b = t.vertices()[(e + 1) % 3];
    const double f = rng->Uniform();
    out.push_back((a * f + b * (1.0 - f)).Normalized());  // On an edge.
    out.push_back(t.vertices()[e]);                        // A corner.
  }
  // The equator and the four meridians bounding the base faces, exactly
  // on the seam and a fraction of the radius off it, plus the poles.
  for (int i = 0; i < 16; ++i) {
    const double lon = rng->Uniform(0.0, 2.0 * kPi);
    const double off = radius_rad * rng->Uniform(-1.5, 1.5);
    out.push_back(Vec3{std::cos(lon), std::sin(lon), 0.0});
    out.push_back(Vec3{std::cos(lon), std::sin(lon), off}.Normalized());
    const double z = rng->Uniform(-1.0, 1.0);
    const double rho = std::sqrt(1.0 - z * z);
    out.push_back(Vec3{0.0, rho, z});
    out.push_back(Vec3{rho, off, z}.Normalized());
  }
  for (double sign : {1.0, -1.0}) {
    out.push_back(Vec3{0.0, 0.0, sign});
    out.push_back(Vec3{radius_rad * 0.5, -radius_rad * 0.3, sign}.Normalized());
  }
  return out;
}

TEST_P(NearPointPropertyTest, SubsetOfCoverHoldingCentreAndRim) {
  const auto [level, radius_arcsec] = GetParam();
  const double radius_deg = ArcsecToDeg(radius_arcsec);
  const double radius_rad = DegToRad(radius_deg);
  Rng rng(9000 + static_cast<uint64_t>(level) * 131 +
          static_cast<uint64_t>(radius_arcsec));
  size_t home_only = 0;
  const size_t random_centres = 150;  // NearPointCentres' first block.
  size_t index = 0;
  for (const Vec3& p : NearPointCentres(level, radius_rad, &rng)) {
    std::set<uint64_t> ids;
    uint64_t first = 0;
    ForEachTrixelNearPoint(p, radius_deg, level, [&](uint64_t raw) {
      if (ids.empty()) first = raw;
      EXPECT_TRUE(ids.insert(raw).second) << "id " << raw << " twice";
    });
    std::set<uint64_t> cover;
    ForEachRawInCover(Cover(Region::CircleAround(p, radius_deg), level),
                      level, [&](uint64_t raw) { cover.insert(raw); });
    const std::string where = "level " + std::to_string(level) + " r " +
                              std::to_string(radius_arcsec) + "\" at " +
                              p.ToString();
    // The home trixel comes first, and is the centre's LookupId.
    const uint64_t home = LookupId(p, level).raw();
    ASSERT_EQ(first, home) << where;
    ASSERT_TRUE(std::includes(cover.begin(), cover.end(), ids.begin(),
                              ids.end()))
        << where;
    ASSERT_TRUE(ids == cover || ids == std::set<uint64_t>{home}) << where;
    if (ids.size() == 1 && index < random_centres) ++home_only;
    ++index;
    // An orthonormal tangent basis at p, then 64 rim points.
    const Vec3 axis = std::abs(p.z) < 0.9 ? Vec3{0, 0, 1} : Vec3{1, 0, 0};
    const Vec3 u = p.Cross(axis).Normalized();
    const Vec3 w = p.Cross(u);
    for (int k = 0; k < 64; ++k) {
      const double theta = 2.0 * kPi * k / 64.0;
      const Vec3 rim =
          (p * std::cos(radius_rad) +
           (u * std::cos(theta) + w * std::sin(theta)) * std::sin(radius_rad))
              .Normalized();
      ASSERT_TRUE(ids.count(LookupId(rim, level).raw()))
          << where << " rim point " << k;
    }
  }
  // Caps a small fraction of the trixel across must often take the
  // home-only path, or the sweep above tested only the fallback.
  const double edge_arcsec = 90.0 * kArcsecPerDeg / std::ldexp(1.0, level);
  if (radius_arcsec * 8.0 < edge_arcsec) {
    EXPECT_GT(home_only * 4, random_centres) << "level " << level;
  }
}

INSTANTIATE_TEST_SUITE_P(
    LevelsAndRadii, NearPointPropertyTest,
    ::testing::Combine(::testing::Values(4, 6, 9, 12),
                       ::testing::Values(1.0, 5.0, 30.0, 120.0)),
    [](const ::testing::TestParamInfo<std::tuple<int, double>>& info) {
      std::string name = "L";
      name += std::to_string(std::get<0>(info.param));
      name += "_R";
      name += std::to_string(static_cast<int>(std::get<1>(info.param)));
      return name;
    });

// Trixel area properties per depth: counts are 8*4^L and areas sum to 4pi.
class AreaPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(AreaPropertyTest, AreasTileTheSphere) {
  int level = GetParam();
  double total = 0.0;
  uint64_t count = 0;
  // Iterate all trixels at this level via the contiguous raw-id range.
  uint64_t lo = 8ull << (2 * level);
  uint64_t hi = 16ull << (2 * level);
  for (uint64_t raw = lo; raw < hi; ++raw) {
    auto id = HtmId::FromRaw(raw);
    ASSERT_TRUE(id.ok());
    total += Trixel::FromId(*id).AreaSteradians();
    ++count;
  }
  EXPECT_EQ(count, TrixelCountAtLevel(level));
  EXPECT_NEAR(total, 4.0 * kPi, 1e-8 * static_cast<double>(count));
}

INSTANTIATE_TEST_SUITE_P(Depths, AreaPropertyTest, ::testing::Values(0, 1, 2,
                                                                     3, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           std::string name = "L";
                           name += std::to_string(info.param);
                           return name;
                         });

}  // namespace
}  // namespace sdss::htm
