// Property-based sweeps over the HTM cover algorithm: for many randomly
// generated regions of several shapes and several index depths, the cover
// must be SOUND (no inside point is ever lost) and FULL-EXACT (full
// trixels contain only inside points). These are the two invariants the
// whole query engine's correctness rests on.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

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
