// Property sweep: RangeSet algebra vs a reference std::set<uint64_t>
// implementation, over randomized interval workloads of varying density.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/random.h"
#include "htm/range_set.h"

namespace sdss::htm {
namespace {

std::set<uint64_t> Elements(const RangeSet& rs) {
  std::set<uint64_t> out;
  for (const auto& r : rs.ranges()) {
    for (uint64_t v = r.first; v < r.last; ++v) out.insert(v);
  }
  return out;
}

struct Workload {
  int intervals;
  uint64_t universe;
};

class RangeSetPropertyTest : public ::testing::TestWithParam<Workload> {};

TEST_P(RangeSetPropertyTest, InsertionMatchesReference) {
  auto [intervals, universe] = GetParam();
  Rng rng(1000 + static_cast<uint64_t>(intervals) + universe);
  for (int trial = 0; trial < 10; ++trial) {
    RangeSet rs;
    std::set<uint64_t> ref;
    for (int i = 0; i < intervals; ++i) {
      uint64_t a = static_cast<uint64_t>(
          rng.UniformInt(0, static_cast<int64_t>(universe)));
      uint64_t b = a + static_cast<uint64_t>(rng.UniformInt(0, 20));
      rs.Add(a, b);
      for (uint64_t v = a; v < b; ++v) ref.insert(v);
    }
    ASSERT_EQ(Elements(rs), ref);
    ASSERT_EQ(rs.CardinalityCount(), ref.size());
    // Ranges are sorted, disjoint and non-adjacent (fully coalesced).
    for (size_t i = 1; i < rs.ranges().size(); ++i) {
      ASSERT_GT(rs.ranges()[i].first, rs.ranges()[i - 1].last);
    }
    // Membership agrees on a sample.
    for (int probe = 0; probe < 100; ++probe) {
      uint64_t v = static_cast<uint64_t>(
          rng.UniformInt(0, static_cast<int64_t>(universe) + 25));
      ASSERT_EQ(rs.Contains(v), ref.count(v) > 0) << v;
    }
  }
}

TEST_P(RangeSetPropertyTest, SetAlgebraMatchesReference) {
  auto [intervals, universe] = GetParam();
  Rng rng(9000 + static_cast<uint64_t>(intervals) + universe);
  for (int trial = 0; trial < 8; ++trial) {
    RangeSet a, b;
    std::set<uint64_t> ra, rb;
    for (int i = 0; i < intervals; ++i) {
      uint64_t x = static_cast<uint64_t>(
          rng.UniformInt(0, static_cast<int64_t>(universe)));
      uint64_t y = x + static_cast<uint64_t>(rng.UniformInt(0, 15));
      if (rng.Bernoulli(0.5)) {
        a.Add(x, y);
        for (uint64_t v = x; v < y; ++v) ra.insert(v);
      } else {
        b.Add(x, y);
        for (uint64_t v = x; v < y; ++v) rb.insert(v);
      }
    }
    // Union.
    std::set<uint64_t> ref_union = ra;
    ref_union.insert(rb.begin(), rb.end());
    ASSERT_EQ(Elements(a.UnionWith(b)), ref_union);
    // Intersection.
    std::set<uint64_t> ref_inter;
    for (uint64_t v : ra) {
      if (rb.count(v)) ref_inter.insert(v);
    }
    ASSERT_EQ(Elements(a.IntersectWith(b)), ref_inter);
    // Difference.
    std::set<uint64_t> ref_diff;
    for (uint64_t v : ra) {
      if (!rb.count(v)) ref_diff.insert(v);
    }
    ASSERT_EQ(Elements(a.DifferenceWith(b)), ref_diff);
    // De Morgan-ish identity: (A \ B) ∪ (A ∩ B) == A.
    ASSERT_EQ(
        Elements(a.DifferenceWith(b).UnionWith(a.IntersectWith(b))), ra);
  }
}

TEST_P(RangeSetPropertyTest, IsSubsetOfMatchesDifferenceAndReference) {
  auto [intervals, universe] = GetParam();
  Rng rng(4400 + static_cast<uint64_t>(intervals) + universe);
  auto includes = [](const std::set<uint64_t>& outer,
                     const std::set<uint64_t>& inner) {
    return std::includes(outer.begin(), outer.end(), inner.begin(),
                         inner.end());
  };
  int subsets = 0;
  for (int trial = 0; trial < 40; ++trial) {
    // `b` is random; `a` is either independent of it, or cut from b's
    // own ranges (a subset, or one id away from being one).
    RangeSet a, b;
    for (int i = 0; i < intervals; ++i) {
      uint64_t x = static_cast<uint64_t>(
          rng.UniformInt(0, static_cast<int64_t>(universe)));
      b.Add(x, x + static_cast<uint64_t>(rng.UniformInt(0, 15)));
    }
    const int mode = static_cast<int>(rng.UniformInt(0, 2));
    if (mode == 0) {
      for (int i = 0; i < intervals / 2; ++i) {
        uint64_t x = static_cast<uint64_t>(
            rng.UniformInt(0, static_cast<int64_t>(universe)));
        a.Add(x, x + static_cast<uint64_t>(rng.UniformInt(0, 15)));
      }
    } else {
      for (const auto& r : b.ranges()) {
        if (!rng.Bernoulli(0.6)) continue;
        const int64_t len = static_cast<int64_t>(r.last - r.first);
        const int64_t off = rng.UniformInt(0, len - 1);
        const uint64_t lo = r.first + static_cast<uint64_t>(off);
        uint64_t hi = lo + static_cast<uint64_t>(rng.UniformInt(1, len - off));
        if (mode == 2 && rng.Bernoulli(0.3)) ++hi;  // One id too far.
        a.Add(lo, hi);
      }
    }
    const std::set<uint64_t> ra = Elements(a), rb = Elements(b);
    const bool expected = includes(rb, ra);
    ASSERT_EQ(a.IsSubsetOf(b), expected)
        << a.ToString() << " vs " << b.ToString();
    ASSERT_EQ(a.IsSubsetOf(b), a.DifferenceWith(b).empty());
    ASSERT_EQ(b.IsSubsetOf(a), includes(ra, rb));
    ASSERT_EQ(b.IsSubsetOf(a), b.DifferenceWith(a).empty());
    subsets += expected ? 1 : 0;
  }
  // Both verdicts were exercised.
  EXPECT_GT(subsets, 0);
  EXPECT_LT(subsets, 40);
}

INSTANTIATE_TEST_SUITE_P(
    Densities, RangeSetPropertyTest,
    ::testing::Values(Workload{5, 50},      // Sparse, heavy overlap.
                      Workload{30, 200},    // Medium.
                      Workload{100, 400},   // Dense, mostly merged.
                      Workload{50, 10000}), // Sparse over a big universe.
    [](const ::testing::TestParamInfo<Workload>& info) {
      std::string name = "I";
      name += std::to_string(info.param.intervals);
      name += "_U";
      name += std::to_string(info.param.universe);
      return name;
    });

}  // namespace
}  // namespace sdss::htm
