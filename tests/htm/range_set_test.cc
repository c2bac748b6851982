#include "htm/range_set.h"

#include <gtest/gtest.h>

namespace sdss::htm {
namespace {

TEST(RangeSetTest, EmptyByDefault) {
  RangeSet rs;
  EXPECT_TRUE(rs.empty());
  EXPECT_EQ(rs.CardinalityCount(), 0u);
  EXPECT_FALSE(rs.Contains(0));
  EXPECT_EQ(rs.ToString(), "{}");
}

TEST(RangeSetTest, SingleRange) {
  RangeSet rs;
  rs.Add(10, 20);
  EXPECT_EQ(rs.range_count(), 1u);
  EXPECT_EQ(rs.CardinalityCount(), 10u);
  EXPECT_TRUE(rs.Contains(10));
  EXPECT_TRUE(rs.Contains(19));
  EXPECT_FALSE(rs.Contains(9));
  EXPECT_FALSE(rs.Contains(20));
}

TEST(RangeSetTest, EmptyIntervalIgnored) {
  RangeSet rs;
  rs.Add(5, 5);
  rs.Add(7, 6);
  EXPECT_TRUE(rs.empty());
}

TEST(RangeSetTest, AdjacentRangesMerge) {
  RangeSet rs;
  rs.Add(10, 20);
  rs.Add(20, 30);
  EXPECT_EQ(rs.range_count(), 1u);
  EXPECT_EQ(rs.ranges()[0], (RangeSet::Range{10, 30}));
}

TEST(RangeSetTest, OverlappingRangesMerge) {
  RangeSet rs;
  rs.Add(10, 25);
  rs.Add(20, 30);
  rs.Add(5, 12);
  EXPECT_EQ(rs.range_count(), 1u);
  EXPECT_EQ(rs.ranges()[0], (RangeSet::Range{5, 30}));
}

TEST(RangeSetTest, DisjointRangesStaySeparate) {
  RangeSet rs;
  rs.Add(10, 20);
  rs.Add(30, 40);
  EXPECT_EQ(rs.range_count(), 2u);
  EXPECT_FALSE(rs.Contains(25));
}

TEST(RangeSetTest, BridgingRangeMergesMany) {
  RangeSet rs;
  rs.Add(0, 5);
  rs.Add(10, 15);
  rs.Add(20, 25);
  rs.Add(3, 22);  // Bridges all three.
  EXPECT_EQ(rs.range_count(), 1u);
  EXPECT_EQ(rs.ranges()[0], (RangeSet::Range{0, 25}));
}

TEST(RangeSetTest, OutOfOrderInsertions) {
  RangeSet rs;
  rs.Add(50, 60);
  rs.Add(10, 20);
  rs.Add(30, 40);
  EXPECT_EQ(rs.range_count(), 3u);
  EXPECT_EQ(rs.ranges()[0].first, 10u);
  EXPECT_EQ(rs.ranges()[1].first, 30u);
  EXPECT_EQ(rs.ranges()[2].first, 50u);
}

TEST(RangeSetTest, AddTrixelExpandsToLevel) {
  RangeSet rs;
  HtmId id = HtmId::Base(0);  // raw 8.
  rs.AddTrixel(id, 2);        // 16 leaf ids: [128, 144).
  EXPECT_EQ(rs.CardinalityCount(), 16u);
  EXPECT_TRUE(rs.Contains(128));
  EXPECT_TRUE(rs.Contains(143));
  EXPECT_FALSE(rs.Contains(144));
}

TEST(RangeSetTest, SiblingTrixelsCoalesce) {
  RangeSet rs;
  for (int c = 0; c < 4; ++c) {
    rs.AddTrixel(HtmId::Base(1).Child(c), 4);
  }
  // Four siblings tile the parent exactly: one contiguous range.
  EXPECT_EQ(rs.range_count(), 1u);
  RangeSet parent;
  parent.AddTrixel(HtmId::Base(1), 4);
  EXPECT_EQ(rs, parent);
}

TEST(RangeSetTest, UnionWith) {
  RangeSet a, b;
  a.Add(0, 10);
  a.Add(20, 30);
  b.Add(5, 25);
  b.Add(40, 50);
  RangeSet u = a.UnionWith(b);
  EXPECT_EQ(u.range_count(), 2u);
  EXPECT_EQ(u.CardinalityCount(), 30u + 10u);
}

TEST(RangeSetTest, IntersectWith) {
  RangeSet a, b;
  a.Add(0, 10);
  a.Add(20, 30);
  b.Add(5, 25);
  RangeSet i = a.IntersectWith(b);
  EXPECT_EQ(i.range_count(), 2u);
  EXPECT_TRUE(i.Contains(5));
  EXPECT_TRUE(i.Contains(9));
  EXPECT_FALSE(i.Contains(10));
  EXPECT_TRUE(i.Contains(20));
  EXPECT_TRUE(i.Contains(24));
  EXPECT_FALSE(i.Contains(25));
  EXPECT_EQ(i.CardinalityCount(), 5u + 5u);
}

TEST(RangeSetTest, IntersectDisjointIsEmpty) {
  RangeSet a, b;
  a.Add(0, 10);
  b.Add(10, 20);
  EXPECT_TRUE(a.IntersectWith(b).empty());
}

TEST(RangeSetTest, DifferenceWith) {
  RangeSet a, b;
  a.Add(0, 100);
  b.Add(10, 20);
  b.Add(50, 60);
  RangeSet d = a.DifferenceWith(b);
  EXPECT_EQ(d.range_count(), 3u);
  EXPECT_EQ(d.CardinalityCount(), 100u - 20u);
  EXPECT_TRUE(d.Contains(0));
  EXPECT_FALSE(d.Contains(15));
  EXPECT_TRUE(d.Contains(25));
  EXPECT_FALSE(d.Contains(55));
  EXPECT_TRUE(d.Contains(99));
}

TEST(RangeSetTest, DifferenceRemovingEverything) {
  RangeSet a, b;
  a.Add(10, 20);
  b.Add(0, 100);
  EXPECT_TRUE(a.DifferenceWith(b).empty());
}

TEST(RangeSetTest, DifferenceWithEmpty) {
  RangeSet a, empty;
  a.Add(1, 5);
  EXPECT_EQ(a.DifferenceWith(empty), a);
  EXPECT_TRUE(empty.DifferenceWith(a).empty());
}

TEST(RangeSetTest, IsSubsetOfEmptySets) {
  RangeSet a, empty;
  a.Add(3, 9);
  // The empty set is a subset of everything, itself included; nothing
  // non-empty is a subset of it.
  EXPECT_TRUE(empty.IsSubsetOf(empty));
  EXPECT_TRUE(empty.IsSubsetOf(a));
  EXPECT_FALSE(a.IsSubsetOf(empty));
  EXPECT_TRUE(a.IsSubsetOf(a));
}

TEST(RangeSetTest, IsSubsetOfInsideAndStraddling) {
  RangeSet outer;
  outer.Add(10, 20);
  outer.Add(40, 60);
  RangeSet inside;
  inside.Add(12, 15);
  inside.Add(40, 60);
  EXPECT_TRUE(inside.IsSubsetOf(outer));
  EXPECT_FALSE(outer.IsSubsetOf(inside));

  // Spans the gap between two outer ranges.
  RangeSet straddle;
  straddle.Add(15, 45);
  EXPECT_FALSE(straddle.IsSubsetOf(outer));
  // One id past either end of an outer range.
  RangeSet low, high;
  low.Add(9, 12);
  high.Add(55, 61);
  EXPECT_FALSE(low.IsSubsetOf(outer));
  EXPECT_FALSE(high.IsSubsetOf(outer));
  // Entirely beyond the last outer range.
  RangeSet beyond;
  beyond.Add(70, 71);
  EXPECT_FALSE(beyond.IsSubsetOf(outer));
}

TEST(RangeSetTest, IsSubsetOfRangesTouchingAtTheExclusiveEnd) {
  // [0,5) and [5,10) touch at 5, the first range's exclusive end: they
  // coalesce, so together they cover [2,8).
  RangeSet touching;
  touching.Add(0, 5);
  touching.Add(5, 10);
  RangeSet across;
  across.Add(2, 8);
  EXPECT_TRUE(across.IsSubsetOf(touching));
  EXPECT_EQ(across.IsSubsetOf(touching),
            across.DifferenceWith(touching).empty());

  // An inner range that ends exactly where the outer one ends is inside;
  // one that starts at the outer exclusive end is not.
  RangeSet outer;
  outer.Add(0, 5);
  RangeSet ends_at, starts_at;
  ends_at.Add(3, 5);
  starts_at.Add(5, 6);
  EXPECT_TRUE(ends_at.IsSubsetOf(outer));
  EXPECT_FALSE(starts_at.IsSubsetOf(outer));
  // Ranges touching at 5 but with a hole elsewhere stay refused.
  RangeSet gap;
  gap.Add(0, 5);
  gap.Add(6, 10);
  EXPECT_FALSE(across.IsSubsetOf(gap));
}

TEST(RangeSetTest, SetAlgebraIdentity) {
  // (A ∪ B) \ B ⊆ A and A ∩ (A ∪ B) == A.
  RangeSet a, b;
  a.Add(0, 50);
  a.Add(100, 150);
  b.Add(40, 110);
  RangeSet u = a.UnionWith(b);
  EXPECT_EQ(a.IntersectWith(u), a);
  RangeSet diff = u.DifferenceWith(b);
  for (const auto& r : diff.ranges()) {
    for (uint64_t v = r.first; v < r.last; ++v) {
      EXPECT_TRUE(a.Contains(v));
    }
  }
}

}  // namespace
}  // namespace sdss::htm
