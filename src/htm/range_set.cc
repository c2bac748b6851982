#include "htm/range_set.h"

#include <algorithm>

namespace sdss::htm {

void RangeSet::Add(uint64_t first, uint64_t last) {
  if (first >= last) return;
  // Find the first range with .last >= first (candidate for merging).
  auto it = std::lower_bound(
      ranges_.begin(), ranges_.end(), first,
      [](const Range& r, uint64_t v) { return r.last < v; });
  if (it == ranges_.end() || it->first > last) {
    ranges_.insert(it, Range{first, last});
    return;
  }
  // Merge [first, last) with every overlapping / adjacent range.
  it->first = std::min(it->first, first);
  it->last = std::max(it->last, last);
  auto next = it + 1;
  while (next != ranges_.end() && next->first <= it->last) {
    it->last = std::max(it->last, next->last);
    next = ranges_.erase(next);
  }
}

void RangeSet::AddTrixel(HtmId id, int level) {
  uint64_t first, last;
  id.RangeAtLevel(level, &first, &last);
  Add(first, last);
}

bool RangeSet::Contains(uint64_t value) const {
  auto it = std::upper_bound(
      ranges_.begin(), ranges_.end(), value,
      [](uint64_t v, const Range& r) { return v < r.first; });
  if (it == ranges_.begin()) return false;
  --it;
  return value >= it->first && value < it->last;
}

uint64_t RangeSet::CardinalityCount() const {
  uint64_t n = 0;
  for (const Range& r : ranges_) n += r.last - r.first;
  return n;
}

RangeSet RangeSet::UnionWith(const RangeSet& o) const {
  RangeSet out = *this;
  for (const Range& r : o.ranges_) out.Add(r.first, r.last);
  return out;
}

RangeSet RangeSet::IntersectWith(const RangeSet& o) const {
  RangeSet out;
  auto a = ranges_.begin();
  auto b = o.ranges_.begin();
  while (a != ranges_.end() && b != o.ranges_.end()) {
    uint64_t lo = std::max(a->first, b->first);
    uint64_t hi = std::min(a->last, b->last);
    if (lo < hi) out.Add(lo, hi);
    if (a->last < b->last) {
      ++a;
    } else {
      ++b;
    }
  }
  return out;
}

RangeSet RangeSet::DifferenceWith(const RangeSet& o) const {
  RangeSet out;
  auto b = o.ranges_.begin();
  for (const Range& r : ranges_) {
    uint64_t cur = r.first;
    while (cur < r.last) {
      while (b != o.ranges_.end() && b->last <= cur) ++b;
      if (b == o.ranges_.end() || b->first >= r.last) {
        out.Add(cur, r.last);
        break;
      }
      if (b->first > cur) out.Add(cur, b->first);
      cur = std::max(cur, b->last);
    }
    // Reset not needed: ranges_ and o.ranges_ are both sorted, and `cur`
    // only moves forward, so `b` never needs to rewind.
  }
  return out;
}

bool RangeSet::IsSubsetOf(const RangeSet& o) const {
  // Both sets are coalesced (Add merges touching ranges), so a range of
  // this set is covered only by a single range of `o` that spans it.
  auto b = o.ranges_.begin();
  for (const Range& r : ranges_) {
    while (b != o.ranges_.end() && b->last <= r.first) ++b;
    if (b == o.ranges_.end() || b->first > r.first || b->last < r.last) {
      return false;
    }
  }
  return true;
}

std::string RangeSet::ToString() const {
  std::string s = "{";
  for (size_t i = 0; i < ranges_.size(); ++i) {
    if (i > 0) s += ", ";
    s += "[";
    s += std::to_string(ranges_[i].first);
    s += ",";
    s += std::to_string(ranges_[i].last);
    s += ")";
  }
  s += "}";
  return s;
}

}  // namespace sdss::htm
