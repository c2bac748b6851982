// Sorted, merged half-open ranges of HTM ids at one level.
//
// Because an HTM subtree is a contiguous id interval, the output of the
// cover algorithm compresses naturally into a handful of ranges -- the
// "coarse-grained density map" containers of the paper become interval
// lookups instead of big id lists.

#ifndef SDSS_HTM_RANGE_SET_H_
#define SDSS_HTM_RANGE_SET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "htm/htm_id.h"

namespace sdss::htm {

/// An immutable-after-build set of half-open uint64 ranges [first, last),
/// kept sorted and coalesced.
class RangeSet {
 public:
  struct Range {
    uint64_t first = 0;
    uint64_t last = 0;  ///< Exclusive.
    bool operator==(const Range& o) const {
      return first == o.first && last == o.last;
    }
  };

  RangeSet() = default;

  /// Adds [first, last); merges with neighbors. Amortized O(log n) when
  /// insertions arrive roughly sorted.
  void Add(uint64_t first, uint64_t last);

  /// Adds the leaf-range of `id` expanded to `level`.
  void AddTrixel(HtmId id, int level);

  bool Contains(uint64_t value) const;
  bool empty() const { return ranges_.empty(); }
  size_t range_count() const { return ranges_.size(); }

  /// Total number of ids covered.
  uint64_t CardinalityCount() const;

  const std::vector<Range>& ranges() const { return ranges_; }

  /// Set union / intersection / difference.
  RangeSet UnionWith(const RangeSet& o) const;
  RangeSet IntersectWith(const RangeSet& o) const;
  RangeSet DifferenceWith(const RangeSet& o) const;

  /// True when every id of this set is in `o`: the same answer as
  /// DifferenceWith(o).empty(), from one merge walk that allocates
  /// nothing.
  bool IsSubsetOf(const RangeSet& o) const;

  std::string ToString() const;

  bool operator==(const RangeSet& o) const { return ranges_ == o.ranges_; }

 private:
  std::vector<Range> ranges_;
};

}  // namespace sdss::htm

#endif  // SDSS_HTM_RANGE_SET_H_
