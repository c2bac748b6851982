// The recursive sky-cover algorithm of the paper (Figure 4).
//
// "Run a test between the query polyhedron and the spherical triangles
// corresponding to the tree root nodes. ... Classify nodes, as fully
// outside the query, fully inside the query or partially intersecting the
// query polyhedron. If a node is rejected, that node's children can be
// ignored. Only the children of bisected triangles need be further
// investigated."
//
// Coverer walks the trixel quad-tree from the 8 octahedron roots down to a
// configurable leaf level, classifying each node against a Region and
// producing (a) coarse FULL trixels whose whole subtree is accepted and
// (b) leaf-level PARTIAL trixels that require per-object filtering.

#ifndef SDSS_HTM_COVER_H_
#define SDSS_HTM_COVER_H_

#include <cstdint>
#include <vector>

#include "htm/range_set.h"
#include "htm/region.h"
#include "htm/trixel.h"

namespace sdss::htm {

/// The result of covering a Region with trixels.
struct CoverResult {
  int level = 0;  ///< Leaf level the cover was computed to.

  /// Trixels (possibly coarser than `level`) entirely inside the region:
  /// every object in them satisfies the spatial predicate with no test.
  std::vector<HtmId> full;

  /// Leaf-level trixels bisected by the region boundary: objects in them
  /// need the exact Region::Contains test.
  std::vector<HtmId> partial;

  /// Per-level classification counts, for instrumentation (reproduces the
  /// Figure 4 illustration of which triangles were selected per level).
  struct LevelStats {
    uint64_t tested = 0;
    uint64_t full = 0;
    uint64_t partial = 0;
    uint64_t disjoint = 0;
  };
  std::vector<LevelStats> level_stats;

  /// All accepted ids (full subtrees expanded + partials) as leaf ranges.
  RangeSet ToRangeSet() const;

  /// Leaf ranges of only the FULL portion.
  RangeSet FullRangeSet() const;

  /// Leaf ranges of only the PARTIAL portion.
  RangeSet PartialRangeSet() const;

  /// Total sky area of the accepted trixels (square degrees); FULL area
  /// plus PARTIAL area. Used for the paper's output-volume prediction.
  double FullAreaSquareDegrees() const;
  double PartialAreaSquareDegrees() const;
};

/// Options controlling the cover recursion.
struct CoverOptions {
  /// Leaf level of the recursion (container clustering depth by default).
  int level = 6;

  /// Stop subdividing a PARTIAL trixel early once this many total output
  /// trixels exist; remaining partials are emitted at their current level
  /// expanded to leaves. 0 = unlimited (exact cover to `level`).
  size_t max_trixels = 0;
};

/// Computes the trixel cover of `region`.
CoverResult Cover(const Region& region, const CoverOptions& options);

/// Convenience: cover at `level` with no trixel budget.
CoverResult Cover(const Region& region, int level);

/// Invokes `fn(raw)` for every `level`-deep raw id under the cover's
/// FULL and PARTIAL trixels (RangeAtLevel expansion). The one
/// cover-to-ids loop shared by the pair hasher's ghost buckets and the
/// federated join's ghost harvest -- keep expansions in agreement by
/// adding callers here, not by re-rolling the loop. (ForEachInCover
/// below is the same walk over a sparse sorted map.)
template <typename Fn>
void ForEachRawInCover(const CoverResult& cover, int level, Fn&& fn) {
  auto expand = [&](HtmId id) {
    uint64_t first, last;
    id.RangeAtLevel(level, &first, &last);
    for (uint64_t raw = first; raw < last; ++raw) fn(raw);
  };
  for (HtmId id : cover.full) expand(id);
  for (HtmId id : cover.partial) expand(id);
}

/// Invokes `fn(entry, full)` for every entry of `map` -- a sorted map
/// keyed by `level`-deep raw id, such as the container directory --
/// under the cover's FULL trixels (`full` true) and then its PARTIAL
/// ones (`full` false), each entry once per covering trixel. The one
/// cover-to-map walk shared by region scans, the density-map
/// predictors, container collection, cross-match and tiling: add
/// callers here rather than re-rolling the range loop.
template <typename Map, typename Fn>
void ForEachInCover(const CoverResult& cover, int level, const Map& map,
                    Fn&& fn) {
  auto walk = [&](HtmId id, bool full) {
    uint64_t first, last;
    id.RangeAtLevel(level, &first, &last);
    for (auto it = map.lower_bound(first); it != map.end() && it->first < last;
         ++it) {
      fn(*it, full);
    }
  };
  for (HtmId id : cover.full) walk(id, true);
  for (HtmId id : cover.partial) walk(id, false);
}

}  // namespace sdss::htm

#endif  // SDSS_HTM_COVER_H_
