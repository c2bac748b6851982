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

#include "core/angle.h"
#include "core/vec3.h"
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

  /// Walk only this trixel's subtree instead of the 8 octahedron roots.
  /// For a region known to lie inside it (a small cap inside an
  /// ancestor of its home trixel); parts outside are not covered.
  /// Invalid (the default) = the whole sphere.
  HtmId root;
};

/// Computes the trixel cover of `region`.
CoverResult Cover(const Region& region, const CoverOptions& options);

/// Convenience: cover at `level` with no trixel budget.
CoverResult Cover(const Region& region, int level);

/// Invokes `fn(raw)` for every `level`-deep raw id under the cover's
/// FULL and PARTIAL trixels (RangeAtLevel expansion). The one
/// cover-to-ids loop: ForEachTrixelNearPoint below falls back to it, so
/// keep expansions in agreement by adding callers there or here, not by
/// re-rolling the loop. (ForEachInCover below is the same walk over a
/// sparse sorted map.)
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

/// Invokes `fn(raw)` for every `level`-deep raw id whose trixel the cap
/// of `radius_deg` around the unit vector `p` may touch: p's home
/// trixel (LookupId(p, level)) first, then the others. One descent
/// locates the home with its corners; a cap inside it
/// (Trixel::ContainsCap, the common case for caps well inside their
/// trixel) emits the home alone. Any other cap falls back to Cover +
/// ForEachRawInCover, rooted at the deepest ancestor holding the cap, so
/// the ids are always a subset of the whole-sphere expansion, and
/// always hold the trixel every point of the cap locates to. The one
/// point-to-neighbour-trixels rule of the pair hasher's ghost buckets,
/// the federated join's ghost harvest and cross-match.
template <typename Fn>
void ForEachTrixelNearPoint(const Vec3& p, double radius_deg, int level,
                            Fn&& fn) {
  const Trixel home = Trixel::Locate(p, level);
  const uint64_t home_raw = home.id().raw();
  fn(home_raw);
  const double radius_rad = DegToRad(radius_deg);
  if (home.ContainsCap(p, radius_rad)) return;
  // The cover walks down from the deepest ancestor holding the whole
  // cap, not from the 8 roots: trixels outside it are disjoint anyway.
  CoverOptions options;
  options.level = level;
  for (int up = level - 1; up >= 0 && !options.root.valid(); --up) {
    const HtmId ancestor = home.id().AncestorAt(up);
    if (Trixel::FromId(ancestor).ContainsCap(p, radius_rad)) {
      options.root = ancestor;
    }
  }
  ForEachRawInCover(Cover(Region::CircleAround(p, radius_deg), options),
                    level, [&](uint64_t raw) {
                      if (raw != home_raw) fn(raw);
                    });
}

/// Invokes `fn(entry, full)` for every entry of `map` -- a sorted map
/// keyed by `level`-deep raw id, such as the container directory --
/// under the cover's FULL trixels (`full` true) and then its PARTIAL
/// ones (`full` false), each entry once per covering trixel. The one
/// cover-to-map walk shared by region scans, the density-map
/// predictors, container collection and tiling: add callers here
/// rather than re-rolling the range loop.
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
