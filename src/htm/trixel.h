// Trixel geometry: vertices, subdivision, point location, areas, caps.
//
// A trixel is a spherical triangle of the HTM hierarchy (Figure 3 of the
// paper). All geometry is done on unit vectors; point-in-trixel tests are
// three cross-product sign tests, and child trixels are built from the
// normalized edge midpoints of the parent.

#ifndef SDSS_HTM_TRIXEL_H_
#define SDSS_HTM_TRIXEL_H_

#include <array>
#include <vector>

#include "core/vec3.h"
#include "htm/htm_id.h"

namespace sdss::htm {

/// A spherical cap: all points within angular radius `radius_rad` of the
/// unit direction `center`. Used for cheap trixel/region rejection tests.
struct Cap {
  Vec3 center;
  double radius_rad = 0.0;
};

/// The geometry of one HTM trixel: its id plus the three unit-vector
/// corners in the canonical counterclockwise (seen from outside) order.
class Trixel {
 public:
  /// Geometry of the trixel named by `id`. Walks down from the base
  /// octahedron face, so cost is O(level).
  static Trixel FromId(HtmId id);

  /// The level-`level` trixel containing unit vector `p`, with its
  /// corners: the one point-location descent (LookupId is its id).
  /// Points exactly on shared boundaries resolve deterministically to
  /// one of the adjacent trixels. `level` must be in [0, kMaxLevel].
  static Trixel Locate(const Vec3& p, int level);

  HtmId id() const { return id_; }
  const Vec3& v0() const { return v_[0]; }
  const Vec3& v1() const { return v_[1]; }
  const Vec3& v2() const { return v_[2]; }
  const std::array<Vec3, 3>& vertices() const { return v_; }

  /// The four children in HTM child order:
  ///   child 0 = (v0, w2, w1), 1 = (v1, w0, w2), 2 = (v2, w1, w0),
  ///   3 = (w0, w1, w2) where wi is the normalized midpoint opposite vi.
  std::array<Trixel, 4> Children() const;

  /// True if the unit vector `p` lies inside (or on the boundary of) this
  /// spherical triangle.
  bool Contains(const Vec3& p) const;

  /// True if the whole cap of angular radius `radius_rad` around the unit
  /// vector `p` lies inside this trixel: p is at least that far from each
  /// edge's great circle, p . n >= sin(radius) for every unit inward edge
  /// normal n. Conservative -- caps within a small slack of an edge
  /// answer false -- so every point of a cap it accepts locates
  /// (LookupId) to this trixel. Costs three dot products, no descent.
  bool ContainsCap(const Vec3& p, double radius_rad) const;

  /// Normalized centroid of the three corners.
  Vec3 Center() const { return (v_[0] + v_[1] + v_[2]).Normalized(); }

  /// Smallest cap centered at Center() containing all three corners.
  Cap BoundingCap() const;

  /// Solid angle in steradians (L'Huilier's formula).
  double AreaSteradians() const;

  /// Solid angle in square degrees.
  double AreaSquareDegrees() const;

  /// Ids of the trixels sharing an edge or vertex with this one at the
  /// same level (8-12 ids typically; 3 edge neighbors + vertex neighbors).
  std::vector<HtmId> Neighbors() const;

 private:
  Trixel(HtmId id, const Vec3& a, const Vec3& b, const Vec3& c)
      : id_(id), v_{a, b, c} {}

  HtmId id_;
  std::array<Vec3, 3> v_;
};

/// Id of the level-`level` trixel containing unit vector `p`:
/// Trixel::Locate(p, level).id().
HtmId LookupId(const Vec3& p, int level);

/// Convenience overload taking (ra, dec) degrees in the Equatorial frame.
HtmId LookupId(double ra_deg, double dec_deg, int level);

}  // namespace sdss::htm

#endif  // SDSS_HTM_TRIXEL_H_
