#include "htm/trixel.h"

#include <algorithm>
#include <cmath>

#include "core/angle.h"
#include "core/coords.h"

namespace sdss::htm {
namespace {

// Octahedron corners (the roots of Figure 3 in the paper).
constexpr Vec3 kV0{0, 0, 1};    // North pole.
constexpr Vec3 kV1{1, 0, 0};
constexpr Vec3 kV2{0, 1, 0};
constexpr Vec3 kV3{-1, 0, 0};
constexpr Vec3 kV4{0, -1, 0};
constexpr Vec3 kV5{0, 0, -1};  // South pole.

// Corner triplets for the 8 base trixels, in raw-id order 8..15
// (S0..S3, N0..N3), each counterclockwise seen from outside the sphere.
struct BaseTriple {
  Vec3 a, b, c;
};
constexpr BaseTriple kBase[8] = {
    {kV1, kV5, kV2},  // S0 (raw 8)
    {kV2, kV5, kV3},  // S1 (raw 9)
    {kV3, kV5, kV4},  // S2 (raw 10)
    {kV4, kV5, kV1},  // S3 (raw 11)
    {kV1, kV0, kV4},  // N0 (raw 12)
    {kV4, kV0, kV3},  // N1 (raw 13)
    {kV3, kV0, kV2},  // N2 (raw 14)
    {kV2, kV0, kV1},  // N3 (raw 15)
};

// Tolerance for boundary point tests: points this close to an edge plane
// are treated as inside so that lookup never loses a point to roundoff.
constexpr double kEdgeEps = 1e-13;

// ContainsCap's slack, in the same unnormalized units as kEdgeEps (a
// dot product with an edge's unnormalized cross product). A cap it
// accepts keeps every point at least this far inside each edge, 100x
// the slack point location grants, so no point of the cap can locate
// into a neighbour. In angle that is ~1e-11 rad at level 0 and ~4e-8
// rad (8 mas) at level 12.
constexpr double kCapSlack = 100 * kEdgeEps;

bool InsideEps(const Vec3& a, const Vec3& b, const Vec3& c, const Vec3& p,
               double eps) {
  return a.Cross(b).Dot(p) >= -eps && b.Cross(c).Dot(p) >= -eps &&
         c.Cross(a).Dot(p) >= -eps;
}

Vec3 Mid(const Vec3& a, const Vec3& b) { return (a + b).Normalized(); }

}  // namespace

Trixel Trixel::FromId(HtmId id) {
  uint64_t raw = id.raw();
  int level = id.level();
  const BaseTriple& base = kBase[(raw >> (2 * level)) - 8];
  Vec3 a = base.a, b = base.b, c = base.c;
  for (int i = level - 1; i >= 0; --i) {
    int child = static_cast<int>((raw >> (2 * i)) & 3);
    Vec3 w0 = Mid(b, c), w1 = Mid(a, c), w2 = Mid(a, b);
    switch (child) {
      case 0:
        b = w2;
        c = w1;
        break;
      case 1:
        a = b;
        b = w0;
        c = w2;
        break;
      case 2:
        a = c;
        b = w1;
        c = w0;
        break;
      default:
        a = w0;
        b = w1;
        c = w2;
        break;
    }
  }
  return Trixel(id, a, b, c);
}

std::array<Trixel, 4> Trixel::Children() const {
  const Vec3 &a = v_[0], &b = v_[1], &c = v_[2];
  Vec3 w0 = Mid(b, c), w1 = Mid(a, c), w2 = Mid(a, b);
  return {Trixel(id_.Child(0), a, w2, w1), Trixel(id_.Child(1), b, w0, w2),
          Trixel(id_.Child(2), c, w1, w0), Trixel(id_.Child(3), w0, w1, w2)};
}

bool Trixel::Contains(const Vec3& p) const {
  return InsideEps(v_[0], v_[1], v_[2], p, kEdgeEps);
}

bool Trixel::ContainsCap(const Vec3& p, double radius_rad) const {
  // A trixel lies within a hemisphere; a cap of a quarter turn or more
  // never fits (and sin stops growing there).
  if (radius_rad >= kPi / 2) return false;
  const double sin_r = std::sin(radius_rad);
  for (int i = 0; i < 3; ++i) {
    const Vec3 n = v_[i].Cross(v_[(i + 1) % 3]);
    if (p.Dot(n) < sin_r * n.Norm() + kCapSlack) return false;
  }
  return true;
}

Cap Trixel::BoundingCap() const {
  Cap cap;
  cap.center = Center();
  double min_cos = 1.0;
  for (const Vec3& v : v_) min_cos = std::min(min_cos, cap.center.Dot(v));
  cap.radius_rad = std::acos(std::clamp(min_cos, -1.0, 1.0));
  return cap;
}

double Trixel::AreaSteradians() const {
  // L'Huilier: tan(E/4) = sqrt(tan(s/2) tan((s-a)/2) tan((s-b)/2)
  // tan((s-c)/2)) with a, b, c the arc side lengths.
  double a = v_[1].AngleTo(v_[2]);
  double b = v_[0].AngleTo(v_[2]);
  double c = v_[0].AngleTo(v_[1]);
  double s = 0.5 * (a + b + c);
  double t = std::tan(0.5 * s) * std::tan(0.5 * (s - a)) *
             std::tan(0.5 * (s - b)) * std::tan(0.5 * (s - c));
  return 4.0 * std::atan(std::sqrt(std::max(0.0, t)));
}

double Trixel::AreaSquareDegrees() const {
  return AreaSteradians() * kDegPerRad * kDegPerRad;
}

std::vector<HtmId> Trixel::Neighbors() const {
  int level = id_.level();
  Vec3 center = Center();
  std::vector<HtmId> out;
  auto add = [&](const Vec3& probe) {
    HtmId n = LookupId(probe.Normalized(), level);
    if (n != id_ &&
        std::find(out.begin(), out.end(), n) == out.end()) {
      out.push_back(n);
    }
  };
  // Edge neighbors: reflect the centroid across each edge's great-circle
  // plane; the reflected point lies in the adjacent trixel.
  for (int i = 0; i < 3; ++i) {
    const Vec3& a = v_[i];
    const Vec3& b = v_[(i + 1) % 3];
    Vec3 n = a.Cross(b).Normalized();
    Vec3 reflected = center - n * (2.0 * center.Dot(n));
    add(reflected);
  }
  // Vertex neighbors: probe just beyond each corner, on the far side from
  // the centroid, plus two side-steps to catch all trixels meeting there.
  for (int i = 0; i < 3; ++i) {
    const Vec3& v = v_[i];
    Vec3 away = (v - center).Normalized();
    Vec3 tangent = v.Cross(away).Normalized();
    double step = 1e-4;
    add(v + away * step);
    add(v + away * step + tangent * step);
    add(v + away * step - tangent * step);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Trixel Trixel::Locate(const Vec3& p, int level) {
  Vec3 q = p.Normalized();
  // Find the base trixel. The epsilon test guarantees boundary points match
  // at least one face; take the first.
  int base = -1;
  for (int i = 0; i < 8; ++i) {
    if (InsideEps(kBase[i].a, kBase[i].b, kBase[i].c, q, kEdgeEps)) {
      base = i;
      break;
    }
  }
  if (base < 0) base = q.z >= 0 ? 4 : 0;  // Unreachable fallback.

  // HtmId::Base maps 0..3->S0..S3 (raw 8..11), 4..7->N0..N3 (raw 12..15),
  // matching kBase's ordering.
  HtmId id = HtmId::Base(base);
  Vec3 a = kBase[base].a, b = kBase[base].b, c = kBase[base].c;
  for (int l = 0; l < level; ++l) {
    Vec3 w0 = Mid(b, c), w1 = Mid(a, c), w2 = Mid(a, b);
    if (InsideEps(a, w2, w1, q, kEdgeEps)) {
      id = id.Child(0);
      b = w2;
      c = w1;
    } else if (InsideEps(b, w0, w2, q, kEdgeEps)) {
      id = id.Child(1);
      a = b;
      b = w0;
      c = w2;
    } else if (InsideEps(c, w1, w0, q, kEdgeEps)) {
      id = id.Child(2);
      a = c;
      b = w1;
      c = w0;
    } else {
      id = id.Child(3);
      a = w0;
      b = w1;
      c = w2;
    }
  }
  return Trixel(id, a, b, c);
}

HtmId LookupId(const Vec3& p, int level) {
  return Trixel::Locate(p, level).id();
}

HtmId LookupId(double ra_deg, double dec_deg, int level) {
  return LookupId(UnitVectorFromSpherical(ra_deg, dec_deg), level);
}

}  // namespace sdss::htm
