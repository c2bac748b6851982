#include "catalog/cross_match.h"

#include <cmath>

#include "core/angle.h"
#include "htm/cover.h"

namespace sdss::catalog {

std::vector<MatchPair> CrossMatch(const ObjectStore& a, const ObjectStore& b,
                                  const CrossMatchOptions& options,
                                  CrossMatchStats* stats) {
  std::vector<MatchPair> out;
  CrossMatchStats local;
  double radius_deg = ArcsecToDeg(options.radius_arcsec);
  double cos_radius = std::cos(ArcsecToRad(options.radius_arcsec));
  int level = b.cluster_level();

  a.ForEachObject([&](const PhotoObj& oa) {
    MatchPair best;
    bool have_best = false;
    // Containers of B whose trixels can hold a neighbor within radius.
    htm::ForEachTrixelNearPoint(oa.pos, radius_deg, level, [&](uint64_t raw) {
      auto it = b.containers().find(raw);
      if (it == b.containers().end()) return;
      const ColumnarBlock& cb = it->second.columnar;
      for (size_t k = 0; k < cb.n; ++k) {
        ++local.candidates_tested;
        const Vec3 pos_b = cb.Position(k);
        if (oa.pos.Dot(pos_b) < cos_radius) continue;
        MatchPair m;
        m.obj_id_a = oa.obj_id;
        m.obj_id_b = cb.obj_id[k];
        m.separation_arcsec = RadToArcsec(oa.pos.AngleTo(pos_b));
        if (options.best_match_only) {
          if (!have_best || m.separation_arcsec < best.separation_arcsec) {
            best = m;
            have_best = true;
          }
        } else {
          out.push_back(m);
          ++local.matches;
        }
      }
    });

    if (options.best_match_only && have_best) {
      out.push_back(best);
      ++local.matches;
    }
  });

  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace sdss::catalog
