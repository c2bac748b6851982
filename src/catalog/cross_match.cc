#include "catalog/cross_match.h"

#include <cmath>

#include "core/angle.h"
#include "htm/cover.h"
#include "htm/region.h"

namespace sdss::catalog {

std::vector<MatchPair> CrossMatch(const ObjectStore& a, const ObjectStore& b,
                                  const CrossMatchOptions& options,
                                  CrossMatchStats* stats) {
  std::vector<MatchPair> out;
  CrossMatchStats local;
  double radius_rad = ArcsecToRad(options.radius_arcsec);
  double cos_radius = std::cos(radius_rad);
  int level = b.cluster_level();

  a.ForEachObject([&](const PhotoObj& oa) {
    // Containers of B whose trixels can hold a neighbor within radius.
    htm::Region cap = htm::Region::CircleAround(
        oa.pos, ArcsecToDeg(options.radius_arcsec));
    htm::CoverResult cover = htm::Cover(cap, level);

    MatchPair best;
    bool have_best = false;
    auto consider = [&](const Container* c) {
      if (c == nullptr) return;
      const ColumnarBlock& cb = c->columnar;
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
    };
    htm::ForEachInCover(cover, level, b.containers(),
                        [&](const auto& entry, bool) {
                          consider(&entry.second);
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
