#include "catalog/tiling.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "core/angle.h"
#include "htm/cover.h"
#include "htm/region.h"
#include "htm/trixel.h"

namespace sdss::catalog {

const char* TargetClassName(TargetClass c) {
  switch (c) {
    case TargetClass::kMainGalaxy:
      return "MAIN";
    case TargetClass::kRedGalaxy:
      return "RED";
    case TargetClass::kQuasar:
      return "QSO";
  }
  return "?";
}

std::vector<Target> SelectTargets(const ObjectStore& store,
                                  const SelectionCuts& cuts) {
  std::vector<Target> out;
  store.ForEachObject([&](const PhotoObj& o) {
    Target t;
    t.obj_id = o.obj_id;
    t.pos = o.pos;
    if (o.obj_class == ObjClass::kGalaxy) {
      // Main sample: magnitude + surface-brightness limited.
      if (o.mag[kR] < cuts.main_r_limit &&
          o.surface_brightness < cuts.main_sb_limit) {
        t.target_class = TargetClass::kMainGalaxy;
        out.push_back(t);
        return;
      }
      // Very red galaxies to a fainter limit.
      if (o.Color(kG, kR) >= cuts.red_color_min &&
          o.mag[kR] < cuts.red_r_limit) {
        t.target_class = TargetClass::kRedGalaxy;
        out.push_back(t);
        return;
      }
      return;
    }
    // Quasar candidates: UV excess, point-like, bright enough.
    if (o.Color(kU, kG) <= cuts.quasar_ug_max &&
        o.mag[kR] < cuts.quasar_r_limit && o.petro_radius_arcsec < 2.5f) {
      t.target_class = TargetClass::kQuasar;
      out.push_back(t);
    }
  });
  return out;
}

namespace {

// Target indices within `radius_rad` of a candidate center, found via the
// HTM cover over a bucket map of targets.
std::vector<uint32_t> TargetsNear(
    const Vec3& center, double radius_deg, int level,
    const std::map<uint64_t, std::vector<uint32_t>>& buckets,
    const std::vector<Target>& targets) {
  std::vector<uint32_t> out;
  double cos_r = std::cos(DegToRad(radius_deg));
  htm::CoverResult cover =
      htm::Cover(htm::Region::CircleAround(center, radius_deg), level);
  htm::ForEachInCover(cover, level, buckets, [&](const auto& bucket, bool) {
    for (uint32_t idx : bucket.second) {
      if (targets[idx].pos.Dot(center) >= cos_r) out.push_back(idx);
    }
  });
  return out;
}

}  // namespace

Result<TilingResult> PlaceTiles(const std::vector<Target>& targets,
                                const TilingOptions& options) {
  if (options.tile_radius_deg <= 0.0) {
    return Status::InvalidArgument("tile radius must be positive");
  }
  if (options.fibers_per_tile <= 0) {
    return Status::InvalidArgument("fibers_per_tile must be positive");
  }

  TilingResult result;
  result.targets_total = targets.size();
  if (targets.empty()) return result;

  int level = options.candidate_level;

  // Bucket targets by trixel; candidate tile centers are the centers of
  // occupied trixels and their neighbors (dense areas propose tiles).
  std::map<uint64_t, std::vector<uint32_t>> buckets;
  for (uint32_t i = 0; i < targets.size(); ++i) {
    buckets[htm::LookupId(targets[i].pos, level).raw()].push_back(i);
  }
  std::set<uint64_t> candidate_ids;
  for (const auto& [raw, members] : buckets) {
    candidate_ids.insert(raw);
    auto id = htm::HtmId::FromRaw(raw);
    if (!id.ok()) return id.status();
    for (htm::HtmId n : htm::Trixel::FromId(*id).Neighbors()) {
      candidate_ids.insert(n.raw());
    }
  }

  // Precompute each candidate's reachable-target list.
  struct Candidate {
    Vec3 center;
    std::vector<uint32_t> reach;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(candidate_ids.size());
  for (uint64_t raw : candidate_ids) {
    auto id = htm::HtmId::FromRaw(raw);
    if (!id.ok()) return id.status();
    Candidate c;
    c.center = htm::Trixel::FromId(*id).Center();
    c.reach = TargetsNear(c.center, options.tile_radius_deg, level, buckets,
                          targets);
    if (!c.reach.empty()) candidates.push_back(std::move(c));
  }

  std::vector<bool> assigned(targets.size(), false);
  std::vector<bool> reachable(targets.size(), false);
  for (const Candidate& c : candidates) {
    for (uint32_t idx : c.reach) reachable[idx] = true;
  }
  for (size_t i = 0; i < targets.size(); ++i) {
    if (!reachable[i]) ++result.targets_unreachable;
  }
  uint64_t assignable =
      result.targets_total - result.targets_unreachable;

  double min_sep_cos = std::cos(ArcsecToRad(options.fiber_collision_arcsec));
  uint64_t goal = static_cast<uint64_t>(
      std::ceil(options.target_coverage * static_cast<double>(assignable)));

  while (result.targets_assigned < goal) {
    if (options.max_tiles > 0 && result.tiles.size() >= options.max_tiles) {
      break;
    }
    // Pick the candidate covering the most unassigned targets.
    size_t best = candidates.size();
    size_t best_gain = 0;
    for (size_t ci = 0; ci < candidates.size(); ++ci) {
      size_t gain = 0;
      for (uint32_t idx : candidates[ci].reach) {
        if (!assigned[idx]) ++gain;
      }
      if (gain > best_gain) {
        best_gain = gain;
        best = ci;
      }
    }
    if (best == candidates.size() || best_gain == 0) break;

    // Assign fibers on the winning tile, respecting the collision limit.
    Candidate& c = candidates[best];
    Tile tile;
    tile.center = c.center;
    std::vector<uint32_t> order;
    for (uint32_t idx : c.reach) {
      if (!assigned[idx]) order.push_back(idx);
    }
    // Deterministic priority: quasars, then red, then main, by id.
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      auto ka = static_cast<int>(targets[a].target_class);
      auto kb = static_cast<int>(targets[b].target_class);
      // Quasar(2) > Red(1) > Main(0): higher class first.
      if (ka != kb) return ka > kb;
      return targets[a].obj_id < targets[b].obj_id;
    });
    std::vector<uint32_t> placed;
    for (uint32_t idx : order) {
      if (static_cast<int>(tile.assigned.size()) >=
          options.fibers_per_tile) {
        break;
      }
      bool collides = false;
      for (uint32_t other : placed) {
        if (targets[idx].pos.Dot(targets[other].pos) > min_sep_cos) {
          collides = true;
          break;
        }
      }
      if (collides) {
        ++tile.collisions_skipped;
        continue;
      }
      placed.push_back(idx);
      tile.assigned.push_back(targets[idx].obj_id);
      assigned[idx] = true;
      ++result.targets_assigned;
    }
    if (tile.assigned.empty()) break;  // Only colliding targets remain.
    result.tiles.push_back(std::move(tile));
  }
  return result;
}

}  // namespace sdss::catalog
