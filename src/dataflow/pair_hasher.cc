#include "dataflow/pair_hasher.h"

#include <algorithm>
#include <cmath>

#include "core/angle.h"
#include "htm/cover.h"

namespace sdss::dataflow {

using catalog::PhotoObj;

PairHasher::PairHasher(double max_sep_arcsec, int bucket_level)
    : max_sep_arcsec_(max_sep_arcsec),
      max_sep_deg_(ArcsecToDeg(max_sep_arcsec)),
      cos_sep_(std::cos(ArcsecToRad(max_sep_arcsec))),
      bucket_level_(bucket_level) {}

void PairHasher::Add(const PhotoObj* obj, bool local) {
  AddComputed(obj, ComputeBuckets(*obj), local);
}

PairHasher::BucketSet PairHasher::ComputeBuckets(const PhotoObj& obj) const {
  BucketSet out;
  bool first = true;  // The home trixel comes first; the rest are ghosts.
  htm::ForEachTrixelNearPoint(obj.pos, max_sep_deg_, bucket_level_,
                              [&](uint64_t raw) {
                                if (first) {
                                  out.home = raw;
                                  first = false;
                                } else {
                                  out.ghosts.push_back(raw);
                                }
                              });
  return out;
}

void PairHasher::AddComputed(const PhotoObj* obj, const BucketSet& buckets,
                             bool local) {
  (local ? local_objects_ : foreign_objects_) += 1;
  buckets_[buckets.home].push_back({obj, true, local});
  for (uint64_t raw : buckets.ghosts) {
    buckets_[raw].push_back({obj, false, local});
    ++ghost_entries_;
  }
}

uint64_t PairHasher::max_bucket() const {
  uint64_t max_size = 0;
  for (const auto& [raw, entries] : buckets_) {
    max_size = std::max<uint64_t>(max_size, entries.size());
  }
  return max_size;
}

std::vector<const PairHasher::Bucket*> PairHasher::BucketList() const {
  std::vector<const Bucket*> list;
  list.reserve(buckets_.size());
  for (const auto& [raw, entries] : buckets_) list.push_back(&entries);
  return list;
}

uint64_t PairHasher::ForEachCandidatePair(
    const Bucket& bucket,
    const std::function<bool(const PhotoObj&, const PhotoObj&, double)>&
        on_pair) const {
  uint64_t tests = 0;
  for (size_t x = 0; x < bucket.size(); ++x) {
    // The pair is emitted in the home bucket of its lower-id member, and
    // only by the machine that owns that member: x must be a local
    // primary. The partner is then present here -- locally or as a
    // ghost -- because its separation cap covers this trixel.
    if (!bucket[x].primary || !bucket[x].local) continue;
    const PhotoObj* a = bucket[x].obj;
    for (size_t y = 0; y < bucket.size(); ++y) {
      if (x == y) continue;
      const PhotoObj* b = bucket[y].obj;
      if (a->obj_id >= b->obj_id) continue;  // Lower-id member emits.
      ++tests;
      if (a->pos.Dot(b->pos) < cos_sep_) continue;
      double sep = RadToArcsec(a->pos.AngleTo(b->pos));
      if (!on_pair(*a, *b, sep)) return tests;
    }
  }
  return tests;
}

int PairHasher::ChooseBucketLevel(double max_sep_arcsec) {
  // A level-L trixel is ~90/2^L degrees across. Pick the deepest level
  // keeping the trixel at least ~4x the separation, so most caps stay
  // inside one bucket and ghost fan-out is small.
  double sep_deg = std::max(ArcsecToDeg(max_sep_arcsec), 1e-9);
  int level = static_cast<int>(std::floor(std::log2(90.0 / (4.0 * sep_deg))));
  return std::clamp(level, 4, 12);
}

}  // namespace sdss::dataflow
