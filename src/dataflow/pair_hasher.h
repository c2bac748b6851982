// The cluster-agnostic core of the two-phase spatial hash join.
//
// The paper's hash machine "'hashes' each object to the appropriate
// buckets -- a single object may go to several buckets (to allow objects
// near the edges of a region to go to all the neighboring regions as
// well). In a second phase all the objects in a bucket are compared to
// one another." PairHasher is that bucket/ghost core. Its one
// production user is the query executor's kPairJoin operator, so every
// neighbor join -- on one store or across an archive::ShardedStore
// fleet, where each shard runs its own hasher -- is this one emission
// discipline.
//
// Buckets are HTM trixels at a configurable level. Every added object
// lands in its home trixel and, as a ghost, in every other trixel
// intersecting the separation cap around it, so cross-boundary pairs are
// never missed. Only objects near an edge need more than the home
// bucket, so only their caps are covered (htm::ForEachTrixelNearPoint);
// the rest are settled by three dot products. Objects are flagged
// local or foreign: a pair is emitted only in the home bucket of its
// lower-id member and only when that member is LOCAL. On one machine
// (everything local) this is the classic exactly-once rule; across a
// fleet where each shard adds its own objects as local and received
// boundary ghosts as foreign, the rule still emits each pair exactly
// once fleet-wide -- by the shard that owns the lower-id member.

#ifndef SDSS_DATAFLOW_PAIR_HASHER_H_
#define SDSS_DATAFLOW_PAIR_HASHER_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "catalog/photo_obj.h"

namespace sdss::dataflow {

/// Accumulates objects into spatial buckets (phase 1) and enumerates
/// candidate pairs per bucket (phase 2).
///
/// Thread-compatibility: Add is not thread-safe (callers serialize; the
/// executor's phase 1 computes bucket sets in parallel and files them
/// from one thread); once adding is done,
/// ForEachCandidatePair may run concurrently over distinct buckets.
class PairHasher {
 public:
  /// One bucket membership: the object plus how it got here.
  struct Entry {
    const catalog::PhotoObj* obj;
    bool primary;  ///< Home-trixel entry (vs edge ghost).
    bool local;    ///< Owned by this machine (vs received ghost).
  };
  using Bucket = std::vector<Entry>;

  /// `bucket_level` is the HTM depth of the hash buckets; deeper =
  /// smaller buckets = fewer pair tests but more ghosts.
  PairHasher(double max_sep_arcsec, int bucket_level);

  double max_sep_arcsec() const { return max_sep_arcsec_; }
  int bucket_level() const { return bucket_level_; }

  /// Phase 1: hashes one object to its home bucket plus the ghost
  /// buckets covering the separation cap around it. `local` marks
  /// ownership (see the emission rule above); single-machine callers
  /// leave it true. The pointee must outlive the hasher.
  void Add(const catalog::PhotoObj* obj, bool local = true);

  /// The bucket ids one object hashes to: its home trixel plus the
  /// ghost trixels of its separation cap.
  struct BucketSet {
    uint64_t home = 0;
    std::vector<uint64_t> ghosts;
  };

  /// The geometric half of Add (htm::ForEachTrixelNearPoint: one point
  /// location, plus a cover only when the cap reaches past the home
  /// trixel's edges), safe to run concurrently with no synchronization
  /// -- the executor's phase 1 computes these in parallel.
  BucketSet ComputeBuckets(const catalog::PhotoObj& obj) const;

  /// The filing half of Add: files `obj` under a precomputed bucket set
  /// (callers serialize, as with Add).
  void AddComputed(const catalog::PhotoObj* obj, const BucketSet& buckets,
                   bool local = true);

  uint64_t local_objects() const { return local_objects_; }
  uint64_t foreign_objects() const { return foreign_objects_; }
  uint64_t ghost_entries() const { return ghost_entries_; }
  size_t bucket_count() const { return buckets_.size(); }
  uint64_t max_bucket() const;

  /// The non-empty buckets, for phase-2 fan-out.
  std::vector<const Bucket*> BucketList() const;

  /// Phase 2 over one bucket: invokes `on_pair(lo, hi, sep_arcsec)` for
  /// every distinct pair within the separation whose lower-id member is
  /// a LOCAL PRIMARY of this bucket -- the exactly-once discipline.
  /// `on_pair` returns false to abort the bucket. Returns the number of
  /// pairwise distance tests performed.
  uint64_t ForEachCandidatePair(
      const Bucket& bucket,
      const std::function<bool(const catalog::PhotoObj&,
                               const catalog::PhotoObj&, double)>& on_pair)
      const;

  /// Planner heuristic: the deepest bucket level whose trixels stay
  /// comfortably wider than the separation, clamped to [4, 12]. Purely a
  /// performance choice -- ghost replication keeps any level exact.
  static int ChooseBucketLevel(double max_sep_arcsec);

 private:
  double max_sep_arcsec_;
  double max_sep_deg_;
  double cos_sep_;
  int bucket_level_;
  std::unordered_map<uint64_t, Bucket> buckets_;
  uint64_t local_objects_ = 0;
  uint64_t foreign_objects_ = 0;
  uint64_t ghost_entries_ = 0;
};

}  // namespace sdss::dataflow

#endif  // SDSS_DATAFLOW_PAIR_HASHER_H_
