// The container-clustered object store: this reproduction's stand-in for
// the Objectivity/DB federation of the Science Archive.
//
// Objects are clustered into containers keyed by their HTM trixel at a
// configurable depth (the paper's "clustering units"). The container
// directory doubles as the coarse-grained density map the paper uses to
// predict output volume and search time; spatial queries accept FULL
// containers wholesale and filter PARTIAL containers per object, exactly
// as the index section of the paper describes.
//
// Every container stores its objects as columns (Container); the tag
// vertical partition is a narrow view over those same columns, not a
// second copy of the data.

#ifndef SDSS_CATALOG_OBJECT_STORE_H_
#define SDSS_CATALOG_OBJECT_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "catalog/columnar.h"
#include "catalog/photo_obj.h"
#include "core/status.h"
#include "htm/cover.h"
#include "htm/htm_index.h"
#include "htm/region.h"

namespace sdss::catalog {

/// Store configuration.
struct StoreOptions {
  /// HTM depth of the clustering containers (level 6 -> 32768 trixels,
  /// a few thousand occupied for a partial-sky survey).
  int cluster_level = 6;

  /// Serve the tag vertical partition (a view over the same columns;
  /// without it, tag scans yield nothing).
  bool build_tags = true;
};

/// One clustering unit: the objects of a single trixel, stored as
/// columns (catalog/columnar.h).
///
/// `columnar` is the container's only representation. Its bytes live
/// in a mapped snapshot (the cold-start path: the container is
/// immutable and Insert/BulkLoad into it fail) or in a ColumnStore the
/// container owns (BulkLoad, Insert, AdoptContainer without a backing).
/// Copies (ExtractContainers, copying a store) share either; a mutation
/// of shared owned columns copies them first, so a copy never sees a
/// later change to its source. The tag partition is not stored: a tag
/// scan reads the same columns at the tag's precision. Rows are never
/// kept: a consumer that needs a PhotoObj decodes it from the columns
/// (ColumnarBlock::MaterializeObject) when it needs it.
struct Container {
  htm::HtmId trixel;
  ColumnarBlock columnar;

  size_t size() const { return columnar.n; }

  uint64_t FullBytes() const { return size() * sizeof(PhotoObj); }
  /// Size of the container's tag partition in a store that keeps one.
  uint64_t TagBytes() const { return size() * sizeof(TagObj); }

 private:
  /// Appends `m` objects (`at(k)` the k-th) to the owned columns,
  /// copying them first when shared. FailedPrecondition when mapped.
  template <typename At>
  Status Append(size_t m, const At& at);

  std::shared_ptr<const void> mapping_;  ///< Keeps mapped bytes alive.
  std::shared_ptr<ColumnStore> owned_;   ///< Owned columns, or null.

  friend class ObjectStore;
};

/// Aggregate store statistics (the density map rolled up).
struct StoreStats {
  uint64_t object_count = 0;
  uint64_t container_count = 0;
  uint64_t full_bytes = 0;
  uint64_t tag_bytes = 0;
  uint64_t max_container_objects = 0;
  double mean_container_objects = 0.0;
};

/// The in-memory Science Archive object warehouse.
///
/// Thread-compatibility: loads are single-writer; all query/scan methods
/// are const and safe to call concurrently once loading is done.
class ObjectStore {
 public:
  explicit ObjectStore(StoreOptions options = {});

  const StoreOptions& options() const { return options_; }
  int cluster_level() const { return options_.cluster_level; }

  /// Monotonic mutation generation ("store epoch"). Every mutating
  /// entry point (Insert, BulkLoad, Clear) bumps it, so any cached
  /// derivation of the store's contents -- notably query results in
  /// query::ResultCache -- can be stamped with the epoch it was
  /// computed at and invalidated the instant the data moves. Adoption
  /// (AdoptContainer: the snapshot recovery path, and replica promotion,
  /// which copies a container the fleet already serves) deliberately
  /// does NOT bump: it adds no data a reader could have seen change.
  /// Recovery reinstates the writer's epoch via RestoreEpoch, so a
  /// recovered archive continues the same generation sequence instead
  /// of silently restarting it.
  uint64_t epoch() const { return epoch_; }

  /// Marks the store mutated. Called by every mutating entry point;
  /// exposed so owners that mutate containers out-of-band can keep the
  /// contract.
  void BumpEpoch() { ++epoch_; }

  /// Recovery hook: reinstates a previously observed epoch verbatim.
  void RestoreEpoch(uint64_t epoch) { epoch_ = epoch; }

  /// Inserts one object (computes its container from pos). Prefer
  /// BulkLoad for chunks -- this is the "naive load" path.
  Status Insert(const PhotoObj& obj);

  /// Inserts a batch grouped by container in one pass per container (the
  /// paper's two-phase clustered load is built on this; see ChunkLoader).
  Status BulkLoad(std::vector<PhotoObj> objects);

  uint64_t object_count() const { return object_count_; }
  size_t container_count() const { return containers_.size(); }
  StoreStats Stats() const;

  /// Container lookup by trixel id; nullptr when empty/absent.
  const Container* FindContainer(htm::HtmId trixel) const;

  /// The container directory: (trixel raw id -> object count), i.e. the
  /// coarse density map.
  std::map<uint64_t, uint64_t> DensityMap() const;

  /// Sequential scan over every object (the scan-machine access path).
  /// Each object is decoded from the columns for the call: `fn`'s
  /// reference is valid only until it returns.
  void ForEachObject(const std::function<void(const PhotoObj&)>& fn) const;

  /// Scan over every tag (the vertical partition; nothing when the store
  /// keeps none). Tags are projected from the columns on the fly.
  void ForEachTag(const std::function<void(const TagObj&)>& fn) const;

  /// Spatial query: calls `fn` exactly once for every object inside
  /// `region`. The containers come from the same cover walk
  /// (htm::ForEachInCover) PredictRegion counts: FULLy inside ones are
  /// accepted without per-object tests; PARTIAL ones are filtered with
  /// the exact Region test on the position columns, and only accepted
  /// objects are decoded (as in ForEachObject, for the call only).
  /// Returns the number of objects visited (accepted).
  struct SpatialScanStats {
    uint64_t accepted = 0;
    uint64_t full_containers = 0;
    uint64_t partial_containers = 0;
    uint64_t objects_tested = 0;  ///< Per-object tests in PARTIAL units.
    uint64_t bytes_touched = 0;
  };
  SpatialScanStats QueryRegion(
      const htm::Region& region,
      const std::function<void(const PhotoObj&)>& fn) const;

  /// A density-map prediction (the paper: "a prediction of the output
  /// data volume and search time can be computed from the intersection
  /// volume"): what a scan of some containers yields and reads, from
  /// their object counts alone.
  struct Prediction {
    double expected_objects = 0.0;  ///< FULL count + half of PARTIAL.
    uint64_t max_objects = 0;       ///< FULL + all PARTIAL.
    uint64_t min_objects = 0;       ///< FULL only.
    uint64_t bytes_to_scan = 0;     ///< Data that must be read.

    /// Counts one container the scan reads: all of its objects when it
    /// lies FULLy inside the query, about half (a boundary trixel's
    /// average) when the query bisects it, its full bytes either way.
    /// A region-less scan reads every container FULL. This is the one
    /// place the FULL/PARTIAL arithmetic lives: PredictRegion and the
    /// federated engine's per-shard slices both count through it.
    void Add(const Container& c, bool full) {
      const uint64_t n = c.size();
      if (full) min_objects += n;
      max_objects += n;
      expected_objects += (full ? 1.0 : 0.5) * static_cast<double>(n);
      bytes_to_scan += c.FullBytes();
    }
  };

  /// Predicts `region` over this whole store from the density map
  /// alone: the containers under its cover, counted with
  /// Prediction::Add. No object data is read.
  Prediction PredictRegion(const htm::Region& region) const;

  /// All objects of one container id range (used by the partitioner).
  const std::map<uint64_t, Container>& containers() const {
    return containers_;
  }

  /// Random sample of the catalog ("1% subsets allow debugging ...").
  /// Deterministic for a fixed seed; returns a new store with the same
  /// options.
  ObjectStore Sample(double fraction, uint64_t seed) const;

  /// Builds a sub-store holding exactly the listed containers (no
  /// re-clustering; options carry over, the epoch starts at 0). The
  /// copies share this store's column buffers, so the sub-store costs
  /// one directory entry per container. Ids absent from this store are
  /// ignored. This is how archive::ShardedStore cuts each live server's
  /// store from its container directory.
  ObjectStore ExtractContainers(const std::vector<uint64_t>& ids) const;

  /// Deserialization hook: installs `block` as the container of
  /// `trixel` verbatim -- no re-clustering, positions are trusted -- so
  /// a store recovered from a persist snapshot has byte-identical
  /// container layout (and therefore identical scan behavior) to the
  /// store that was written. With `backing` null the columns are copied
  /// into arrays the container owns. Otherwise the container is a
  /// zero-copy, immutable view: `backing` must own the bytes every
  /// column of `block` points into, and the store (and any container
  /// copies handed out later) share that ownership -- cold start from a
  /// mapped snapshot costs only the directory walk. The trixel must be
  /// at cluster_level (InvalidArgument) and not already present
  /// (AlreadyExists).
  Status AdoptContainer(htm::HtmId trixel, const ColumnarBlock& block,
                        std::shared_ptr<const void> backing = nullptr);

  /// Removes everything.
  void Clear();

 private:
  StoreOptions options_;
  htm::HtmIndex index_;
  std::map<uint64_t, Container> containers_;  // Keyed by trixel raw id.
  uint64_t object_count_ = 0;
  uint64_t epoch_ = 0;
};

}  // namespace sdss::catalog

#endif  // SDSS_CATALOG_OBJECT_STORE_H_
