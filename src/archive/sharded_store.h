// The replicated server fleet: one container directory plus the
// placement over it.
//
// ReplicationManager decides WHERE containers live; ShardedStore keeps
// the archive's containers once, in one directory that shares the
// source's column buffers. In this process a replica is a routing fact,
// not a second copy of the data: a server "holds" a container when the
// placement lists it, so a downed server's containers are re-routed to a
// surviving replica without moving anything, and promotion only changes
// whom a container is routed to. LiveShards() cuts the current routing
// into the query::Shard set the FederatedQueryEngine fans out over, one
// store per live server holding exactly the containers it serves.

#ifndef SDSS_ARCHIVE_SHARDED_STORE_H_
#define SDSS_ARCHIVE_SHARDED_STORE_H_

#include <mutex>
#include <vector>

#include "archive/replication.h"
#include "catalog/object_store.h"
#include "core/status.h"
#include "query/federated_engine.h"

namespace sdss::archive {

/// Owns the fleet's container directory and the replication routing
/// over it.
///
/// Thread-safety: every method may interleave from any threads. The
/// directory is immutable after construction and each LiveShards()
/// snapshot owns its stores, so routing changes -- MarkServerDown/Up and
/// PromoteHotContainers -- are safe while queries run against an earlier
/// snapshot: they change only what the next LiveShards() cuts.
class ShardedStore {
 public:
  /// Builds the fleet over `source` under `options` (placement via
  /// ReplicationManager::AssignFrom: primaries round-robin, base_replicas
  /// replicas of every container). The directory shares `source`'s
  /// column buffers and keeps its epoch.
  ShardedStore(const catalog::ObjectStore& source,
               ReplicationOptions options);

  size_t num_servers() const { return manager_.num_servers(); }

  /// Whether the routing currently counts `server` as up (false for
  /// unknown servers); the ReplicationManager is the one record.
  bool server_up(size_t server) const;

  /// Failure injection / recovery. Routing changes take effect on the
  /// next LiveShards() call.
  Status MarkServerDown(size_t server);
  Status MarkServerUp(size_t server);

  /// Fleet-wide store epoch: the directory's mutation generation
  /// (catalog::ObjectStore::epoch), which continues the source's.
  /// Routing events -- MarkServerDown/Up and replica promotion -- do not
  /// move it, so cached query results survive failover.
  uint64_t Epoch() const { return directory_.epoch(); }

  /// Access-heat tracking, forwarded to the ReplicationManager.
  void RecordAccess(uint64_t container, uint64_t count = 1);

  /// Recorded accesses of one container (0 for unknown containers).
  uint64_t HeatOf(uint64_t container) const;

  /// Promotes the hottest containers: the heat-chosen servers become
  /// their preferred replicas, and the next LiveShards() routes each to
  /// its new server. A routing change only; safe while queries run.
  Status PromoteHotContainers(double top_fraction, size_t extra);

  /// Replica servers of one container, preferred first.
  ///
  /// With `join_sep_arcsec` > 0 the order feeds the predicted network
  /// cost of a neighbor join into the routing choice: for each replica
  /// server the boundary-band estimate (the ShardPrediction
  /// bytes_shipped model) prices the ghost traffic the server would
  /// RECEIVE from adjacent containers currently served elsewhere, and
  /// the replica that minimizes predicted shipping moves to the front --
  /// but only when the shipping saving dominates the container's own
  /// scan bytes, so cheap scans keep the heat/primary-preferred order.
  /// `join_sep_arcsec` <= 0 preserves the plain placement order.
  Result<std::vector<size_t>> ReplicasFor(
      uint64_t container, double join_sep_arcsec = 0.0) const;

  /// Current routing: every container assigned to its first live replica
  /// (primary preferred), grouped per server into a store the shard owns
  /// (ObjectStore::ExtractContainers of the directory). Servers with
  /// nothing to serve are omitted. Fails with the router's
  /// ResourceExhausted error when any container has lost every replica
  /// -- a clean refusal instead of a silent partial result.
  Result<std::vector<query::Shard>> LiveShards() const;

  /// Placement statistics (all replicas, up or down).
  PlacementStats Stats() const;

 private:
  const catalog::ObjectStore directory_;
  mutable std::mutex mu_;  ///< Guards manager_.
  ReplicationManager manager_;
};

}  // namespace sdss::archive

#endif  // SDSS_ARCHIVE_SHARDED_STORE_H_
