// Materialized shard stores for the replicated server fleet.
//
// ReplicationManager decides WHERE containers live; ShardedStore makes
// that placement physical: every server gets an ObjectStore holding all
// the containers it replicates (primary or not), so when a server is
// marked down its containers can be re-routed to a surviving replica
// without moving any data. LiveShards() exposes the current routing as
// the query::Shard set the FederatedQueryEngine fans out over.

#ifndef SDSS_ARCHIVE_SHARDED_STORE_H_
#define SDSS_ARCHIVE_SHARDED_STORE_H_

#include <mutex>
#include <vector>

#include "archive/replication.h"
#include "catalog/object_store.h"
#include "core/status.h"
#include "query/federated_engine.h"

namespace sdss::archive {

/// Owns one materialized ObjectStore per server plus the replication
/// routing over them.
///
/// Thread-safety: MarkServerDown/Up and LiveShards may interleave from
/// any threads; the shard stores themselves are immutable after
/// construction, so queries running against a previously obtained
/// LiveShards() snapshot are never invalidated (a downed server's store
/// stays readable -- it is the routing that stops pointing at it).
class ShardedStore {
 public:
  /// Materializes the fleet from `source` under `options` (placement via
  /// ReplicationManager::AssignFrom: primaries round-robin, base_replicas
  /// copies of every container).
  ShardedStore(const catalog::ObjectStore& source,
               ReplicationOptions options);

  size_t num_servers() const { return stores_.size(); }

  /// The materialized store of one server: every container it holds a
  /// replica of (not just the ones it currently serves).
  const catalog::ObjectStore& server_store(size_t server) const {
    return stores_[server];
  }

  /// Whether the routing currently counts `server` as up (false for
  /// unknown servers); the ReplicationManager is the one record.
  bool server_up(size_t server) const;

  /// Failure injection / recovery. Routing changes take effect on the
  /// next LiveShards() call.
  Status MarkServerDown(size_t server);
  Status MarkServerUp(size_t server);

  /// Fleet-wide store epoch: the sum of every shard store's mutation
  /// generation (catalog::ObjectStore::epoch). Any data mutation on any
  /// server moves it; routing-only events (MarkServerDown/Up) and
  /// replica promotion (which copies data it already serves) do not, so
  /// cached query results survive failover but never survive a write.
  uint64_t Epoch() const;

  /// Access-heat tracking, forwarded to the ReplicationManager.
  void RecordAccess(uint64_t container, uint64_t count = 1);

  /// Recorded accesses of one container (0 for unknown containers).
  uint64_t HeatOf(uint64_t container) const;

  /// Promotes the hottest containers AND makes the promotion physical:
  /// the heat-chosen servers receive a copy of each promoted container
  /// (copied from an existing replica), and the next LiveShards() routes
  /// the container to its new preferred server. This is a provisioning
  /// operation that grows shard stores in place: do not run it while
  /// queries execute against a previously obtained LiveShards snapshot.
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
  /// (primary preferred), grouped per server. Servers with nothing to
  /// serve are omitted. Fails with the router's Unavailable-flavored
  /// error when any container has lost every replica -- a clean refusal
  /// instead of a silent partial result.
  Result<std::vector<query::Shard>> LiveShards() const;

  /// Placement statistics (all replicas, up or down).
  PlacementStats Stats() const;

 private:
  mutable std::mutex mu_;
  ReplicationManager manager_;
  std::vector<catalog::ObjectStore> stores_;
};

}  // namespace sdss::archive

#endif  // SDSS_ARCHIVE_SHARDED_STORE_H_
