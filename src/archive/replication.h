// Partition and replication management across archive servers.
//
// The paper: "The SDSS data is too large to fit on one disk or even one
// server. The base-data objects will be spatially partitioned among the
// servers. As new servers are added, the data will repartition. Some of
// the high-traffic data will be replicated among servers. It is up to the
// database software to manage this partitioning and replication."
//
// ReplicationManager places each clustering container on a primary server
// plus k-1 replicas, tracks per-container access heat, promotes extra
// replicas for the hottest containers, survives server failures as long
// as one replica remains, and rebalances when servers are added --
// reporting the moved-byte fraction.

#ifndef SDSS_ARCHIVE_REPLICATION_H_
#define SDSS_ARCHIVE_REPLICATION_H_

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "catalog/object_store.h"
#include "core/status.h"

namespace sdss::archive {

/// Placement policy knobs.
struct ReplicationOptions {
  size_t num_servers = 20;
  size_t base_replicas = 2;  ///< Copies of every container (>= 1).
};

/// Aggregate placement statistics.
struct PlacementStats {
  uint64_t containers = 0;
  uint64_t total_bytes = 0;        ///< Sum over all replicas.
  uint64_t max_server_bytes = 0;
  uint64_t min_server_bytes = 0;
  double imbalance = 0.0;          ///< max/mean server bytes.
};

/// Manages container -> server placement with replication.
class ReplicationManager {
 public:
  explicit ReplicationManager(ReplicationOptions options);

  /// (Re)builds the placement from a store's container directory.
  Status AssignFrom(const catalog::ObjectStore& store);

  size_t num_servers() const { return servers_up_.size(); }
  size_t containers() const { return placement_.size(); }

  /// Servers currently holding a replica of `container` (live or not).
  Result<std::vector<size_t>> ServersFor(uint64_t container) const;

  /// A live server to read `container` from, preferring the primary.
  /// Unavailable (all replicas down) returns Unavailable-flavored error.
  Result<size_t> RouteRead(uint64_t container) const;

  /// Access-heat tracking ("high-traffic data").
  void RecordAccess(uint64_t container, uint64_t count = 1);

  /// Recorded accesses of one container (0 for unknown containers).
  uint64_t HeatOf(uint64_t container) const;

  /// Gives the hottest `top_fraction` of containers `extra` additional
  /// replicas on the least-loaded live servers. Each new replica becomes
  /// the preferred read target of its container (load-aware routing, not
  /// just primacy), so promotion actually shifts traffic.
  Status PromoteHotContainers(double top_fraction, size_t extra);

  /// Failure injection.
  Status MarkServerDown(size_t server);
  Status MarkServerUp(size_t server);

  /// Whether `server` is up; false for unknown servers.
  bool server_up(size_t server) const {
    return server < servers_up_.size() && servers_up_[server];
  }

  /// Fraction of containers still readable (>= 1 live replica).
  double AvailableFraction() const;

  /// Adds servers and rebalances primaries round-robin over the new
  /// width. Returns the fraction of placed bytes that moved.
  double AddServers(size_t additional);

  /// Bytes stored on one server (all replicas it holds).
  uint64_t ServerBytes(size_t server) const;

  PlacementStats Stats() const;

 private:
  struct ContainerInfo {
    uint64_t bytes = 0;
    uint64_t heat = 0;
    /// replicas[0] is the preferred read target: the primary from
    /// placement, until a promotion front-inserts a heat-chosen copy.
    std::vector<size_t> replicas;
  };

  size_t LeastLoadedLiveServer(const std::set<size_t>& exclude) const;
  void Rebuild();

  ReplicationOptions options_;
  std::map<uint64_t, ContainerInfo> placement_;
  std::vector<bool> servers_up_;
  std::vector<uint64_t> server_bytes_;
};

}  // namespace sdss::archive

#endif  // SDSS_ARCHIVE_REPLICATION_H_
