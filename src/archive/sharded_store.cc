#include "archive/sharded_store.h"

#include <memory>
#include <utility>
#include <vector>

#include "htm/trixel.h"

namespace sdss::archive {

ShardedStore::ShardedStore(const catalog::ObjectStore& source,
                           ReplicationOptions options)
    : directory_(source), manager_(options) {
  (void)manager_.AssignFrom(directory_);  // Only fails on empty inputs.
}

bool ShardedStore::server_up(size_t server) const {
  std::lock_guard<std::mutex> lock(mu_);
  return manager_.server_up(server);
}

Status ShardedStore::MarkServerDown(size_t server) {
  std::lock_guard<std::mutex> lock(mu_);
  return manager_.MarkServerDown(server);
}

Status ShardedStore::MarkServerUp(size_t server) {
  std::lock_guard<std::mutex> lock(mu_);
  return manager_.MarkServerUp(server);
}

void ShardedStore::RecordAccess(uint64_t container, uint64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  manager_.RecordAccess(container, count);
}

uint64_t ShardedStore::HeatOf(uint64_t container) const {
  std::lock_guard<std::mutex> lock(mu_);
  return manager_.HeatOf(container);
}

Status ShardedStore::PromoteHotContainers(double top_fraction,
                                          size_t extra) {
  std::lock_guard<std::mutex> lock(mu_);
  return manager_.PromoteHotContainers(top_fraction, extra);
}

Result<std::vector<size_t>> ShardedStore::ReplicasFor(
    uint64_t container, double join_sep_arcsec) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto replicas = manager_.ServersFor(container);
  if (!replicas.ok() || join_sep_arcsec <= 0.0 || replicas->size() < 2) {
    return replicas;
  }

  auto bytes_of = [this](uint64_t raw) -> uint64_t {
    auto it = directory_.containers().find(raw);
    return it == directory_.containers().end() ? 0 : it->second.FullBytes();
  };

  auto id = htm::HtmId::FromRaw(container);
  if (!id.ok()) return replicas;
  const uint64_t scan_bytes = bytes_of(container);

  // Boundary-band fraction: the share of a neighbor's objects within the
  // join radius of the shared edge (the model of ShardPrediction's
  // bytes_shipped estimate).
  const double band_frac =
      query::JoinBandFraction(join_sep_arcsec, id->level());

  // Predicted receive-side ghost traffic per candidate server: every
  // adjacent container served by a DIFFERENT server ships its band here.
  std::vector<std::pair<uint64_t, size_t>> neighbor_homes;
  for (htm::HtmId n : htm::Trixel::FromId(*id).Neighbors()) {
    uint64_t nbytes = bytes_of(n.raw());
    if (nbytes == 0) continue;  // Empty or unplaced neighbor trixel.
    auto served_by = manager_.RouteRead(n.raw());
    if (!served_by.ok()) continue;
    neighbor_homes.emplace_back(nbytes, *served_by);
  }
  auto predicted_ship = [&](size_t server) {
    double shipped = 0.0;
    for (const auto& [nbytes, home] : neighbor_homes) {
      if (home != server) shipped += band_frac * static_cast<double>(nbytes);
    }
    return static_cast<uint64_t>(shipped);
  };

  size_t best = 0;
  for (size_t i = 1; i < replicas->size(); ++i) {
    if (predicted_ship((*replicas)[i]) < predicted_ship((*replicas)[best])) {
      best = i;
    }
  }
  // Route to the shipping-minimal replica only when the saving dominates
  // the scan: re-reading the container locally costs its full bytes, so
  // a smaller saving is not worth giving up the heat-preferred copy.
  if (best != 0 && predicted_ship((*replicas)[0]) -
                           predicted_ship((*replicas)[best]) >
                       scan_bytes) {
    size_t chosen = (*replicas)[best];
    replicas->erase(replicas->begin() + static_cast<ptrdiff_t>(best));
    replicas->insert(replicas->begin(), chosen);
  }
  return replicas;
}

Result<std::vector<query::Shard>> ShardedStore::LiveShards() const {
  std::vector<std::vector<uint64_t>> served(num_servers());
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [raw, container] : directory_.containers()) {
      auto route = manager_.RouteRead(raw);
      if (!route.ok()) return route.status();  // All replicas down.
      served[*route].push_back(raw);
    }
  }
  std::vector<query::Shard> shards;
  for (size_t s = 0; s < served.size(); ++s) {
    if (served[s].empty()) continue;
    auto store = std::make_shared<const catalog::ObjectStore>(
        directory_.ExtractContainers(served[s]));
    shards.push_back(query::Shard{s, store.get(), store});
  }
  return shards;
}

PlacementStats ShardedStore::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return manager_.Stats();
}

}  // namespace sdss::archive
