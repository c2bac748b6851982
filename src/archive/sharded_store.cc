#include "archive/sharded_store.h"

#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "htm/trixel.h"

namespace sdss::archive {

ShardedStore::ShardedStore(const catalog::ObjectStore& source,
                           ReplicationOptions options)
    : manager_(options) {
  // Placement first, then one materialization pass: each server extracts
  // every container it holds a replica of.
  (void)manager_.AssignFrom(source);  // Only fails on empty inputs.
  size_t servers = manager_.num_servers();

  // Primaries first, backup replicas after: ExtractContainers copies in
  // list order, so the object vectors of the containers a server
  // actually serves (routing prefers primaries) are heap-allocated as
  // one contiguous arena and scans stream through memory without
  // hopping over dormant replica copies. Measured ~20% off a federated
  // full-scan aggregate's wall time on a bandwidth-bound 1-core box.
  std::vector<std::vector<uint64_t>> primary(servers);
  std::vector<std::vector<uint64_t>> backup(servers);
  for (const auto& [raw, container] : source.containers()) {
    auto replicas = manager_.ServersFor(raw);
    if (!replicas.ok()) continue;  // Unplaced: empty source container.
    for (size_t i = 0; i < replicas->size(); ++i) {
      size_t server = (*replicas)[i];
      (i == 0 ? primary : backup)[server].push_back(raw);
    }
  }
  stores_.reserve(servers);
  for (size_t s = 0; s < servers; ++s) {
    std::vector<uint64_t> holdings = std::move(primary[s]);
    holdings.insert(holdings.end(), backup[s].begin(), backup[s].end());
    stores_.push_back(source.ExtractContainers(holdings));
  }
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

uint64_t ShardedStore::Epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t epoch = 0;
  for (const auto& store : stores_) epoch += store.epoch();
  return epoch;
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
  std::vector<uint64_t> promoted;
  SDSS_RETURN_IF_ERROR(
      manager_.PromoteHotContainers(top_fraction, extra, &promoted));
  // Materialize exactly the new placements: every server now listed for
  // a promoted container it does not hold gets a copy from an existing
  // replica (data ships between servers, none is recreated from the
  // source catalog).
  for (uint64_t raw : promoted) {
    auto replicas = manager_.ServersFor(raw);
    if (!replicas.ok()) continue;
    const catalog::Container* src = nullptr;
    for (const auto& store : stores_) {
      auto it = store.containers().find(raw);
      if (it != store.containers().end()) {
        src = &it->second;
        break;
      }
    }
    if (src == nullptr) continue;
    for (size_t server : *replicas) {
      if (server >= stores_.size() ||
          stores_[server].containers().count(raw) > 0) {
        continue;
      }
      // Promotion copies data the fleet already serves: no result any
      // reader could have cached changes, so the copy must not look
      // like a mutation -- and adoption is epoch-neutral.
      SDSS_RETURN_IF_ERROR(
          stores_[server].AdoptContainer(src->trixel, src->columnar));
    }
  }
  return Status::OK();
}

Result<std::vector<size_t>> ShardedStore::ReplicasFor(
    uint64_t container, double join_sep_arcsec) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto replicas = manager_.ServersFor(container);
  if (!replicas.ok() || join_sep_arcsec <= 0.0 || replicas->size() < 2) {
    return replicas;
  }

  // Bytes of one container, read from any server that materialized it.
  auto bytes_of = [this](uint64_t raw) -> uint64_t {
    for (const auto& store : stores_) {
      auto it = store.containers().find(raw);
      if (it != store.containers().end()) return it->second.FullBytes();
    }
    return 0;
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
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<std::unordered_set<uint64_t>>> assigned(
      stores_.size());
  for (size_t s = 0; s < stores_.size(); ++s) {
    for (const auto& [raw, container] : stores_[s].containers()) {
      auto route = manager_.RouteRead(raw);
      if (!route.ok()) return route.status();  // All replicas down.
      if (*route != s) continue;  // Another replica serves it.
      if (assigned[s] == nullptr) {
        assigned[s] = std::make_shared<std::unordered_set<uint64_t>>();
      }
      assigned[s]->insert(raw);
    }
  }
  std::vector<query::Shard> shards;
  for (size_t s = 0; s < stores_.size(); ++s) {
    if (assigned[s] == nullptr) continue;
    query::Shard shard;
    shard.server = s;
    shard.store = &stores_[s];
    shard.assigned = std::move(assigned[s]);
    shards.push_back(std::move(shard));
  }
  return shards;
}

PlacementStats ShardedStore::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return manager_.Stats();
}

}  // namespace sdss::archive
