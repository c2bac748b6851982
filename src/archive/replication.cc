#include "archive/replication.h"

#include <algorithm>

namespace sdss::archive {

ReplicationManager::ReplicationManager(ReplicationOptions options)
    : options_(options) {
  if (options_.num_servers == 0) options_.num_servers = 1;
  if (options_.base_replicas == 0) options_.base_replicas = 1;
  options_.base_replicas =
      std::min(options_.base_replicas, options_.num_servers);
  servers_up_.assign(options_.num_servers, true);
  server_bytes_.assign(options_.num_servers, 0);
}

Status ReplicationManager::AssignFrom(const catalog::ObjectStore& store) {
  placement_.clear();
  std::fill(server_bytes_.begin(), server_bytes_.end(), 0);
  size_t idx = 0;
  for (const auto& [raw, container] : store.containers()) {
    ContainerInfo info;
    info.bytes = container.FullBytes();
    // Primary round-robin in trixel order (spatial balance); replicas on
    // the following servers.
    for (size_t r = 0; r < options_.base_replicas; ++r) {
      size_t server = (idx + r) % servers_up_.size();
      info.replicas.push_back(server);
      server_bytes_[server] += info.bytes;
    }
    placement_[raw] = std::move(info);
    ++idx;
  }
  return Status::OK();
}

Result<std::vector<size_t>> ReplicationManager::ServersFor(
    uint64_t container) const {
  auto it = placement_.find(container);
  if (it == placement_.end()) {
    return Status::NotFound("container not placed: " +
                            std::to_string(container));
  }
  return it->second.replicas;
}

Result<size_t> ReplicationManager::RouteRead(uint64_t container) const {
  auto it = placement_.find(container);
  if (it == placement_.end()) {
    return Status::NotFound("container not placed: " +
                            std::to_string(container));
  }
  for (size_t server : it->second.replicas) {
    if (servers_up_[server]) return server;
  }
  return Status::ResourceExhausted("all replicas down for container " +
                                   std::to_string(container));
}

void ReplicationManager::RecordAccess(uint64_t container, uint64_t count) {
  auto it = placement_.find(container);
  if (it != placement_.end()) it->second.heat += count;
}

uint64_t ReplicationManager::HeatOf(uint64_t container) const {
  auto it = placement_.find(container);
  return it == placement_.end() ? 0 : it->second.heat;
}

size_t ReplicationManager::LeastLoadedLiveServer(
    const std::set<size_t>& exclude) const {
  size_t best = servers_up_.size();
  uint64_t best_bytes = UINT64_MAX;
  for (size_t s = 0; s < servers_up_.size(); ++s) {
    if (!servers_up_[s] || exclude.count(s)) continue;
    if (server_bytes_[s] < best_bytes) {
      best_bytes = server_bytes_[s];
      best = s;
    }
  }
  return best;
}

Status ReplicationManager::PromoteHotContainers(double top_fraction,
                                                size_t extra) {
  if (top_fraction <= 0.0 || top_fraction > 1.0) {
    return Status::InvalidArgument("top_fraction must be in (0, 1]");
  }
  if (placement_.empty()) {
    return Status::FailedPrecondition("no placement; call AssignFrom");
  }
  // Rank containers by heat.
  std::vector<std::pair<uint64_t, uint64_t>> heat;  // (heat, id)
  heat.reserve(placement_.size());
  for (const auto& [raw, info] : placement_) {
    heat.emplace_back(info.heat, raw);
  }
  std::sort(heat.rbegin(), heat.rend());
  size_t hot_count = std::max<size_t>(
      1, static_cast<size_t>(top_fraction *
                             static_cast<double>(heat.size())));

  for (size_t i = 0; i < hot_count; ++i) {
    ContainerInfo& info = placement_[heat[i].second];
    for (size_t e = 0; e < extra; ++e) {
      std::set<size_t> exclude(info.replicas.begin(), info.replicas.end());
      if (exclude.size() >= servers_up_.size()) break;  // Fully spread.
      size_t target = LeastLoadedLiveServer(exclude);
      if (target >= servers_up_.size()) break;  // No live server left.
      // The fresh copy becomes the preferred read target, so RouteRead
      // actually moves the hot traffic onto the heat-chosen server
      // instead of piling onto the already-loaded primary.
      info.replicas.insert(info.replicas.begin(), target);
      server_bytes_[target] += info.bytes;
    }
  }
  return Status::OK();
}

Status ReplicationManager::MarkServerDown(size_t server) {
  if (server >= servers_up_.size()) {
    return Status::OutOfRange("no server " + std::to_string(server));
  }
  servers_up_[server] = false;
  return Status::OK();
}

Status ReplicationManager::MarkServerUp(size_t server) {
  if (server >= servers_up_.size()) {
    return Status::OutOfRange("no server " + std::to_string(server));
  }
  servers_up_[server] = true;
  return Status::OK();
}

double ReplicationManager::AvailableFraction() const {
  if (placement_.empty()) return 1.0;
  uint64_t available = 0;
  for (const auto& [raw, info] : placement_) {
    for (size_t server : info.replicas) {
      if (servers_up_[server]) {
        ++available;
        break;
      }
    }
  }
  return static_cast<double>(available) /
         static_cast<double>(placement_.size());
}

double ReplicationManager::AddServers(size_t additional) {
  if (additional == 0 || placement_.empty()) {
    servers_up_.resize(servers_up_.size() + additional, true);
    server_bytes_.resize(server_bytes_.size() + additional, 0);
    return 0.0;
  }
  size_t new_width = servers_up_.size() + additional;
  servers_up_.resize(new_width, true);
  server_bytes_.assign(new_width, 0);

  uint64_t moved = 0, total = 0;
  size_t idx = 0;
  for (auto& [raw, info] : placement_) {
    std::vector<size_t> fresh;
    for (size_t r = 0; r < options_.base_replicas; ++r) {
      fresh.push_back((idx + r) % new_width);
    }
    // Bytes move where the fresh replica set differs from the old one.
    for (size_t r = 0; r < fresh.size(); ++r) {
      total += info.bytes;
      bool existed =
          std::find(info.replicas.begin(), info.replicas.end(), fresh[r]) !=
          info.replicas.end();
      if (!existed) moved += info.bytes;
      server_bytes_[fresh[r]] += info.bytes;
    }
    info.replicas = std::move(fresh);  // Promotions reset on rebalance.
    ++idx;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(moved) / static_cast<double>(total);
}

uint64_t ReplicationManager::ServerBytes(size_t server) const {
  return server < server_bytes_.size() ? server_bytes_[server] : 0;
}

PlacementStats ReplicationManager::Stats() const {
  PlacementStats s;
  s.containers = placement_.size();
  uint64_t sum = 0;
  s.min_server_bytes = UINT64_MAX;
  for (size_t i = 0; i < server_bytes_.size(); ++i) {
    sum += server_bytes_[i];
    s.max_server_bytes = std::max(s.max_server_bytes, server_bytes_[i]);
    s.min_server_bytes = std::min(s.min_server_bytes, server_bytes_[i]);
  }
  if (server_bytes_.empty()) s.min_server_bytes = 0;
  s.total_bytes = sum;
  double mean = server_bytes_.empty()
                    ? 0.0
                    : static_cast<double>(sum) /
                          static_cast<double>(server_bytes_.size());
  s.imbalance = mean > 0 ? static_cast<double>(s.max_server_bytes) / mean
                         : 0.0;
  return s;
}

}  // namespace sdss::archive
