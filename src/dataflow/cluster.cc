#include "dataflow/cluster.h"

#include <algorithm>
#include <atomic>

namespace sdss::dataflow {

ClusterSim::ClusterSim(ClusterConfig config)
    : config_(config),
      pool_(std::min<size_t>(std::max<size_t>(config.num_nodes, 1), 16)) {
  if (config_.num_nodes == 0) config_.num_nodes = 1;
  nodes_.resize(config_.num_nodes);
  node_containers_.resize(config_.num_nodes);
}

Status ClusterSim::LoadPartitioned(const catalog::ObjectStore& store) {
  for (auto& n : nodes_) n.clear();
  for (auto& n : node_containers_) n.clear();
  container_order_.clear();

  size_t idx = 0;
  for (const auto& [raw, container] : store.containers()) {
    size_t node = idx % nodes_.size();
    container_order_.push_back(raw);
    node_containers_[node].emplace_back(raw, container.size());
    for (size_t i = 0; i < container.size(); ++i) {
      nodes_[node].push_back(container.columnar.MaterializeObject(i));
    }
    ++idx;
  }
  return Status::OK();
}

uint64_t ClusterSim::TotalObjects() const {
  uint64_t n = 0;
  for (const auto& node : nodes_) n += node.size();
  return n;
}

SimSeconds ClusterSim::FullScanSimSeconds() const {
  SimSeconds worst = 0.0;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    double t = static_cast<double>(NodeBytes(i)) /
               (config_.node.disk_mbps * 1e6);
    worst = std::max(worst, t);
  }
  return worst;
}

ScanReport ClusterSim::ParallelScan(
    const std::function<void(size_t, const catalog::PhotoObj&)>& fn) const {
  ScanReport report;
  std::atomic<uint64_t> objects{0};
  pool_.ParallelFor(nodes_.size(), [&](size_t node) {
    for (const catalog::PhotoObj& o : nodes_[node]) fn(node, o);
    objects.fetch_add(nodes_[node].size());
  });
  report.objects_scanned = objects.load();
  report.bytes_scanned = report.objects_scanned * config_.bytes_per_object;
  report.sim_seconds = FullScanSimSeconds();
  report.aggregate_mbps =
      report.sim_seconds > 0.0
          ? static_cast<double>(report.bytes_scanned) / 1e6 /
                report.sim_seconds
          : 0.0;
  return report;
}

double ClusterSim::AddNodes(size_t additional) {
  size_t old_width = nodes_.size();
  size_t new_width = old_width + additional;
  if (additional == 0) return 0.0;

  // Rebuild the container -> node assignment at the new width and count
  // how many objects change nodes.
  std::vector<std::vector<catalog::PhotoObj>> new_nodes(new_width);
  std::vector<std::vector<std::pair<uint64_t, size_t>>> new_map(new_width);

  // Flatten current data back into container order.
  std::map<uint64_t, std::vector<catalog::PhotoObj>> containers;
  for (size_t node = 0; node < old_width; ++node) {
    size_t offset = 0;
    for (const auto& [raw, count] : node_containers_[node]) {
      auto& vec = containers[raw];
      vec.insert(vec.end(),
                 nodes_[node].begin() + static_cast<ptrdiff_t>(offset),
                 nodes_[node].begin() + static_cast<ptrdiff_t>(offset +
                                                               count));
      offset += count;
    }
  }

  uint64_t moved = 0, total = 0;
  size_t idx = 0;
  for (uint64_t raw : container_order_) {
    size_t old_node = idx % old_width;
    size_t new_node = idx % new_width;
    auto& vec = containers[raw];
    total += vec.size();
    if (new_node != old_node) moved += vec.size();
    new_map[new_node].emplace_back(raw, vec.size());
    new_nodes[new_node].insert(new_nodes[new_node].end(), vec.begin(),
                               vec.end());
    ++idx;
  }

  nodes_ = std::move(new_nodes);
  node_containers_ = std::move(new_map);
  config_.num_nodes = new_width;
  return total == 0 ? 0.0
                    : static_cast<double>(moved) / static_cast<double>(total);
}

}  // namespace sdss::dataflow
