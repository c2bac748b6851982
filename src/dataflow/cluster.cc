#include "dataflow/cluster.h"

#include <algorithm>
#include <atomic>

namespace sdss::dataflow {

ClusterSim::ClusterSim(ClusterConfig config)
    : config_(config),
      pool_(std::min<size_t>(std::max<size_t>(config.num_nodes, 1), 16)) {
  if (config_.num_nodes == 0) config_.num_nodes = 1;
  nodes_.resize(config_.num_nodes);
}

Status ClusterSim::LoadPartitioned(const catalog::ObjectStore& store) {
  for (auto& n : nodes_) n.clear();

  size_t idx = 0;
  for (const auto& [raw, container] : store.containers()) {
    size_t node = idx % nodes_.size();
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

}  // namespace sdss::dataflow
