// The commodity-cluster substrate of the paper's scan machine.
//
// "Acceptable I/O performance can be achieved ... with many commodity
// servers operating in parallel. ... Each node has 4 Intel Xeon 450 Mhz
// processors, 256MB of RAM, and 12x18GB disks. ... one node is capable of
// reading data at 150 MBps. If the data is spread among the 20 nodes,
// they can scan the data at an aggregate rate of 3 GBps."
//
// ClusterSim spreads a catalog's containers across N simulated nodes and
// runs real computation over the real objects on a thread pool, while
// accounting elapsed time on the simulated clock from the configured disk
// bandwidth -- so benchmark output reproduces the paper's arithmetic (2
// minute full scans) deterministically on any host.
//
// Only the shared-scan ScanMachine runs here. The paper's hash machine
// and river sorting network run as SQL on the served archive instead:
// a JOIN ... WITHIN is the executor's distributed kPairJoin over
// PairHasher, and an ORDER BY over an archive::ShardedStore fleet is
// per-shard sorts merged by the ordered GATHER.

#ifndef SDSS_DATAFLOW_CLUSTER_H_
#define SDSS_DATAFLOW_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "catalog/object_store.h"
#include "core/sim_clock.h"
#include "core/status.h"
#include "core/thread_pool.h"

namespace sdss::dataflow {

/// Per-node hardware model (defaults follow [Hartman98]).
struct NodeSpec {
  double disk_mbps = 150.0;     ///< Sequential scan bandwidth, MB/s.
  double network_mbps = 100.0;  ///< Per-node repartitioning bandwidth.
  int cpus = 4;
};

/// Cluster-wide configuration.
struct ClusterConfig {
  size_t num_nodes = 20;
  NodeSpec node;
  /// Paper-scale bytes charged per object scanned (full photometric row).
  uint64_t bytes_per_object = catalog::kPaperBytesPerPhotoObj;
};

/// A scan outcome: real counts plus modeled (simulated) elapsed time.
struct ScanReport {
  uint64_t objects_scanned = 0;
  uint64_t bytes_scanned = 0;     ///< Paper-scale bytes.
  SimSeconds sim_seconds = 0.0;   ///< max over nodes of node I/O time.
  double aggregate_mbps = 0.0;    ///< bytes / sim time.
};

/// A catalog spread over simulated nodes.
class ClusterSim {
 public:
  explicit ClusterSim(ClusterConfig config);

  const ClusterConfig& config() const { return config_; }
  size_t num_nodes() const { return nodes_.size(); }

  /// Spatially partitions `store` across the nodes: containers are dealt
  /// round-robin in trixel order, so every node holds a balanced sample
  /// of sky areas ("the base-data objects will be spatially partitioned
  /// among the servers").
  Status LoadPartitioned(const catalog::ObjectStore& store);

  /// Objects resident on one node.
  const std::vector<catalog::PhotoObj>& NodeObjects(size_t node) const {
    return nodes_[node];
  }
  uint64_t NodeBytes(size_t node) const {
    return nodes_[node].size() * config_.bytes_per_object;
  }
  uint64_t TotalObjects() const;
  uint64_t TotalBytes() const {
    return TotalObjects() * config_.bytes_per_object;
  }

  /// Time for one full synchronized pass: max over nodes of
  /// node_bytes / disk_mbps.
  SimSeconds FullScanSimSeconds() const;

  /// Runs `fn` over every object of every node, in parallel over nodes
  /// (real threads), and reports the modeled scan time. `fn` must be
  /// thread-safe; it receives (node_index, object).
  ScanReport ParallelScan(
      const std::function<void(size_t, const catalog::PhotoObj&)>& fn) const;

 private:
  ClusterConfig config_;
  std::vector<std::vector<catalog::PhotoObj>> nodes_;
  mutable ThreadPool pool_;
};

}  // namespace sdss::dataflow

#endif  // SDSS_DATAFLOW_CLUSTER_H_
