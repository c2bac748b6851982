#include "dataflow/cluster.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "catalog/sky_generator.h"

namespace sdss::dataflow {
namespace {

using catalog::ObjectStore;
using catalog::PhotoObj;
using catalog::SkyGenerator;
using catalog::SkyModel;

ObjectStore MakeStore(uint64_t n = 6000) {
  SkyModel m;
  m.seed = 61;
  m.num_galaxies = n * 2 / 3;
  m.num_stars = n / 3;
  m.num_quasars = 20;
  ObjectStore store;
  EXPECT_TRUE(store.BulkLoad(SkyGenerator(m).Generate()).ok());
  return store;
}

TEST(ClusterSimTest, PartitioningPreservesEveryObject) {
  ObjectStore store = MakeStore();
  ClusterConfig cfg;
  cfg.num_nodes = 7;
  ClusterSim cluster(cfg);
  ASSERT_TRUE(cluster.LoadPartitioned(store).ok());
  EXPECT_EQ(cluster.TotalObjects(), store.object_count());

  std::set<uint64_t> seen;
  for (size_t n = 0; n < cluster.num_nodes(); ++n) {
    for (const auto& o : cluster.NodeObjects(n)) {
      EXPECT_TRUE(seen.insert(o.obj_id).second) << "duplicate " << o.obj_id;
    }
  }
  EXPECT_EQ(seen.size(), store.object_count());
}

TEST(ClusterSimTest, LoadIsRoughlyBalanced) {
  ObjectStore store = MakeStore(12000);
  ClusterConfig cfg;
  cfg.num_nodes = 8;
  ClusterSim cluster(cfg);
  ASSERT_TRUE(cluster.LoadPartitioned(store).ok());
  uint64_t min_n = UINT64_MAX, max_n = 0;
  for (size_t n = 0; n < cluster.num_nodes(); ++n) {
    min_n = std::min<uint64_t>(min_n, cluster.NodeObjects(n).size());
    max_n = std::max<uint64_t>(max_n, cluster.NodeObjects(n).size());
  }
  EXPECT_GT(min_n, 0u);
  EXPECT_LT(static_cast<double>(max_n),
            3.0 * static_cast<double>(min_n) + 50.0);
}

TEST(ClusterSimTest, FullScanTimeMatchesBandwidthArithmetic) {
  ObjectStore store = MakeStore();
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.node.disk_mbps = 150.0;
  ClusterSim cluster(cfg);
  ASSERT_TRUE(cluster.LoadPartitioned(store).ok());
  SimSeconds t = cluster.FullScanSimSeconds();
  // Max node bytes / bandwidth.
  uint64_t max_bytes = 0;
  for (size_t n = 0; n < cluster.num_nodes(); ++n) {
    max_bytes = std::max(max_bytes, cluster.NodeBytes(n));
  }
  EXPECT_DOUBLE_EQ(t, static_cast<double>(max_bytes) / (150.0 * 1e6));
}

TEST(ClusterSimTest, MoreNodesScanFaster) {
  ObjectStore store = MakeStore();
  SimSeconds prev = 1e18;
  for (size_t nodes : {1, 4, 16}) {
    ClusterConfig cfg;
    cfg.num_nodes = nodes;
    ClusterSim cluster(cfg);
    ASSERT_TRUE(cluster.LoadPartitioned(store).ok());
    SimSeconds t = cluster.FullScanSimSeconds();
    EXPECT_LT(t, prev);
    prev = t;
  }
}

TEST(ClusterSimTest, ParallelScanVisitsEverything) {
  ObjectStore store = MakeStore();
  ClusterConfig cfg;
  cfg.num_nodes = 5;
  ClusterSim cluster(cfg);
  ASSERT_TRUE(cluster.LoadPartitioned(store).ok());
  std::atomic<uint64_t> count{0};
  ScanReport report = cluster.ParallelScan(
      [&](size_t, const PhotoObj&) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), store.object_count());
  EXPECT_EQ(report.objects_scanned, store.object_count());
  EXPECT_EQ(report.bytes_scanned,
            store.object_count() * cfg.bytes_per_object);
  EXPECT_GT(report.aggregate_mbps, 0.0);
}

TEST(ClusterSimTest, AggregateBandwidthScalesWithNodes) {
  // The paper's 20-node * 150 MB/s = 3 GB/s arithmetic.
  ObjectStore store = MakeStore(20000);
  ClusterConfig cfg;
  cfg.num_nodes = 20;
  ClusterSim cluster(cfg);
  ASSERT_TRUE(cluster.LoadPartitioned(store).ok());
  ScanReport report =
      cluster.ParallelScan([](size_t, const PhotoObj&) {});
  // Aggregate rate approaches nodes * per-node bandwidth (within the
  // imbalance factor of the busiest node).
  EXPECT_GT(report.aggregate_mbps, 0.6 * 20 * 150.0);
  EXPECT_LE(report.aggregate_mbps, 20 * 150.0 + 1.0);
}

TEST(ClusterSimTest, ZeroNodeConfigClampsToOne) {
  ClusterConfig cfg;
  cfg.num_nodes = 0;
  ClusterSim cluster(cfg);
  EXPECT_EQ(cluster.num_nodes(), 1u);
}

}  // namespace
}  // namespace sdss::dataflow
