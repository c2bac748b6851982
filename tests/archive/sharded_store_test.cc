// ShardedStore: placement, routing, failover and promotion.

#include "archive/sharded_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "catalog/sky_generator.h"
#include "htm/trixel.h"

namespace sdss::archive {
namespace {

using catalog::ObjectStore;
using catalog::SkyGenerator;
using catalog::SkyModel;

ObjectStore MakeStore(uint64_t seed = 33) {
  SkyModel m;
  m.seed = seed;
  m.num_galaxies = 2000;
  m.num_stars = 1500;
  m.num_quasars = 40;
  ObjectStore store;
  EXPECT_TRUE(store.BulkLoad(SkyGenerator(m).Generate()).ok());
  return store;
}

/// Every column's bytes, in the canonical column order.
std::vector<std::string> ColumnBytes(const catalog::ColumnarBlock& block) {
  std::vector<std::string> out;
  catalog::ForEachColumn(block, [&](const auto& column, const auto&) {
    using T = typename std::decay_t<decltype(column)>::value_type;
    out.emplace_back(column.data(), block.n * sizeof(T));
  });
  return out;
}

ReplicationOptions Opts(size_t servers, size_t replicas) {
  ReplicationOptions o;
  o.num_servers = servers;
  o.base_replicas = replicas;
  return o;
}

TEST(ShardedStoreTest, PlacesEveryReplica) {
  ObjectStore store = MakeStore();
  ShardedStore sharded(store, Opts(4, 2));
  ASSERT_EQ(sharded.num_servers(), 4u);

  // Every container is placed on base_replicas distinct servers, so
  // the placement accounts for 2x the source data.
  uint64_t source_bytes = 0;
  for (const auto& [raw, container] : store.containers()) {
    auto replicas = sharded.ReplicasFor(raw);
    ASSERT_TRUE(replicas.ok()) << "container " << raw;
    EXPECT_EQ(replicas->size(), 2u) << "container " << raw;
    EXPECT_NE((*replicas)[0], (*replicas)[1]) << "container " << raw;
    source_bytes += container.FullBytes();
  }
  EXPECT_EQ(sharded.Stats().total_bytes, 2 * source_bytes);
}

TEST(ShardedStoreTest, LiveShardsPartitionTheSourceExactly) {
  ObjectStore store = MakeStore();
  ShardedStore sharded(store, Opts(5, 2));
  auto shards = sharded.LiveShards();
  ASSERT_TRUE(shards.ok());

  std::unordered_set<uint64_t> served_ids;
  uint64_t served_objects = 0;
  for (const auto& shard : *shards) {
    for (const auto& [raw, container] : shard.store->containers()) {
      EXPECT_TRUE(served_ids.insert(raw).second)
          << "container " << raw << " routed to two shards";
      served_objects += container.size();
    }
  }
  EXPECT_EQ(served_ids.size(), store.container_count());
  EXPECT_EQ(served_objects, store.object_count());
}

TEST(ShardedStoreTest, RoutingPrefersPrimaries) {
  // Placement is deterministic, so an identically configured manager
  // predicts the primaries; with every server up, routing must follow
  // them.
  ObjectStore store = MakeStore();
  ShardedStore sharded(store, Opts(4, 2));
  ReplicationManager manager(Opts(4, 2));
  ASSERT_TRUE(manager.AssignFrom(store).ok());

  auto shards = sharded.LiveShards();
  ASSERT_TRUE(shards.ok());
  for (const auto& shard : *shards) {
    for (const auto& [raw, container] : shard.store->containers()) {
      auto replicas = manager.ServersFor(raw);
      ASSERT_TRUE(replicas.ok());
      EXPECT_EQ(shard.server, (*replicas)[0]) << "container " << raw;
    }
  }
}

TEST(ShardedStoreTest, FailoverReroutesToSurvivingReplica) {
  ObjectStore store = MakeStore();
  ShardedStore sharded(store, Opts(4, 2));

  auto before = sharded.LiveShards();
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(sharded.MarkServerDown(2).ok());
  EXPECT_FALSE(sharded.server_up(2));

  auto after = sharded.LiveShards();
  ASSERT_TRUE(after.ok());
  uint64_t objects = 0;
  for (const auto& shard : *after) {
    EXPECT_NE(shard.server, 2u) << "downed server still routed";
    objects += shard.store->object_count();
  }
  EXPECT_EQ(objects, store.object_count());

  ASSERT_TRUE(sharded.MarkServerUp(2).ok());
  EXPECT_TRUE(sharded.server_up(2));
  auto recovered = sharded.LiveShards();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->size(), before->size());
}

TEST(ShardedStoreTest, AllReplicasDownIsUnavailable) {
  ObjectStore store = MakeStore();
  ShardedStore sharded(store, Opts(3, 1));
  auto shards = sharded.LiveShards();
  ASSERT_TRUE(shards.ok());
  ASSERT_FALSE(shards->empty());
  // The lone replica of everything the first shard serves goes down.
  const size_t victim = shards->front().server;
  ASSERT_TRUE(sharded.MarkServerDown(victim).ok());
  EXPECT_FALSE(sharded.LiveShards().ok());
  ASSERT_TRUE(sharded.MarkServerUp(victim).ok());
  EXPECT_TRUE(sharded.LiveShards().ok());
}

TEST(ShardedStoreTest, MarkServerOutOfRangeFails) {
  ObjectStore store = MakeStore();
  ShardedStore sharded(store, Opts(3, 2));
  EXPECT_FALSE(sharded.MarkServerDown(99).ok());
  EXPECT_FALSE(sharded.MarkServerUp(99).ok());
}

TEST(ShardedStoreTest, StatsReportPlacement) {
  ObjectStore store = MakeStore();
  ShardedStore sharded(store, Opts(4, 2));
  PlacementStats stats = sharded.Stats();
  EXPECT_EQ(stats.containers, store.container_count());
  EXPECT_GT(stats.total_bytes, 0u);
}

TEST(ShardedStoreTest, PromotedHotContainerServedByHeatChosenServer) {
  ObjectStore store = MakeStore();
  ShardedStore sharded(store, Opts(4, 1));

  // Heat one container far above the rest. With base_replicas = 1 its
  // lone replica is the routing choice before promotion.
  uint64_t hot = store.containers().begin()->first;
  auto before = sharded.ReplicasFor(hot);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->size(), 1u);
  size_t old_primary = (*before)[0];
  sharded.RecordAccess(hot, 100000);

  // Promotion is a routing change: the fleet's epoch (every cached
  // answer's stamp) must not move.
  const uint64_t epoch = sharded.Epoch();
  ASSERT_TRUE(sharded.PromoteHotContainers(/*top_fraction=*/0.0005, 1).ok());
  EXPECT_EQ(sharded.Epoch(), epoch);

  // The heat-chosen server is now the preferred read target.
  auto after = sharded.ReplicasFor(hot);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->size(), 2u);
  size_t promoted = (*after)[0];
  EXPECT_NE(promoted, old_primary);

  // The shard of the heat-chosen server serves the container, holding
  // the source's columns bit for bit, in row order.
  auto shards = sharded.LiveShards();
  ASSERT_TRUE(shards.ok());
  size_t routed = 0;
  for (const auto& shard : *shards) {
    auto it = shard.store->containers().find(hot);
    if (it == shard.store->containers().end()) continue;
    ++routed;
    EXPECT_EQ(shard.server, promoted)
        << "hot container not served by its heat-chosen server";
    const catalog::Container& source = store.containers().at(hot);
    EXPECT_EQ(it->second.trixel.raw(), source.trixel.raw());
    ASSERT_EQ(it->second.size(), source.size());
    EXPECT_EQ(ColumnBytes(it->second.columnar), ColumnBytes(source.columnar));
  }
  EXPECT_EQ(routed, 1u);

  // The promotion is invisible to query answers: the fleet still
  // matches the source store.
  query::FederatedQueryEngine single({query::Shard{0, &store, nullptr}});
  query::FederatedQueryEngine fed(*shards);
  const std::string sql = "SELECT COUNT(*) FROM photo WHERE r < 21.5";
  auto expect = single.Execute(sql);
  auto got = fed.Execute(sql);
  ASSERT_TRUE(expect.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_DOUBLE_EQ(expect->aggregate_value, got->aggregate_value);
}

TEST(ShardedStoreTest, EpochContinuesTheSourceGeneration) {
  // A fleet over a recovered archive (a store restored to generation E)
  // stamps cached answers with E, and routing events leave it there.
  ObjectStore store = MakeStore();
  constexpr uint64_t kRestored = 41;
  store.RestoreEpoch(kRestored);
  ShardedStore sharded(store, Opts(4, 2));
  EXPECT_EQ(sharded.Epoch(), kRestored);

  ASSERT_TRUE(sharded.MarkServerDown(1).ok());
  EXPECT_EQ(sharded.Epoch(), kRestored);
  sharded.RecordAccess(store.containers().begin()->first, 1000);
  ASSERT_TRUE(sharded.PromoteHotContainers(/*top_fraction=*/0.01, 1).ok());
  EXPECT_EQ(sharded.Epoch(), kRestored);
}

TEST(ShardedStoreTest, PromotionWhileQueriesRunMatchesTheOracle) {
  // One thread queries the fleet while another heats containers,
  // promotes them and swaps the engine onto the new routing: every
  // answer equals the one-store oracle's.
  ObjectStore store = MakeStore();
  ShardedStore sharded(store, Opts(4, 1));
  auto shards = sharded.LiveShards();
  ASSERT_TRUE(shards.ok());
  query::FederatedQueryEngine fed(*shards);
  query::FederatedQueryEngine single({query::Shard{0, &store, nullptr}});

  const std::vector<std::string> queries = {
      "SELECT obj_id FROM photo WHERE CIRCLE('J2000', 180, 30, 8)",
      "SELECT obj_id FROM photo WHERE CIRCLE('J2000', 200, 45, 12) "
      "AND r < 21",
      "SELECT COUNT(*) FROM photo WHERE r < 21.5",
      "SELECT COUNT(*) FROM photo WHERE CIRCLE('J2000', 190, 40, 10)",
  };
  // A COUNT's value, or the sorted ids of a row query.
  auto answer = [](const query::QueryResult& r) {
    std::vector<uint64_t> out;
    if (r.is_aggregate) {
      out.push_back(static_cast<uint64_t>(r.aggregate_value));
      return out;
    }
    for (const query::ResultRow& row : r.rows) out.push_back(row.obj_id);
    std::sort(out.begin(), out.end());
    return out;
  };
  std::vector<std::vector<uint64_t>> oracle;
  for (const std::string& sql : queries) {
    auto r = single.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    oracle.push_back(answer(*r));
  }

  std::vector<uint64_t> ids;
  for (const auto& [raw, container] : store.containers()) ids.push_back(raw);
  constexpr size_t kMinPromotions = 8;
  std::atomic<size_t> promotions{0};
  std::atomic<bool> queries_done{false};
  std::atomic<bool> promoter_done{false};
  std::thread promoter([&] {
    for (size_t i = 0; !queries_done.load() || i < kMinPromotions; ++i) {
      sharded.RecordAccess(ids[(i * 37) % ids.size()], 1000 + i);
      if (!sharded.PromoteHotContainers(/*top_fraction=*/0.01, 1).ok()) {
        break;
      }
      auto live = sharded.LiveShards();
      if (!live.ok()) break;
      fed.SetShards(std::move(*live));
      promotions.fetch_add(1);
    }
    promoter_done.store(true);
  });
  // Query until the promoter has swapped the routing several times (or
  // stopped early, which the final check reports).
  for (size_t round = 0;
       round < 6 ||
       (promotions.load() < kMinPromotions && !promoter_done.load());
       ++round) {
    for (size_t q = 0; q < queries.size(); ++q) {
      auto r = fed.Execute(queries[q]);
      // No ASSERT here: returning early would leave the promoter joinable.
      EXPECT_TRUE(r.ok()) << queries[q] << ": " << r.status().ToString();
      if (!r.ok()) continue;
      EXPECT_EQ(answer(*r), oracle[q]) << queries[q] << " in round " << round;
    }
  }
  queries_done.store(true);
  promoter.join();
  EXPECT_GE(promotions.load(), kMinPromotions);
}

TEST(ShardedStoreTest, ReplicasForFeedsShippingIntoRouting) {
  ObjectStore store = MakeStore(77);
  ShardedStore sharded(store, Opts(2, 2));

  // Bytes of one source container and the server currently serving it.
  auto bytes_of = [&store](uint64_t raw) -> uint64_t {
    auto it = store.containers().find(raw);
    return it == store.containers().end() ? 0
                                          : it->second.FullBytes();
  };
  auto served_by = [&sharded](uint64_t raw) {
    auto r = sharded.ReplicasFor(raw);
    return r.ok() ? (*r)[0] : SIZE_MAX;
  };

  // A separation two degrees wide saturates the boundary band (a level-6
  // trixel is ~1.4 degrees across): shipping dominates scanning wherever
  // most of a container's neighbors are served by the other replica.
  constexpr double kBigSepArcsec = 2.0 * 3600.0;
  constexpr double kTinySepArcsec = 0.001;

  size_t flipped = 0;
  for (const auto& [raw, container] : store.containers()) {
    auto plain = sharded.ReplicasFor(raw);
    ASSERT_TRUE(plain.ok());
    // A vanishing band never reorders: scanning dominates.
    auto tiny = sharded.ReplicasFor(raw, kTinySepArcsec);
    ASSERT_TRUE(tiny.ok());
    EXPECT_EQ(*plain, *tiny);

    auto routed = sharded.ReplicasFor(raw, kBigSepArcsec);
    ASSERT_TRUE(routed.ok());
    if ((*routed)[0] == (*plain)[0]) continue;
    ++flipped;

    // The flip must point at the replica co-located with more neighbor
    // bytes: serving there receives strictly less ghost traffic.
    auto id = htm::HtmId::FromRaw(raw);
    ASSERT_TRUE(id.ok());
    uint64_t at_old = 0, at_new = 0;
    for (htm::HtmId n : htm::Trixel::FromId(*id).Neighbors()) {
      uint64_t nbytes = bytes_of(n.raw());
      if (nbytes == 0) continue;
      size_t home = served_by(n.raw());
      if (home == (*plain)[0]) at_old += nbytes;
      if (home == (*routed)[0]) at_new += nbytes;
    }
    EXPECT_GT(at_new, at_old + bytes_of(raw))
        << "flip without a dominant shipping saving at container " << raw;
  }
  // The boundary-band estimate must actually flip some routes on this
  // sky -- otherwise the feature is dead code.
  EXPECT_GT(flipped, 0u);
}

}  // namespace
}  // namespace sdss::archive
