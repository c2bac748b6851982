// ShardedStore: placement materialization, routing, and failover hooks.

#include "archive/sharded_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
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

TEST(ShardedStoreTest, MaterializesEveryReplica) {
  ObjectStore store = MakeStore();
  ShardedStore sharded(store, Opts(4, 2));
  ASSERT_EQ(sharded.num_servers(), 4u);

  // Each container must appear in exactly base_replicas server stores,
  // so the fleet holds 2x the source data.
  uint64_t replicated_objects = 0;
  for (size_t s = 0; s < sharded.num_servers(); ++s) {
    replicated_objects += sharded.server_store(s).object_count();
  }
  EXPECT_EQ(replicated_objects, 2 * store.object_count());
}

TEST(ShardedStoreTest, LiveShardsPartitionTheSourceExactly) {
  ObjectStore store = MakeStore();
  ShardedStore sharded(store, Opts(5, 2));
  auto shards = sharded.LiveShards();
  ASSERT_TRUE(shards.ok());

  std::unordered_set<uint64_t> assigned_ids;
  uint64_t assigned_objects = 0;
  for (const auto& shard : *shards) {
    ASSERT_NE(shard.assigned, nullptr);
    for (uint64_t raw : *shard.assigned) {
      EXPECT_TRUE(assigned_ids.insert(raw).second)
          << "container " << raw << " routed to two shards";
      assigned_objects +=
          shard.store->containers().at(raw).size();
    }
  }
  EXPECT_EQ(assigned_ids.size(), store.container_count());
  EXPECT_EQ(assigned_objects, store.object_count());
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
    for (uint64_t raw : *shard.assigned) {
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
    for (uint64_t raw : *shard.assigned) {
      objects += shard.store->containers().at(raw).size();
    }
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
  for (size_t s = 0; s < sharded.num_servers(); ++s) {
    if (sharded.server_store(s).container_count() == 0) continue;
    ASSERT_TRUE(sharded.MarkServerDown(s).ok());
    auto shards = sharded.LiveShards();
    EXPECT_FALSE(shards.ok());
    ASSERT_TRUE(sharded.MarkServerUp(s).ok());
    break;
  }
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

  // Promotion copies data the fleet already serves: the fleet's epoch
  // (every cached answer's stamp) must not move.
  const uint64_t epoch = sharded.Epoch();
  ASSERT_TRUE(sharded.PromoteHotContainers(/*top_fraction=*/0.0005, 1).ok());
  EXPECT_EQ(sharded.Epoch(), epoch);

  // The heat-chosen server now holds a materialized copy and is the
  // preferred read target.
  auto after = sharded.ReplicasFor(hot);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->size(), 2u);
  size_t promoted = (*after)[0];
  EXPECT_NE(promoted, old_primary);
  ASSERT_GT(sharded.server_store(promoted).containers().count(hot), 0u);
  // The copy holds the source's columns bit for bit, in row order.
  const catalog::Container& copy =
      sharded.server_store(promoted).containers().at(hot);
  const catalog::Container& source = store.containers().at(hot);
  EXPECT_EQ(copy.trixel.raw(), source.trixel.raw());
  ASSERT_EQ(copy.size(), source.size());
  EXPECT_EQ(ColumnBytes(copy.columnar), ColumnBytes(source.columnar));

  auto shards = sharded.LiveShards();
  ASSERT_TRUE(shards.ok());
  bool routed = false;
  for (const auto& shard : *shards) {
    if (shard.assigned->count(hot) > 0) {
      EXPECT_EQ(shard.server, promoted)
          << "hot container not served by its heat-chosen server";
      routed = true;
    }
  }
  EXPECT_TRUE(routed);

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
