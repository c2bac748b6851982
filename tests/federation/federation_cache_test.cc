// Semantic result cache at the federation layer: cached reruns must be
// indistinguishable from cold fleet runs across fleet sizes, containment
// answers must match real fan-outs, epoch bumps must invalidate
// mid-stream, and failover must keep the cache warm when the engine is
// wired to the fleet-wide epoch.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "archive/sharded_store.h"
#include "federation/federation_test_util.h"
#include "query/federated_engine.h"

namespace sdss::federation_test {
namespace {

using archive::ReplicationOptions;
using archive::ShardedStore;
using query::FederatedQueryEngine;

FederatedQueryEngine::Options CacheOptions(ShardedStore* sharded) {
  FederatedQueryEngine::Options opt;
  opt.result_cache_bytes = 32u << 20;
  if (sharded != nullptr) {
    opt.cache_epoch_source = [sharded] { return sharded->Epoch(); };
  }
  return opt;
}

TEST(FederationCacheTest, CachedRerunsMatchColdFleetsAcrossSizes) {
  auto store = MakeSky(730, 2500, 2000, 60);
  for (size_t servers : {size_t{1}, size_t{3}, size_t{8}}) {
    SCOPED_TRACE("servers=" + std::to_string(servers));
    ReplicationOptions repl;
    repl.num_servers = servers;
    repl.base_replicas = servers >= 2 ? 2 : 1;
    ShardedStore sharded(store, repl);
    auto shards = sharded.LiveShards();
    ASSERT_TRUE(shards.ok());
    FederatedQueryEngine cold(*shards);
    FederatedQueryEngine cached(*shards, CacheOptions(&sharded));

    for (const TestQuery& q : MixedQueries()) {
      auto base = cold.Execute(q.sql);
      ASSERT_TRUE(base.ok()) << q.sql << ": " << base.status().ToString();
      auto first = cached.Execute(q.sql);
      ASSERT_TRUE(first.ok()) << q.sql;
      auto second = cached.Execute(q.sql);
      ASSERT_TRUE(second.ok()) << q.sql;
      EXPECT_FALSE(first->exec.cache_hit) << q.sql;
      ExpectEquivalent(*base, *first, q.mode, q.sql + " (cold cache)");
      ExpectEquivalent(*base, *second, q.mode, q.sql + " (warm cache)");
    }
    auto* cache = cached.result_cache();
    ASSERT_NE(cache, nullptr);
    query::ResultCache::Stats stats = cache->stats();
    EXPECT_GT(stats.installs, 0u);
    EXPECT_GT(stats.hits, 0u);
    EXPECT_EQ(stats.epoch_invalidations, 0u);
  }
}

TEST(FederationCacheTest, SecondRunIsServedVerbatimFromTheCache) {
  auto store = MakeSky(731, 1500, 1200, 40);
  ReplicationOptions repl;
  repl.num_servers = 3;
  repl.base_replicas = 2;
  ShardedStore sharded(store, repl);
  auto shards = sharded.LiveShards();
  ASSERT_TRUE(shards.ok());
  FederatedQueryEngine fed(*shards, CacheOptions(&sharded));

  const std::string sql =
      "SELECT obj_id, r FROM photo WHERE r < 20.5 ORDER BY r LIMIT 40";
  auto first = fed.Execute(sql);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->exec.cache_hit);
  EXPECT_GT(first->exec.containers_scanned, 0u);
  auto second = fed.Execute(sql);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->exec.cache_hit);
  EXPECT_FALSE(second->exec.cache_containment);
  // A cache hit scans NOTHING -- that is the point.
  EXPECT_EQ(second->exec.containers_scanned, 0u);
  ASSERT_EQ(first->rows.size(), second->rows.size());
  for (size_t i = 0; i < first->rows.size(); ++i) {
    EXPECT_EQ(first->rows[i].obj_id, second->rows[i].obj_id);
    EXPECT_EQ(first->rows[i].values, second->rows[i].values);
  }

  // The opt-out context forces a real fan-out and installs nothing.
  query::ExecContext ctx;
  ctx.no_result_cache = true;
  auto opted_out = fed.Execute(sql, ctx);
  ASSERT_TRUE(opted_out.ok());
  EXPECT_FALSE(opted_out->exec.cache_hit);
  EXPECT_GT(opted_out->exec.containers_scanned, 0u);

  // Prepared under the opt-out, the statement is not fingerprinted: no
  // run of it could use the key.
  auto uncached = fed.Prepare(sql, ctx);
  ASSERT_TRUE(uncached.ok());
  EXPECT_FALSE(uncached->cacheable);
  EXPECT_TRUE(uncached->fingerprint.empty());
  auto cacheable = fed.Prepare(sql);
  ASSERT_TRUE(cacheable.ok());
  EXPECT_TRUE(cacheable->cacheable);
  EXPECT_FALSE(cacheable->fingerprint.empty());
}

TEST(FederationCacheTest, ContainmentAnswersMatchRealFanOut) {
  auto store = MakeSky(732, 2000, 1600, 50);
  ReplicationOptions repl;
  repl.num_servers = 3;
  repl.base_replicas = 2;
  ShardedStore sharded(store, repl);
  auto shards = sharded.LiveShards();
  ASSERT_TRUE(shards.ok());
  FederatedQueryEngine cold(*shards);
  FederatedQueryEngine cached(*shards, CacheOptions(&sharded));

  // Warm the cache with a wide cone carrying every attribute the
  // narrower probes need.
  auto wide = cached.Execute(
      "SELECT obj_id, u, g, r FROM photo WHERE CIRCLE('GAL', 30, 70, 10)");
  ASSERT_TRUE(wide.ok());

  const std::vector<TestQuery> probes = {
      {"SELECT obj_id, r FROM photo WHERE CIRCLE('GAL', 30, 70, 5) "
       "AND r < 21",
       CompareMode::kMultiset},
      {"SELECT obj_id, g FROM photo WHERE CIRCLE('GAL', 30, 70, 4) "
       "ORDER BY g LIMIT 15",
       CompareMode::kOrdered},
      {"SELECT COUNT(*) FROM photo WHERE CIRCLE('GAL', 30, 70, 6)",
       CompareMode::kAggregate},
      {"SELECT MIN(r) FROM photo WHERE CIRCLE('GAL', 30, 70, 5) "
       "AND g < 22",
       CompareMode::kAggregate},
  };
  for (const TestQuery& q : probes) {
    auto base = cold.Execute(q.sql);
    ASSERT_TRUE(base.ok()) << q.sql;
    auto served = cached.Execute(q.sql);
    ASSERT_TRUE(served.ok()) << q.sql;
    EXPECT_TRUE(served->exec.cache_containment) << q.sql;
    EXPECT_EQ(served->exec.containers_scanned, 0u) << q.sql;
    ExpectEquivalent(*base, *served, q.mode, q.sql + " (containment)");
  }
  query::ResultCache::Stats stats = cached.result_cache()->stats();
  EXPECT_EQ(stats.containment_hits, probes.size());
}

TEST(FederationCacheTest, EpochBumpInvalidatesMidStream) {
  catalog::ObjectStore store = MakeSky(733, 1200, 900, 30);
  std::vector<query::Shard> shards;
  shards.push_back({0, &store, nullptr});
  FederatedQueryEngine fed(shards, CacheOptions(nullptr));

  const std::string sql = "SELECT COUNT(*) FROM photo";
  auto before = fed.Execute(sql);
  ASSERT_TRUE(before.ok());
  auto warm = fed.Execute(sql);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->exec.cache_hit);
  EXPECT_EQ(warm->aggregate_value, before->aggregate_value);

  // Any mutation bumps the store epoch; the cached count is now a lie
  // and must never be served again.
  catalog::PhotoObj extra =
      store.containers().begin()->second.columnar.MaterializeObject(0);
  extra.obj_id = 77'777'777;
  ASSERT_TRUE(store.Insert(extra).ok());

  auto after = fed.Execute(sql);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->exec.cache_hit);
  EXPECT_EQ(after->aggregate_value, before->aggregate_value + 1);
  EXPECT_GE(fed.result_cache()->stats().epoch_invalidations, 1u);

  // The fresh answer re-installed under the new epoch: warm again.
  auto rewarmed = fed.Execute(sql);
  ASSERT_TRUE(rewarmed.ok());
  EXPECT_TRUE(rewarmed->exec.cache_hit);
  EXPECT_EQ(rewarmed->aggregate_value, after->aggregate_value);
}

TEST(FederationCacheTest, FailoverKeepsTheCacheWarm) {
  auto store = MakeSky(734, 1500, 1200, 40);
  ReplicationOptions repl;
  repl.num_servers = 4;
  repl.base_replicas = 2;
  ShardedStore sharded(store, repl);
  auto shards = sharded.LiveShards();
  ASSERT_TRUE(shards.ok());
  // Wired to the fleet-wide epoch: failover changes routing, not data,
  // so cached answers stay valid across it.
  FederatedQueryEngine fed(*shards, CacheOptions(&sharded));

  const std::string sql = "SELECT obj_id, r FROM photo WHERE r < 20";
  auto cold = fed.Execute(sql);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->exec.cache_hit);

  ASSERT_TRUE(sharded.MarkServerDown(0).ok());
  auto rerouted = sharded.LiveShards();
  ASSERT_TRUE(rerouted.ok());
  fed.SetShards(*rerouted);

  auto warm = fed.Execute(sql);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->exec.cache_hit);
  EXPECT_EQ(Normalize(*cold), Normalize(*warm));
}

TEST(FederationCacheTest, PredictedHitsPriceAtZeroBytes) {
  auto store = MakeSky(735, 1500, 1200, 40);
  ReplicationOptions repl;
  repl.num_servers = 3;
  repl.base_replicas = 2;
  ShardedStore sharded(store, repl);
  auto shards = sharded.LiveShards();
  ASSERT_TRUE(shards.ok());
  FederatedQueryEngine fed(*shards, CacheOptions(&sharded));

  const std::string sql = "SELECT obj_id, r FROM photo WHERE r < 21";
  auto cold_cost = fed.EstimateCost(sql);
  ASSERT_TRUE(cold_cost.ok());
  EXPECT_FALSE(cold_cost->predicted_cache_hit);
  EXPECT_GT(cold_cost->TotalBytes(), 0u);

  ASSERT_TRUE(fed.Execute(sql).ok());
  auto warm_cost = fed.EstimateCost(sql);
  ASSERT_TRUE(warm_cost.ok());
  EXPECT_TRUE(warm_cost->predicted_cache_hit);
  EXPECT_EQ(warm_cost->TotalBytes(), 0u);

  // The probe is non-mutating: it must not have counted as a hit.
  EXPECT_EQ(fed.result_cache()->stats().hits, 0u);
}

}  // namespace
}  // namespace sdss::federation_test
