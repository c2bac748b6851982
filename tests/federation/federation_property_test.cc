// Equivalence property: for randomized skies, shard counts 1..8, and the
// mixed query list, the federated engine's answers equal a one-shard
// engine's over the unsharded store (rows as multisets, deterministic
// ORDER BY sequences exactly, aggregates to 1e-9) -- including with one
// server marked down when every container has a surviving replica.

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

struct SkyConfig {
  uint64_t seed;
  uint64_t galaxies, stars, quasars;
  size_t servers;
  size_t replicas;
};

void RunEquivalenceSweep(const SkyConfig& cfg, bool kill_one_server) {
  auto store = MakeSky(cfg.seed, cfg.galaxies, cfg.stars, cfg.quasars);
  FederatedQueryEngine single = SingleStore(&store);

  ReplicationOptions repl;
  repl.num_servers = cfg.servers;
  repl.base_replicas = cfg.replicas;
  ShardedStore sharded(store, repl);
  auto shards = sharded.LiveShards();
  ASSERT_TRUE(shards.ok()) << shards.status().ToString();
  FederatedQueryEngine fed(*shards);

  if (kill_one_server) {
    ASSERT_TRUE(sharded.MarkServerDown(cfg.servers / 2).ok());
    auto rerouted = sharded.LiveShards();
    ASSERT_TRUE(rerouted.ok()) << rerouted.status().ToString();
    fed.SetShards(*rerouted);
  }

  for (const TestQuery& q : MixedQueries()) {
    auto expect = single.Execute(q.sql);
    ASSERT_TRUE(expect.ok()) << q.sql << ": " << expect.status().ToString();
    auto got = fed.Execute(q.sql);
    ASSERT_TRUE(got.ok()) << q.sql << ": " << got.status().ToString();
    ExpectEquivalent(*expect, *got, q.mode,
                     q.sql + (kill_one_server ? " [one server down]" : ""));
    // Every container is scanned exactly once across the fleet, so the
    // federated scan counters must match the single store's. LIMIT
    // queries cancel their scans at a timing-dependent point, so only
    // uncapped queries have deterministic counters.
    if (q.sql.find("LIMIT") == std::string::npos) {
      EXPECT_EQ(expect->exec.objects_matched, got->exec.objects_matched)
          << q.sql;
    }
  }
}

TEST(FederationPropertyTest, ThreeShardsMatchSingleStore) {
  RunEquivalenceSweep({101, 3000, 2500, 60, 3, 2}, false);
}

TEST(FederationPropertyTest, EightShardsMatchSingleStore) {
  RunEquivalenceSweep({202, 4000, 3500, 80, 8, 2}, false);
}

TEST(FederationPropertyTest, SingleShardDegeneratesToSingleStore) {
  RunEquivalenceSweep({303, 1500, 1200, 40, 1, 1}, false);
}

TEST(FederationPropertyTest, FiveShardsOneServerDownStillMatch) {
  RunEquivalenceSweep({404, 3000, 2600, 70, 5, 2}, true);
}

TEST(FederationPropertyTest, ExplainReportsPerShardPredictions) {
  auto store = MakeSky(505, 2000, 1500, 40);
  ShardedStore sharded(store, {4, 2});
  auto shards = sharded.LiveShards();
  ASSERT_TRUE(shards.ok());
  FederatedQueryEngine fed(*shards);

  auto explain = fed.Explain(
      "SELECT obj_id, r FROM photo WHERE CIRCLE('GAL', 30, 70, 8) AND "
      "r < 21");
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain->find("federation: 4 live shards"), std::string::npos)
      << *explain;
  EXPECT_NE(explain->find("shard 0:"), std::string::npos) << *explain;
  EXPECT_NE(explain->find("shard 3:"), std::string::npos) << *explain;
  EXPECT_NE(explain->find("prediction:"), std::string::npos) << *explain;
}

TEST(FederationPropertyTest, NoLiveShardsIsCleanError) {
  FederatedQueryEngine fed({});
  auto r = fed.Execute("SELECT COUNT(*) FROM photo");
  EXPECT_FALSE(r.ok());
}

TEST(FederationPropertyTest, StreamingLimitCancelsFanOut) {
  auto store = MakeSky(606, 3000, 2500, 50);
  ShardedStore sharded(store, {4, 2});
  auto shards = sharded.LiveShards();
  ASSERT_TRUE(shards.ok());
  FederatedQueryEngine fed(*shards);

  uint64_t seen = 0;
  auto stats = fed.ExecuteStreaming(
      "SELECT obj_id, r FROM photo WHERE r < 23",
      [&seen](const query::RowBatch& batch) {
        seen += batch.size();
        return seen < 256;  // Cancel mid-stream.
      });
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->cancelled_early);
  EXPECT_GE(seen, 256u);
}

}  // namespace
}  // namespace sdss::federation_test
