// Equivalence property: for randomized skies, shard counts 1..8, and the
// mixed query list, the federated engine's answers equal a one-shard
// engine's over the unsharded store (rows as multisets, deterministic
// ORDER BY sequences exactly, aggregates to 1e-9) -- including with one
// server marked down when every container has a surviving replica.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "archive/sharded_store.h"
#include "core/random.h"
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

/// Checks that the fleet's summed PredictShards slices of `sql` equal
/// the one-store prediction, with every container counted once
/// fleet-wide. Returns the fleet's summed ghost traffic.
uint64_t ExpectFleetPredictsLikeOneStore(
    const std::vector<query::Shard>& fleet,
    const catalog::ObjectStore& store, const std::string& sql) {
  SCOPED_TRACE(sql);
  auto parsed = query::Parse(sql);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  if (!parsed.ok()) return 0;
  auto plan = query::BuildPlan(*parsed, store);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  if (!plan.ok()) return 0;

  const std::vector<query::ShardPrediction> slices =
      query::PredictShards(fleet, *plan);
  const std::vector<query::ShardPrediction> one =
      query::PredictShards({query::Shard{0, &store, nullptr}}, *plan);
  EXPECT_EQ(slices.size(), fleet.size());
  EXPECT_EQ(one.size(), 1u);
  if (one.size() != 1) return 0;
  uint64_t shipped = 0, one_shipped = 0;
  const catalog::ObjectStore::Prediction total =
      query::SumShards(slices, &shipped);
  const catalog::ObjectStore::Prediction single =
      query::SumShards(one, &one_shipped);
  EXPECT_EQ(total.bytes_to_scan, single.bytes_to_scan);
  EXPECT_EQ(total.min_objects, single.min_objects);
  EXPECT_EQ(total.max_objects, single.max_objects);
  EXPECT_DOUBLE_EQ(total.expected_objects, single.expected_objects);
  EXPECT_EQ(one_shipped, 0u);  // One store ships nothing.
  uint64_t containers = 0;
  for (const query::ShardPrediction& p : slices) containers += p.containers;
  EXPECT_EQ(containers, one[0].containers);

  const query::PlanNode* leaf = plan->root.get();
  while (!leaf->children.empty()) leaf = leaf->children[0].get();
  if (leaf->has_region) {
    // The one-store prediction is ObjectStore::PredictRegion's.
    const catalog::ObjectStore::Prediction region =
        store.PredictRegion(leaf->region);
    EXPECT_EQ(single.bytes_to_scan, region.bytes_to_scan);
    EXPECT_EQ(single.min_objects, region.min_objects);
    EXPECT_EQ(single.max_objects, region.max_objects);
    EXPECT_DOUBLE_EQ(single.expected_objects, region.expected_objects);
  } else {
    EXPECT_EQ(one[0].containers, store.container_count());
    EXPECT_EQ(single.min_objects, store.object_count());
  }
  return shipped;
}

TEST(FederationPropertyTest, FleetPredictionEqualsOneStorePrediction) {
  auto store = MakeSky(707, 3000, 2500, 60);
  ShardedStore sharded(store, {4, 2});
  auto shards = sharded.LiveShards();
  ASSERT_TRUE(shards.ok());
  ASSERT_EQ(shards->size(), 4u);

  Rng rng(707);
  for (int i = 0; i < 24; ++i) {
    char sql[160];
    std::snprintf(sql, sizeof(sql),
                  "SELECT obj_id, r FROM photo WHERE CIRCLE('GAL', %.4f, "
                  "%.4f, %.3f) AND r < 21",
                  rng.Uniform(0.0, 360.0), rng.Uniform(25.0, 88.0),
                  rng.Uniform(0.2, 9.0));
    ExpectFleetPredictsLikeOneStore(*shards, store, sql);
  }
  ExpectFleetPredictsLikeOneStore(*shards, store,
                                  "SELECT COUNT(*) FROM photo WHERE r < 21");
  EXPECT_GT(ExpectFleetPredictsLikeOneStore(
                *shards, store,
                "SELECT COUNT(*) FROM photo AS a JOIN photoobj AS b "
                "WITHIN 30 ARCSEC"),
            0u);
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
