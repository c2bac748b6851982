// Failover: with base_replicas = 2, killing any single server re-routes
// its containers to surviving replicas -- results stay identical and
// containers_scanned stays constant. With base_replicas = 1 a dead
// server means lost containers: a clean error, never a crash or a
// silent partial result.

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

// Uncapped queries only: LIMIT cancels scans at a timing-dependent
// point, which would make the containers_scanned assertion flaky.
std::vector<TestQuery> FailoverQueries() {
  std::vector<TestQuery> out;
  for (const TestQuery& q : MixedQueries()) {
    if (q.sql.find("LIMIT") == std::string::npos) out.push_back(q);
  }
  return out;
}

TEST(FederationFailoverTest, EachServerDownKeepsResultsIdentical) {
  auto store = MakeSky(710, 2500, 2000, 60);
  constexpr size_t kServers = 4;
  ReplicationOptions repl;
  repl.num_servers = kServers;
  repl.base_replicas = 2;
  ShardedStore sharded(store, repl);

  auto baseline_shards = sharded.LiveShards();
  ASSERT_TRUE(baseline_shards.ok());
  FederatedQueryEngine fed(*baseline_shards);

  const auto queries = FailoverQueries();
  std::vector<query::QueryResult> baseline;
  for (const TestQuery& q : queries) {
    auto r = fed.Execute(q.sql);
    ASSERT_TRUE(r.ok()) << q.sql << ": " << r.status().ToString();
    baseline.push_back(std::move(*r));
  }

  for (size_t victim = 0; victim < kServers; ++victim) {
    ASSERT_TRUE(sharded.MarkServerDown(victim).ok());
    auto rerouted = sharded.LiveShards();
    ASSERT_TRUE(rerouted.ok())
        << "victim " << victim << ": " << rerouted.status().ToString();
    fed.SetShards(*rerouted);

    for (size_t i = 0; i < queries.size(); ++i) {
      auto r = fed.Execute(queries[i].sql);
      ASSERT_TRUE(r.ok()) << queries[i].sql << " with server " << victim
                          << " down: " << r.status().ToString();
      ExpectEquivalent(baseline[i], *r, queries[i].mode,
                       queries[i].sql + " with server " +
                           std::to_string(victim) + " down");
      EXPECT_EQ(baseline[i].exec.containers_scanned,
                r->exec.containers_scanned)
          << queries[i].sql << " with server " << victim << " down";
    }

    ASSERT_TRUE(sharded.MarkServerUp(victim).ok());
  }
}

TEST(FederationFailoverTest, UnreplicatedServerLossIsCleanError) {
  auto store = MakeSky(711, 1500, 1200, 40);
  constexpr size_t kServers = 4;
  ReplicationOptions repl;
  repl.num_servers = kServers;
  repl.base_replicas = 1;
  ShardedStore sharded(store, repl);

  for (size_t victim = 0; victim < kServers; ++victim) {
    // Only servers that actually hold containers lose data.
    if (sharded.server_store(victim).container_count() == 0) continue;
    ASSERT_TRUE(sharded.MarkServerDown(victim).ok());
    auto shards = sharded.LiveShards();
    EXPECT_FALSE(shards.ok())
        << "server " << victim
        << " held unreplicated containers; routing must refuse";
    ASSERT_TRUE(sharded.MarkServerUp(victim).ok());
  }
}

TEST(FederationFailoverTest, DownedServerStoreStaysReadableForSnapshots) {
  // Queries running against a previously obtained LiveShards snapshot
  // keep working while the router is updated: shard stores are immutable
  // and owned by the ShardedStore.
  auto store = MakeSky(712, 1500, 1200, 40);
  ReplicationOptions repl;
  repl.num_servers = 3;
  repl.base_replicas = 2;
  ShardedStore sharded(store, repl);
  auto snapshot = sharded.LiveShards();
  ASSERT_TRUE(snapshot.ok());
  FederatedQueryEngine fed(*snapshot);

  auto before = fed.Execute("SELECT COUNT(*) FROM photo");
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(sharded.MarkServerDown(0).ok());
  auto after = fed.Execute("SELECT COUNT(*) FROM photo");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before->aggregate_value, after->aggregate_value);
}

}  // namespace
}  // namespace sdss::federation_test
