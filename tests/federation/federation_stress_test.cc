// Concurrency stress: 8 client threads fire mixed queries at ONE shared
// FederatedQueryEngine (shared scan pool, interleaved fan-outs, streaming
// cancellations). Each thread validates its own answers against
// precomputed single-store ground truth. Run under ThreadSanitizer in CI.

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
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

constexpr int kThreads = 8;
constexpr int kIterations = 8;

TEST(FederationStressTest, EightThreadsMixedQueriesOneEngine) {
  auto store = MakeSky(808, 2000, 1500, 50);
  FederatedQueryEngine single = SingleStore(&store);

  ReplicationOptions repl;
  repl.num_servers = 4;
  repl.base_replicas = 2;
  ShardedStore sharded(store, repl);
  auto shards = sharded.LiveShards();
  ASSERT_TRUE(shards.ok());
  FederatedQueryEngine fed(*shards);

  const auto queries = MixedQueries();
  std::vector<query::QueryResult> expected;
  for (const TestQuery& q : queries) {
    auto r = single.Execute(q.sql);
    ASSERT_TRUE(r.ok()) << q.sql << ": " << r.status().ToString();
    expected.push_back(std::move(*r));
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int tid = 0; tid < kThreads; ++tid) {
    clients.emplace_back([&, tid] {
      for (int i = 0; i < kIterations; ++i) {
        size_t qi = static_cast<size_t>(tid * 7 + i * 3) % queries.size();
        if (i % 4 == 3) {
          // Streaming with mid-stream cancellation: exercises the
          // fan-out teardown path under contention.
          uint64_t seen = 0;
          auto st = fed.ExecuteStreaming(
              "SELECT obj_id, r FROM photo WHERE r < 23",
              [&seen](const query::RowBatch& batch) {
                seen += batch.size();
                return seen < 128;
              });
          if (!st.ok()) failures.fetch_add(1);
          continue;
        }
        auto got = fed.Execute(queries[qi].sql);
        if (!got.ok()) {
          ADD_FAILURE() << queries[qi].sql << " [thread " << tid
                        << "]: " << got.status().ToString();
          failures.fetch_add(1);
          continue;
        }
        ExpectEquivalent(expected[qi], *got, queries[qi].mode,
                         queries[qi].sql + " [thread " +
                             std::to_string(tid) + "]");
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(FederationStressTest, ConcurrentQueriesAcrossFailover) {
  // Half the clients query while the other half flip routing between
  // the full fleet and a degraded one; every answer must come from a
  // consistent snapshot (all containers exactly once).
  auto store = MakeSky(809, 1500, 1200, 40);
  FederatedQueryEngine single = SingleStore(&store);
  auto expect = single.Execute("SELECT COUNT(*) FROM photo WHERE r < 22");
  ASSERT_TRUE(expect.ok());

  ReplicationOptions repl;
  repl.num_servers = 4;
  repl.base_replicas = 2;
  ShardedStore sharded(store, repl);
  auto full = sharded.LiveShards();
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(sharded.MarkServerDown(1).ok());
  auto degraded = sharded.LiveShards();
  ASSERT_TRUE(degraded.ok());
  ASSERT_TRUE(sharded.MarkServerUp(1).ok());
  FederatedQueryEngine fed(*full);

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int tid = 0; tid < kThreads; ++tid) {
    clients.emplace_back([&, tid] {
      for (int i = 0; i < kIterations; ++i) {
        if (tid % 2 == 0) {
          fed.SetShards(i % 2 == 0 ? *degraded : *full);
        }
        auto got = fed.Execute("SELECT COUNT(*) FROM photo WHERE r < 22");
        if (!got.ok() ||
            got->aggregate_value != expect->aggregate_value) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace sdss::federation_test
