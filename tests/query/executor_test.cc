// Executor-level tests: the RowChannel primitive, error propagation from
// inside running plans, cancellation robustness, and batch behaviour.

#include "query/executor.h"

#include <gtest/gtest.h>

#include <thread>

#include "catalog/sky_generator.h"
#include "query/federated_engine.h"

namespace sdss::query {
namespace {

using catalog::ObjectStore;
using catalog::SkyGenerator;
using catalog::SkyModel;

// --- RowChannel -------------------------------------------------------

RowBatch OneRow(uint64_t id) {
  ResultRow r;
  r.obj_id = id;
  return {r};
}

TEST(RowChannelTest, PushPopInOrder) {
  RowChannel ch;
  ch.AddWriter();
  EXPECT_TRUE(ch.Push(OneRow(1)));
  EXPECT_TRUE(ch.Push(OneRow(2)));
  ch.CloseWriter();
  RowBatch b;
  ASSERT_TRUE(ch.Pop(&b));
  EXPECT_EQ(b[0].obj_id, 1u);
  ASSERT_TRUE(ch.Pop(&b));
  EXPECT_EQ(b[0].obj_id, 2u);
  EXPECT_FALSE(ch.Pop(&b));  // End of stream.
}

TEST(RowChannelTest, PopBlocksUntilPush) {
  RowChannel ch;
  ch.AddWriter();
  std::thread producer([&ch] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ch.Push(OneRow(7));
    ch.CloseWriter();
  });
  RowBatch b;
  ASSERT_TRUE(ch.Pop(&b));  // Blocks until the producer delivers.
  EXPECT_EQ(b[0].obj_id, 7u);
  producer.join();
}

TEST(RowChannelTest, CancelUnblocksProducerAndConsumer) {
  RowChannel ch(/*max_batches=*/1);
  ch.AddWriter();
  ASSERT_TRUE(ch.Push(OneRow(1)));  // Fills the channel.
  std::thread producer([&ch] {
    // This push blocks on the full channel until cancellation.
    EXPECT_FALSE(ch.Push(OneRow(2)));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ch.Cancel();
  producer.join();
  RowBatch b;
  EXPECT_FALSE(ch.Pop(&b));
  EXPECT_TRUE(ch.cancelled());
}

TEST(RowChannelTest, MultipleWritersEofAfterLastClose) {
  RowChannel ch;
  ch.AddWriter();
  ch.AddWriter();
  ch.Push(OneRow(1));
  ch.CloseWriter();
  ch.Push(OneRow(2));
  ch.CloseWriter();
  RowBatch b;
  EXPECT_TRUE(ch.Pop(&b));
  EXPECT_TRUE(ch.Pop(&b));
  EXPECT_FALSE(ch.Pop(&b));
}

// --- Error propagation through running plans --------------------------

class ExecutorErrorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SkyModel m;
    m.seed = 71;
    m.num_galaxies = 2000;
    m.num_stars = 1000;
    m.num_quasars = 50;
    store_ = new ObjectStore();
    ASSERT_TRUE(store_->BulkLoad(SkyGenerator(m).Generate()).ok());
  }
  static void TearDownTestSuite() {
    delete store_;
    store_ = nullptr;
  }
  static ObjectStore* store_;
};

ObjectStore* ExecutorErrorTest::store_ = nullptr;

TEST_F(ExecutorErrorTest, RuntimeDivisionByZeroSurfacesAndTerminates) {
  FederatedQueryEngine engine({Shard{0, store_, nullptr}});
  // (r - r) is zero for every row: the first evaluated row errors.
  auto r = engine.Execute(
      "SELECT obj_id FROM photo WHERE 1 / (r - r) > 0");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("division by zero"),
            std::string::npos);
}

TEST_F(ExecutorErrorTest, ErrorInsideSetOperationPropagates) {
  FederatedQueryEngine engine({Shard{0, store_, nullptr}});
  auto r = engine.Execute(
      "SELECT obj_id FROM photo WHERE r < 20 "
      "INTERSECT SELECT obj_id FROM photo WHERE 1 / (g - g) > 0");
  ASSERT_FALSE(r.ok());
}

TEST_F(ExecutorErrorTest, EngineIsReusableAfterError) {
  FederatedQueryEngine engine({Shard{0, store_, nullptr}});
  ASSERT_FALSE(
      engine.Execute("SELECT obj_id FROM photo WHERE 1 / (r - r) > 0")
          .ok());
  auto ok = engine.Execute("SELECT COUNT(*) FROM photo");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->aggregate_value,
            static_cast<double>(store_->object_count()));
}

TEST_F(ExecutorErrorTest, EmptyResultQueriesComplete) {
  FederatedQueryEngine engine({Shard{0, store_, nullptr}});
  auto r = engine.Execute("SELECT obj_id FROM photo WHERE r < 0");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows.empty());
  // Aggregates over empty inputs are well-defined.
  auto c = engine.Execute("SELECT COUNT(*) FROM photo WHERE r < 0");
  ASSERT_TRUE(c.ok());
  EXPECT_DOUBLE_EQ(c->aggregate_value, 0.0);
  auto mn = engine.Execute("SELECT MIN(r) FROM photo WHERE r < 0");
  ASSERT_TRUE(mn.ok());
  EXPECT_DOUBLE_EQ(mn->aggregate_value, 0.0);
}

TEST_F(ExecutorErrorTest, LimitZeroReturnsNothing) {
  FederatedQueryEngine engine({Shard{0, store_, nullptr}});
  auto r = engine.Execute("SELECT obj_id FROM photo LIMIT 0");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows.empty());
}

TEST_F(ExecutorErrorTest, RepeatedCancellationIsStable) {
  FederatedQueryEngine engine({Shard{0, store_, nullptr}});
  for (int i = 0; i < 20; ++i) {
    auto stats = engine.ExecuteStreaming(
        "SELECT obj_id FROM photo",
        [](const RowBatch&) { return false; });  // Cancel immediately.
    ASSERT_TRUE(stats.ok());
    EXPECT_TRUE(stats->cancelled_early);
  }
}

TEST_F(ExecutorErrorTest, ConcurrentQueriesOnOneStore) {
  // The store is read-only during queries; engines on separate threads
  // must not interfere.
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([this, &failures] {
      FederatedQueryEngine engine({Shard{0, store_, nullptr}});
      for (int i = 0; i < 5; ++i) {
        auto r = engine.Execute("SELECT COUNT(*) FROM photo WHERE r < 20");
        if (!r.ok() ||
            r->aggregate_value < 0) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ExecutorErrorTest, TinyBatchSizeStillExact) {
  FederatedQueryEngine::Options opt;
  opt.executor.batch_size = 1;
  FederatedQueryEngine tiny({Shard{0, store_, nullptr}}, opt);
  FederatedQueryEngine normal({Shard{0, store_, nullptr}});
  auto a = tiny.Execute("SELECT obj_id FROM photo WHERE r < 18");
  auto b = normal.Execute("SELECT obj_id FROM photo WHERE r < 18");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->rows.size(), b->rows.size());
}

TEST_F(ExecutorErrorTest, SingleScanThreadWorks) {
  FederatedQueryEngine::Options opt;
  opt.executor.scan_threads = 1;
  FederatedQueryEngine engine({Shard{0, store_, nullptr}}, opt);
  auto r = engine.Execute("SELECT COUNT(*) FROM photo");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->aggregate_value, static_cast<double>(store_->object_count()));
}

}  // namespace
}  // namespace sdss::query
