// Executor-level tests: the StreamMorsels exchange, error propagation
// from inside running plans, cancellation robustness, batch behaviour,
// and the threading contract -- no thread per query, the sink on the
// caller's thread, progress on a saturated pool.

#include "query/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <future>
#include <mutex>
#include <thread>

#include "archive/mydb.h"
#include "archive/sharded_store.h"
#include "catalog/sky_generator.h"
#include "query/federated_engine.h"

namespace sdss::query {
namespace {

using catalog::ObjectStore;
using catalog::SkyGenerator;
using catalog::SkyModel;

// --- StreamMorsels ----------------------------------------------------

RowBatch OneRow(uint64_t id) {
  ResultRow r;
  r.obj_id = id;
  return {r};
}

TEST(StreamMorselsTest, OneMorselsBatchesArriveInOrderOnTheCaller) {
  ThreadPool pool(2);
  const auto caller = std::this_thread::get_id();
  std::vector<uint64_t> got;
  const bool live = StreamMorsels(
      &pool, 1,
      [](size_t, const BatchSink& emit) {
        for (uint64_t id = 1; id <= 3; ++id) emit(OneRow(id));
      },
      [&](RowBatch&& b) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        got.push_back(b[0].obj_id);
        return true;
      });
  EXPECT_TRUE(live);
  EXPECT_EQ(got, (std::vector<uint64_t>{1, 2, 3}));
}

TEST(StreamMorselsTest, CallerWaitsForAPoolMorselsBatch) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> pool_started{false};
  std::vector<uint64_t> got;
  StreamMorsels(
      &pool, 2,
      [&](size_t, const BatchSink& emit) {
        if (std::this_thread::get_id() == caller) {
          // Leave the other morsel to the pool worker.
          while (!pool_started.load()) std::this_thread::yield();
          return;
        }
        pool_started.store(true);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        emit(OneRow(7));
      },
      [&](RowBatch&& b) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        got.push_back(b[0].obj_id);
        return true;
      });
  // The caller blocked until the pool morsel delivered.
  EXPECT_EQ(got, (std::vector<uint64_t>{7}));
}

TEST(StreamMorselsTest, ConsumerStopReleasesBlockedProducers) {
  ThreadPool pool(3);
  std::atomic<int> refused{0};
  int consumed = 0;
  const bool live = StreamMorsels(
      &pool, 4,
      [&](size_t i, const BatchSink& emit) {
        // Producers push until refused; with a one-batch queue the pool
        // ones block on it while the consumer sleeps.
        while (emit(OneRow(i))) {
        }
        refused.fetch_add(1);
      },
      [&](RowBatch&&) {
        ++consumed;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return false;
      },
      /*max_queued=*/1);
  EXPECT_FALSE(live);
  EXPECT_EQ(consumed, 1);
  // Every morsel that started saw its emit refused; none hangs.
  EXPECT_GE(refused.load(), 1);
}

TEST(StreamMorselsTest, EveryMorselsBatchesArriveBeforeTheEnd) {
  ThreadPool pool(3);
  std::vector<uint64_t> got;
  const bool live = StreamMorsels(
      &pool, 16,
      [](size_t i, const BatchSink& emit) {
        emit(OneRow(i));
        emit(OneRow(100 + i));
      },
      [&](RowBatch&& b) {
        got.push_back(b[0].obj_id);
        return true;
      },
      /*max_queued=*/2);
  EXPECT_TRUE(live);
  std::sort(got.begin(), got.end());
  std::vector<uint64_t> want;
  for (uint64_t i = 0; i < 16; ++i) want.push_back(i);
  for (uint64_t i = 0; i < 16; ++i) want.push_back(100 + i);
  EXPECT_EQ(got, want);
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


// --- Threading contract -------------------------------------------------

// The same catalog, as its own suite.
using ExecutorTest = ExecutorErrorTest;

/// Threads of this process right now.
size_t ThreadCount() {
  size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

archive::ReplicationOptions FourServers() {
  archive::ReplicationOptions repl;
  repl.num_servers = 4;
  repl.base_replicas = 2;
  return repl;
}

// Every plan shape, on one store and fanned out over four shards, runs
// without creating a thread: the thread count seen inside the sink is
// the one right after the engines were built, and the sink always runs
// on the caller's thread.
TEST_F(ExecutorTest, NoThreadsPerQuery) {
  archive::ShardedStore sharded(*store_, FourServers());
  auto shards = sharded.LiveShards();
  ASSERT_TRUE(shards.ok());
  archive::MyDb mydb;
  std::vector<catalog::PhotoObj> bright;
  store_->ForEachObject([&bright](const catalog::PhotoObj& o) {
    if (o.mag[catalog::kR] < 21.0f) bright.push_back(o);
  });
  ASSERT_TRUE(mydb.Put("miner", "bright", std::move(bright)).ok());
  ExecContext ctx;
  ctx.mydb = mydb.ResolverFor("miner");

  FederatedQueryEngine single({Shard{0, store_, nullptr}});
  FederatedQueryEngine fleet(*shards);
  ASSERT_EQ(fleet.num_shards(), 4u);
  const size_t baseline = ThreadCount();

  const std::vector<std::string> shapes = {
      "SELECT obj_id, r FROM photo WHERE r < 21",             // scan
      "SELECT obj_id, r FROM tag WHERE r < 21",               // tag scan
      "SELECT COUNT(*) FROM photo WHERE r < 21",              // pushdown
      "SELECT COUNT(*) FROM photo WHERE r < 21 LIMIT 50",     // fold
      "SELECT obj_id, r FROM photo WHERE r < 21 ORDER BY r",  // sort
      "SELECT obj_id, r FROM photo ORDER BY r DESC LIMIT 20",  // top-k
      "SELECT obj_id FROM photo WHERE r < 22 LIMIT 30",       // limit
      "SELECT obj_id FROM photo WHERE class = 'QSO' UNION "
      "SELECT obj_id FROM photo WHERE r < 18.5",
      "SELECT obj_id FROM photo WHERE r < 21 INTERSECT "
      "SELECT obj_id FROM photo WHERE g - r < 0.6",
      "SELECT obj_id FROM photo WHERE r < 21 EXCEPT "
      "SELECT obj_id FROM photo WHERE class = 'STAR'",
      "SELECT a.obj_id, b.obj_id FROM photo AS a JOIN photo AS b "
      "WITHIN 2 DEG",                                          // pair join
      "SELECT obj_id, r FROM mydb.bright WHERE g - r < 1.0",   // mydb scan
      "SELECT AVG(g) FROM photo WHERE class = 'GALAXY'",       // partials
      "SELECT obj_id, r FROM photo WHERE r < 21 ORDER BY r LIMIT 30 "
      "UNION SELECT obj_id, r FROM photo WHERE class = 'QSO'",  // branch
  };
  const auto caller = std::this_thread::get_id();
  for (FederatedQueryEngine* engine : {&single, &fleet}) {
    for (const std::string& sql : shapes) {
      SCOPED_TRACE(sql + (engine == &fleet ? " [4 shards]" : " [1 shard]"));
      size_t batches = 0;
      auto st = engine->ExecuteStreaming(
          sql,
          [&](const RowBatch&) {
            ++batches;
            EXPECT_EQ(std::this_thread::get_id(), caller);
            EXPECT_EQ(ThreadCount(), baseline);
            return true;
          },
          ctx);
      ASSERT_TRUE(st.ok()) << st.status().ToString();
      EXPECT_GT(batches, 0u);
    }
  }
  EXPECT_EQ(ThreadCount(), baseline);
}

// A full-catalog 4-shard select whose sink stops after the first batch
// abandons the rest of the scan instead of draining it.
TEST_F(ExecutorTest, EarlyExitStopsTheFanOut) {
  archive::ShardedStore sharded(*store_, FourServers());
  auto shards = sharded.LiveShards();
  ASSERT_TRUE(shards.ok());
  FederatedQueryEngine fleet(*shards);
  const size_t total = store_->containers().size();
  ASSERT_GT(total, 64u);
  auto st = fleet.ExecuteStreaming("SELECT obj_id FROM photo",
                                   [](const RowBatch&) { return false; });
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  EXPECT_TRUE(st->cancelled_early);
  EXPECT_LT(st->containers_scanned, total / 2)
      << st->containers_scanned << " of " << total << " containers";
}

// A pool whose every worker is held elsewhere can slow a query but never
// stall it: the calling thread runs every morsel itself.
TEST_F(ExecutorTest, CompletesWhilePoolIsSaturated) {
  // Plans and oracle answers first, outside the saturated window.
  FederatedQueryEngine oracle({Shard{0, store_, nullptr}});
  std::vector<Plan> plans;
  std::vector<size_t> want;
  for (const std::string sql :
       {"SELECT obj_id, r FROM photo WHERE r < 21",
        "SELECT COUNT(*) FROM photo WHERE r < 21",
        "SELECT obj_id, r FROM photo ORDER BY r LIMIT 20",
        "SELECT a.obj_id, b.obj_id FROM photo AS a JOIN photo AS b "
        "WITHIN 2 DEG"}) {
    auto parsed = Parse(sql);
    ASSERT_TRUE(parsed.ok());
    auto plan = BuildPlan(*parsed, *store_);
    ASSERT_TRUE(plan.ok());
    plans.push_back(std::move(plan).value());
    auto answer = oracle.Execute(sql);
    ASSERT_TRUE(answer.ok());
    want.push_back(answer->rows.size());
  }

  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  size_t blocked = 0;
  bool release = false;
  for (size_t i = 0; i < pool.num_threads(); ++i) {
    pool.Submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      ++blocked;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return blocked == pool.num_threads(); });
  }

  // A stall fails the test instead of hanging it: the latch opens after
  // the deadline either way.
  Executor executor(store_, Executor::Options(), &pool);
  auto run = std::async(std::launch::async, [&] {
    std::vector<std::pair<Status, size_t>> got;
    for (const Plan& plan : plans) {
      size_t rows = 0;
      auto st = executor.RunTree(plan.root.get(), [&rows](RowBatch&& b) {
        rows += b.size();
        return true;
      });
      got.emplace_back(st.status(), rows);
    }
    return got;
  });
  const bool finished =
      run.wait_for(std::chrono::seconds(60)) == std::future_status::ready;
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  ASSERT_TRUE(finished) << "a query stalled on the saturated pool";
  const auto got = run.get();
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i].first.ok()) << got[i].first.ToString();
    EXPECT_EQ(got[i].second, want[i]);
  }
}

}  // namespace
}  // namespace sdss::query
