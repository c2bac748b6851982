// Shared fixture for the server suite: one 4-shard fleet per test
// process, a fresh scheduler + server per test, and the gate helper the
// backpressure and quota tests use to hold a lane worker in a known
// state (blocked in on_header, i.e. started but pre-scan).

#ifndef SDSS_TESTS_SERVER_SERVER_TEST_UTIL_H_
#define SDSS_TESTS_SERVER_SERVER_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "archive/mydb.h"
#include "archive/sharded_store.h"
#include "catalog/sky_generator.h"
#include "core/metrics.h"
#include "query/federated_engine.h"
#include "server/client.h"
#include "server/server.h"
#include "workbench/scheduler.h"

namespace sdss::server_test {

/// A quick-lane query (spatially pruned) with a non-empty result.
inline constexpr char kQuickSql[] =
    "SELECT obj_id, r FROM photo WHERE CIRCLE('GAL', 30, 70, 8)";

class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog::SkyModel m;
    m.seed = 2100;
    m.num_galaxies = 9000;
    m.num_stars = 7000;
    m.num_quasars = 200;
    source_ = new catalog::ObjectStore();
    ASSERT_TRUE(
        source_->BulkLoad(catalog::SkyGenerator(m).Generate()).ok());
    archive::ReplicationOptions repl;
    repl.num_servers = 4;
    repl.base_replicas = 2;
    sharded_ = new archive::ShardedStore(*source_, repl);
    auto shards = sharded_->LiveShards();
    ASSERT_TRUE(shards.ok());
    engine_ = new query::FederatedQueryEngine(*shards);
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete sharded_;
    delete source_;
    engine_ = nullptr;
    sharded_ = nullptr;
    source_ = nullptr;
  }

  void SetUp() override { mydb_ = std::make_unique<archive::MyDb>(); }

  void TearDown() override {
    // Server before scheduler: sessions cancel through the scheduler.
    server_.reset();
    scheduler_.reset();
  }

  static workbench::JobScheduler::Options DefaultLanes() {
    workbench::JobScheduler::Options opt;
    opt.quick_workers = 2;
    opt.long_workers = 1;
    opt.per_user_running = 1;
    opt.quick_lane_max_bytes = 4ull << 20;
    return opt;
  }

  /// Builds the scheduler + server and starts listening on an ephemeral
  /// loopback port.
  void StartServer(workbench::JobScheduler::Options lanes,
                   server::ServerOptions options) {
    scheduler_ = std::make_unique<workbench::JobScheduler>(
        engine_, mydb_.get(), lanes);
    server_ = std::make_unique<server::QueryServer>(scheduler_.get(),
                                                    std::move(options));
    ASSERT_TRUE(server_->Start().ok());
  }

  /// The value of the server's registry counter `name` ("server_...").
  uint64_t ServerCounter(const char* name) const {
    return server_->metrics()->GetCounter(name)->Value();
  }

  Result<server::Client> Connect(const std::string& user,
                                 const std::string& token = "") {
    return server::Client::Connect("127.0.0.1", server_->port(), user,
                                   token);
  }

  /// Occupies one lane worker with a job that has started (its header
  /// fired) but not yet scanned: the hook blocks on `gate` until the
  /// test releases it. Returns the job id.
  uint64_t BlockWorker(const std::string& user,
                       std::shared_future<void> gate) {
    workbench::StreamHooks hooks;
    hooks.on_header = [gate](uint64_t, workbench::Lane,
                             const query::ResultHeader&) { gate.wait(); };
    auto id = scheduler_->Submit(user, kQuickSql, std::move(hooks));
    EXPECT_TRUE(id.ok());
    // Wait until the job occupies its worker (header reached = running).
    for (;;) {
      auto snap = scheduler_->Snapshot(*id);
      EXPECT_TRUE(snap.ok());
      if (snap->state == workbench::JobState::kRunning) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return *id;
  }

  /// Polls until `job_id` reaches a terminal state (10 s cap).
  workbench::JobState AwaitTerminal(uint64_t job_id) {
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (;;) {
      auto snap = scheduler_->Snapshot(job_id);
      EXPECT_TRUE(snap.ok());
      if (!snap.ok()) return workbench::JobState::kFailed;
      if (snap->state != workbench::JobState::kQueued &&
          snap->state != workbench::JobState::kRunning) {
        return snap->state;
      }
      if (std::chrono::steady_clock::now() > deadline) {
        ADD_FAILURE() << "job " << job_id << " never reached a terminal "
                      << "state (leaked worker?)";
        return snap->state;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  inline static catalog::ObjectStore* source_ = nullptr;
  inline static archive::ShardedStore* sharded_ = nullptr;
  inline static query::FederatedQueryEngine* engine_ = nullptr;
  /// For tests that share one registry across layers. Declared before
  /// the server so it is destroyed after it.
  metrics::Registry registry_;
  std::unique_ptr<archive::MyDb> mydb_;
  std::unique_ptr<workbench::JobScheduler> scheduler_;
  std::unique_ptr<server::QueryServer> server_;
};

}  // namespace sdss::server_test

#endif  // SDSS_TESTS_SERVER_SERVER_TEST_UTIL_H_
