// End-to-end query server tests over loopback TCP: handshake + auth,
// result-equivalence against direct engine execution, INTO
// materialization through the wire, and graceful degradation under
// load (session ceiling, fast-path BUSY shed, bounded-lane BUSY).

#include "server/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "server/client.h"
#include "server/server_test_util.h"

namespace sdss::server {
namespace {

using server_test::ServerTest;
using server_test::kQuickSql;
using workbench::JobState;

using RowKey = std::pair<uint64_t, std::vector<double>>;

std::vector<RowKey> Normalize(const query::RowBatch& rows) {
  std::vector<RowKey> keys;
  keys.reserve(rows.size());
  for (const auto& row : rows) keys.emplace_back(row.obj_id, row.values);
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST_F(ServerTest, HandshakeThenQueryMatchesDirectExecution) {
  StartServer(DefaultLanes(), ServerOptions());
  auto client = Connect("alice");
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_GT(client->welcome().session_id, 0u);
  EXPECT_EQ(client->welcome().version, kProtocolVersion);

  auto outcome = client->Query(kQuickSql);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome->kind, QueryOutcome::Kind::kDone);
  ASSERT_TRUE(outcome->have_header);
  EXPECT_FALSE(outcome->header.is_aggregate);
  EXPECT_EQ(outcome->header.columns,
            (std::vector<std::string>{"obj_id", "r"}));
  EXPECT_EQ(outcome->done.rows, outcome->rows.size());
  EXPECT_GT(outcome->done.containers_scanned, 0u);

  auto direct = engine_->Execute(kQuickSql);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(Normalize(outcome->rows), Normalize(direct->rows));
  EXPECT_TRUE(client->Bye().ok());
}

TEST_F(ServerTest, HeaderCarriesTheJobsOwnIdAndLane) {
  auto lanes = DefaultLanes();
  // Below the fleet's full-scan price, above a pruned cone's: a
  // full-catalog COUNT is admitted to the LONG lane.
  lanes.quick_lane_max_bytes = 1ull << 20;
  StartServer(lanes, ServerOptions());
  auto client = Connect("alice");
  ASSERT_TRUE(client.ok());

  auto cone = client->Query(kQuickSql);
  ASSERT_TRUE(cone.ok());
  ASSERT_EQ(cone->kind, QueryOutcome::Kind::kDone);
  ASSERT_TRUE(cone->have_header);
  EXPECT_EQ(cone->header.job_id, cone->done.job_id);
  EXPECT_EQ(cone->header.lane, 0);

  auto full = client->Query("SELECT COUNT(*) FROM photo");
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->kind, QueryOutcome::Kind::kDone);
  ASSERT_TRUE(full->have_header);
  EXPECT_EQ(full->header.job_id, full->done.job_id);
  EXPECT_NE(full->header.job_id, cone->header.job_id);
  EXPECT_EQ(full->header.lane, 1);
  auto snap = scheduler_->Snapshot(full->done.job_id);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->lane, workbench::Lane::kLong);
  EXPECT_TRUE(client->Bye().ok());
}

TEST_F(ServerTest, SeveralStatementsOverOneSession) {
  StartServer(DefaultLanes(), ServerOptions());
  auto client = Connect("alice");
  ASSERT_TRUE(client.ok());
  const std::vector<std::string> sqls = {
      "SELECT obj_id, r FROM photo WHERE r < 19",
      "SELECT obj_id, g FROM tag WHERE g < 20 ORDER BY g LIMIT 10",
      "SELECT obj_id FROM photo WHERE class = 'QSO'",
  };
  for (const std::string& sql : sqls) {
    SCOPED_TRACE(sql);
    auto outcome = client->Query(sql);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ASSERT_EQ(outcome->kind, QueryOutcome::Kind::kDone);
    auto direct = engine_->Execute(sql);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(outcome->rows.size(), direct->rows.size());
  }
  EXPECT_TRUE(client->Bye().ok());
}

TEST_F(ServerTest, AggregateStreamsExactlyOneRow) {
  StartServer(DefaultLanes(), ServerOptions());
  auto client = Connect("alice");
  ASSERT_TRUE(client.ok());
  const std::string sql =
      "SELECT COUNT(*) FROM photo WHERE CIRCLE('GAL', 30, 70, 8)";
  auto outcome = client->Query(sql);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->kind, QueryOutcome::Kind::kDone);
  ASSERT_TRUE(outcome->have_header);
  EXPECT_TRUE(outcome->header.is_aggregate);
  ASSERT_EQ(outcome->rows.size(), 1u);
  auto direct = engine_->Execute(sql);
  ASSERT_TRUE(direct.ok());
  EXPECT_DOUBLE_EQ(outcome->rows[0].values.at(0), direct->aggregate_value);
}

TEST_F(ServerTest, IntoMaterializesIntoTheUsersMyDb) {
  StartServer(DefaultLanes(), ServerOptions());
  auto client = Connect("alice");
  ASSERT_TRUE(client.ok());
  auto outcome =
      client->Query("SELECT * INTO mydb.bright FROM photo WHERE r < 19");
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->kind, QueryOutcome::Kind::kDone)
      << outcome->error.message;
  // INTO streams no ROWS frames; the row count arrives in DONE.
  EXPECT_TRUE(outcome->rows.empty());
  EXPECT_GT(outcome->done.rows, 0u);
  auto table = mydb_->Find("alice", "bright");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->object_count(), outcome->done.rows);
}

TEST_F(ServerTest, AuthenticatedAccessControlsTheDoor) {
  ServerOptions options;
  options.users = {{"alice", "sesame"}};
  StartServer(DefaultLanes(), options);

  auto wrong = Connect("alice", "wrong-token");
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);

  auto unknown = Connect("mallory", "sesame");
  ASSERT_FALSE(unknown.ok());

  auto right = Connect("alice", "sesame");
  ASSERT_TRUE(right.ok());
  auto outcome = right->Query(kQuickSql);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->kind, QueryOutcome::Kind::kDone);
  EXPECT_GE(ServerCounter("server_auth_failures"), 2u);
}

TEST_F(ServerTest, SessionCeilingAnswersBusyAtTheDoor) {
  ServerOptions options;
  options.max_sessions = 2;
  StartServer(DefaultLanes(), options);

  auto first = Connect("u1");
  auto second = Connect("u2");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());

  auto third = Connect("u3");
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(ServerCounter("server_sessions_refused"), 1u);

  // Freeing a slot readmits: close one session and poll (teardown is
  // asynchronous) until a new connection succeeds.
  ASSERT_TRUE(first->Bye().ok());
  for (int attempt = 0;; ++attempt) {
    auto retry = Connect("u3");
    if (retry.ok()) {
      auto outcome = retry->Query(kQuickSql);
      ASSERT_TRUE(outcome.ok());
      EXPECT_EQ(outcome->kind, QueryOutcome::Kind::kDone);
      break;
    }
    ASSERT_LT(attempt, 1000) << "session slot never freed";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

TEST_F(ServerTest, QuickLaneDepthShedsBeforeParsing) {
  auto lanes = DefaultLanes();
  lanes.quick_workers = 1;
  ServerOptions options;
  options.busy_quick_depth = 1;
  options.busy_retry_ms = 75;
  StartServer(lanes, options);

  // Occupy the only quick worker, then queue one more job: depth 1
  // reaches the threshold.
  std::promise<void> release;
  uint64_t blocked = BlockWorker("blocker", release.get_future().share());
  auto queued = scheduler_->Submit("queuer", kQuickSql);
  ASSERT_TRUE(queued.ok());

  auto client = Connect("alice");
  ASSERT_TRUE(client.ok());
  // The shed happens before parsing -- even an unparseable statement
  // gets BUSY, not a syntax error, because no cycles go to work that
  // would be refused anyway.
  auto outcome = client->Query("THIS IS NOT A QUERY");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome->kind, QueryOutcome::Kind::kBusy);
  EXPECT_EQ(outcome->busy.retry_after_ms, 75u);
  EXPECT_GE(outcome->busy.quick_queued, 1u);
  EXPECT_GE(ServerCounter("server_busy_shed"), 1u);

  release.set_value();
  EXPECT_EQ(AwaitTerminal(blocked), JobState::kSucceeded);
  EXPECT_EQ(AwaitTerminal(*queued), JobState::kSucceeded);

  // With the lane drained the same session's next statement runs.
  auto after = client->Query(kQuickSql);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->kind, QueryOutcome::Kind::kDone);
}

TEST_F(ServerTest, BoundedLaneAdmissionMapsToBusy) {
  auto lanes = DefaultLanes();
  lanes.quick_workers = 1;
  lanes.max_queued_quick = 1;
  ServerOptions options;
  options.busy_quick_depth = 0;  // Fast-path shed off: reach admission.
  StartServer(lanes, options);

  std::promise<void> release;
  uint64_t blocked = BlockWorker("blocker", release.get_future().share());
  auto queued = scheduler_->Submit("queuer", kQuickSql);
  ASSERT_TRUE(queued.ok());

  auto client = Connect("alice");
  ASSERT_TRUE(client.ok());
  auto outcome = client->Query(kQuickSql);
  ASSERT_TRUE(outcome.ok());
  // The statement was parsed and priced; the lane bound refused it with
  // kUnavailable, which the session translates to BUSY.
  EXPECT_EQ(outcome->kind, QueryOutcome::Kind::kBusy);

  release.set_value();
  EXPECT_EQ(AwaitTerminal(blocked), JobState::kSucceeded);
  EXPECT_EQ(AwaitTerminal(*queued), JobState::kSucceeded);
}

TEST_F(ServerTest, StatsCountTheConversation) {
  StartServer(DefaultLanes(), ServerOptions());
  auto client = Connect("alice");
  ASSERT_TRUE(client.ok());
  ASSERT_EQ(client->Query(kQuickSql)->kind, QueryOutcome::Kind::kDone);
  ASSERT_EQ(client->Query("SELECT syntax error")->kind,
            QueryOutcome::Kind::kError);
  ASSERT_TRUE(client->Bye().ok());

  EXPECT_GE(ServerCounter("server_sessions_accepted"), 1u);
  // The parse error is refused at submit: it never reaches a lane.
  EXPECT_EQ(ServerCounter("server_queries_submitted"), 1u);
  EXPECT_EQ(ServerCounter("server_queries_succeeded"), 1u);
  EXPECT_EQ(ServerCounter("server_queries_failed"), 0u);
}

TEST_F(ServerTest, StatsFrameShipsTheMetricsSnapshot) {
  StartServer(DefaultLanes(), ServerOptions());
  auto client = Connect("alice");
  ASSERT_TRUE(client.ok());
  ASSERT_EQ(client->Query(kQuickSql)->kind, QueryOutcome::Kind::kDone);

  auto report = client->Stats();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->version, 1u);
  auto value = [&report](const std::string& name) -> uint64_t {
    for (const auto& ins : report->instruments) {
      if (ins.name == name) return ins.counter;
    }
    ADD_FAILURE() << "instrument " << name << " missing from report";
    return 0;
  };
  EXPECT_EQ(value("server_queries_submitted"), 1u);
  EXPECT_EQ(value("server_queries_succeeded"), 1u);
  EXPECT_GE(value("server_sessions_accepted"), 1u);

  // The session stays usable after the STATS exchange.
  ASSERT_EQ(client->Query(kQuickSql)->kind, QueryOutcome::Kind::kDone);
  auto again = client->Stats();
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE(client->Bye().ok());
}

TEST_F(ServerTest, SharedRegistryReportsEveryLayer) {
  // Wire one registry through scheduler and server: the STATS frame
  // must then carry workbench_* and server_* instruments side by side.
  // The registry is the fixture's, so it outlives the server's stop in
  // TearDown (a late session close still writes its gauges).
  auto lanes = DefaultLanes();
  lanes.metrics = &registry_;
  ServerOptions options;
  options.metrics = &registry_;
  StartServer(lanes, options);
  auto client = Connect("alice");
  ASSERT_TRUE(client.ok());
  ASSERT_EQ(client->Query(kQuickSql)->kind, QueryOutcome::Kind::kDone);

  auto report = client->Stats();
  ASSERT_TRUE(report.ok());
  bool saw_server = false, saw_workbench = false;
  for (const auto& ins : report->instruments) {
    if (ins.name == "server_queries_succeeded" && ins.counter == 1) {
      saw_server = true;
    }
    if (ins.name == "workbench_jobs_finished" && ins.counter == 1) {
      saw_workbench = true;
    }
  }
  EXPECT_TRUE(saw_server);
  EXPECT_TRUE(saw_workbench);
  ASSERT_TRUE(client->Bye().ok());
}

TEST_F(ServerTest, DoneCarriesStageSeconds) {
  StartServer(DefaultLanes(), ServerOptions());
  auto client = Connect("alice");
  ASSERT_TRUE(client.ok());
  auto outcome = client->Query(kQuickSql);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->kind, QueryOutcome::Kind::kDone);
  // Planning happened at admission and is accounted; the fan-out stays
  // within the job's running time.
  EXPECT_GT(outcome->done.seconds_plan, 0.0);
  EXPECT_GT(outcome->done.seconds_fan_out, 0.0);
  EXPECT_LE(outcome->done.seconds_fan_out, outcome->done.seconds_running);
  ASSERT_TRUE(client->Bye().ok());
}

TEST_F(ServerTest, ConcurrentSessionsAllComplete) {
  StartServer(DefaultLanes(), ServerOptions());
  constexpr int kSessions = 8;
  std::vector<std::thread> threads;
  std::atomic<int> completed{0};
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([this, i, &completed] {
      auto client = Connect("user" + std::to_string(i));
      ASSERT_TRUE(client.ok());
      for (int q = 0; q < 3; ++q) {
        auto outcome = client->Query(kQuickSql);
        ASSERT_TRUE(outcome.ok());
        ASSERT_EQ(outcome->kind, QueryOutcome::Kind::kDone)
            << StatusCodeName(outcome->error.code) << ": "
            << outcome->error.message;
      }
      ASSERT_TRUE(client->Bye().ok());
      ++completed;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(completed.load(), kSessions);
  // The terminal frame is written by the lane worker; the session
  // thread does its bookkeeping just after. Join the session threads
  // before reading the counters.
  server_->Stop();
  EXPECT_EQ(ServerCounter("server_queries_succeeded"),
            static_cast<uint64_t>(kSessions) * 3);
}

/// Threads of this process, from /proc (Linux; the CI and dev targets).
int ProcessThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::atoi(line.c_str() + 8);
    }
  }
  return -1;
}

TEST_F(ServerTest, FinishedSessionThreadsAreReaped) {
  StartServer(DefaultLanes(), ServerOptions());
  const int baseline = ProcessThreadCount();
  ASSERT_GT(baseline, 0);
  // Serve many short sessions; each accept reaps the previously
  // finished session threads, so the process must not accumulate one
  // zombie thread per session ever served.
  for (int i = 0; i < 40; ++i) {
    std::string user = "u";
    user += std::to_string(i);
    auto client = Connect(user);
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->Bye().ok());
  }
  // Fresh probe connections trigger the reap; poll until the count
  // settles back near the baseline (each probe leaves at most its own
  // session pending).
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  int threads = 0;
  for (;;) {
    auto probe = Connect("probe");
    ASSERT_TRUE(probe.ok());
    ASSERT_TRUE(probe->Bye().ok());
    threads = ProcessThreadCount();
    if (threads <= baseline + 4) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "session threads never reaped: " << threads << " threads vs "
        << baseline << " at baseline";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_LE(threads, baseline + 4);
}

TEST_F(ServerTest, StopJoinsEverySessionAndCancelsInFlightWork) {
  auto lanes = DefaultLanes();
  lanes.quick_workers = 1;
  StartServer(lanes, ServerOptions());

  auto client = Connect("alice");
  ASSERT_TRUE(client.ok());

  // Hold the lane so a wire-submitted query is still queued at Stop.
  std::promise<void> release;
  uint64_t blocked = BlockWorker("blocker", release.get_future().share());

  // Submit from a thread (the client call blocks until its terminal
  // frame, which will be the cancel verdict).
  std::thread submitter([&client] {
    auto outcome = client->Query(kQuickSql);
    // Either a clean ERROR/cancelled frame or a torn connection,
    // depending on how far teardown got -- both are acceptable here.
    (void)outcome;
  });
  // Wait until the job is queued behind the blocker.
  for (;;) {
    if (scheduler_->LaneDepths().quick_queued >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  release.set_value();
  server_->Stop();  // Must join sessions without hanging.
  submitter.join();
  EXPECT_NE(AwaitTerminal(blocked), JobState::kRunning);
}

TEST_F(ServerTest, CacheVerdictCountersTrackEveryQuery) {
  // A cache-enabled engine local to this test (the shared fixture
  // engine keeps caching off so scan-counter assertions stay exact).
  query::FederatedQueryEngine::Options opt;
  opt.result_cache_bytes = 8u << 20;
  opt.cache_epoch_source = [] { return sharded_->Epoch(); };
  auto shards = sharded_->LiveShards();
  ASSERT_TRUE(shards.ok());
  query::FederatedQueryEngine cached(*shards, opt);
  scheduler_ = std::make_unique<workbench::JobScheduler>(
      &cached, mydb_.get(), DefaultLanes());
  server_ = std::make_unique<QueryServer>(scheduler_.get(), ServerOptions());
  ASSERT_TRUE(server_->Start().ok());

  auto client = Connect("alice");
  ASSERT_TRUE(client.ok());
  // Miss (cold), hit (verbatim replay), containment (narrower cone
  // re-filtered from the first query's rows).
  auto cold = client->Query(kQuickSql);
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(cold->kind, QueryOutcome::Kind::kDone);
  auto warm = client->Query(kQuickSql);
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm->kind, QueryOutcome::Kind::kDone);
  EXPECT_EQ(warm->rows.size(), cold->rows.size());
  auto narrower = client->Query(
      "SELECT obj_id, r FROM photo WHERE CIRCLE('GAL', 30, 70, 4) "
      "AND r < 21");
  ASSERT_TRUE(narrower.ok());
  ASSERT_EQ(narrower->kind, QueryOutcome::Kind::kDone);
  EXPECT_TRUE(client->Bye().ok());

  // The session thread folds verdicts into the counters after the DONE
  // frame is on the wire; poll for the last one to land.
  auto verdicts = [this] {
    return ServerCounter("server_cache_hits") +
           ServerCounter("server_cache_misses") +
           ServerCounter("server_cache_containment");
  };
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (verdicts() < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(ServerCounter("server_queries_succeeded"), 3u);
  EXPECT_EQ(ServerCounter("server_cache_misses"), 1u);
  EXPECT_EQ(ServerCounter("server_cache_hits"), 1u);
  EXPECT_EQ(ServerCounter("server_cache_containment"), 1u);

  // The local engine must outlive the scheduler: tear down in order.
  server_.reset();
  scheduler_.reset();
}

}  // namespace
}  // namespace sdss::server
