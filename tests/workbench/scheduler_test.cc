// JobScheduler: cost-based lane admission, per-user concurrency quotas,
// cooperative cancellation (mid-scan, releasing the worker, leaving no
// partial mydb container), and the 3-step CasJobs-style mining workflow
// on a 4-shard fleet.

#include "workbench/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "archive/mydb.h"
#include "archive/sharded_store.h"
#include "catalog/sky_generator.h"
#include "query/federated_engine.h"

namespace sdss::workbench {
namespace {

using archive::MyDb;
using archive::ReplicationOptions;
using archive::ShardedStore;
using query::FederatedQueryEngine;

// A join wide enough that its ghost harvest + bucket compare keeps the
// LONG lane busy for a long time relative to any quick-lane query; every
// test that submits it cancels it, so only the pre-cancel slice runs.
constexpr char kHeavyJoinSql[] =
    "SELECT COUNT(*) FROM photo AS a JOIN photoobj AS b WITHIN 3 DEG";

constexpr char kIntoBrightSql[] =
    "SELECT * INTO mydb.bright FROM photo WHERE r < 20.5";

/// Hooks that append every streamed row to `rows`. The caller reads
/// `rows` only after Wait() returned: the batches arrive on a lane
/// worker before the job turns terminal.
StreamHooks CollectRows(query::RowBatch* rows) {
  StreamHooks hooks;
  hooks.on_batch = [rows](const query::RowBatch& batch) {
    rows->insert(rows->end(), batch.begin(), batch.end());
    return true;
  };
  return hooks;
}

/// Polls until the job leaves kQueued. Returns its state.
JobState AwaitStarted(JobScheduler& sched, uint64_t id) {
  for (;;) {
    auto snap = sched.Snapshot(id);
    EXPECT_TRUE(snap.ok());
    if (!snap.ok()) return JobState::kFailed;
    if (snap->state != JobState::kQueued) return snap->state;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// One 4-shard fleet per test process (SetUpTestSuite), fresh MyDb and
/// JobScheduler per test.
class WorkbenchSchedulerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog::SkyModel m;
    m.seed = 1100;
    m.num_galaxies = 16000;
    m.num_stars = 13000;
    m.num_quasars = 300;
    source_ = new catalog::ObjectStore();
    ASSERT_TRUE(
        source_->BulkLoad(catalog::SkyGenerator(m).Generate()).ok());
    ReplicationOptions repl;
    repl.num_servers = 4;
    repl.base_replicas = 2;
    sharded_ = new ShardedStore(*source_, repl);
    auto shards = sharded_->LiveShards();
    ASSERT_TRUE(shards.ok());
    engine_ = new FederatedQueryEngine(*shards);
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete sharded_;
    delete source_;
    engine_ = nullptr;
    sharded_ = nullptr;
    source_ = nullptr;
  }

  void SetUp() override { mydb_ = std::make_unique<MyDb>(); }

  static JobScheduler::Options TwoLaneOptions() {
    JobScheduler::Options opt;
    opt.quick_workers = 2;
    opt.long_workers = 2;
    opt.per_user_running = 1;
    // The fleet scan is ~5.6 MB: full scans and the join go LONG,
    // pruned cones and mydb reads stay QUICK.
    opt.quick_lane_max_bytes = 4ull << 20;
    return opt;
  }

  static catalog::ObjectStore* source_;
  static ShardedStore* sharded_;
  static FederatedQueryEngine* engine_;
  std::unique_ptr<MyDb> mydb_;
};

catalog::ObjectStore* WorkbenchSchedulerTest::source_ = nullptr;
ShardedStore* WorkbenchSchedulerTest::sharded_ = nullptr;
FederatedQueryEngine* WorkbenchSchedulerTest::engine_ = nullptr;

TEST_F(WorkbenchSchedulerTest, CostEstimateChoosesTheLane) {
  JobScheduler sched(engine_, mydb_.get(), TwoLaneOptions());

  auto quick = sched.Submit(
      "alice",
      "SELECT COUNT(*) FROM photo WHERE CIRCLE('GAL', 30, 70, 3)");
  ASSERT_TRUE(quick.ok());
  auto qsnap = sched.Snapshot(*quick);
  ASSERT_TRUE(qsnap.ok());
  EXPECT_EQ(qsnap->lane, Lane::kQuick);
  EXPECT_LT(qsnap->predicted_bytes, sched.options().quick_lane_max_bytes);

  query::RowBatch rows;
  auto heavy =
      sched.Submit("alice", "SELECT COUNT(*) FROM photo", CollectRows(&rows));
  ASSERT_TRUE(heavy.ok());
  auto lsnap = sched.Snapshot(*heavy);
  ASSERT_TRUE(lsnap.ok());
  EXPECT_EQ(lsnap->lane, Lane::kLong);
  EXPECT_GT(lsnap->predicted_bytes, sched.options().quick_lane_max_bytes);

  auto done = sched.Wait(*heavy);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->state, JobState::kSucceeded);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0].values.at(0),
                   static_cast<double>(source_->object_count()));
}

TEST_F(WorkbenchSchedulerTest, SetQueryIsPricedByEveryBranch) {
  // A small cone joined to a full sweep: the sweep branch alone decides
  // the lane, wherever it stands in the set.
  const std::string sweep =
      "SELECT obj_id, r FROM photo WHERE class = 'QSO'";
  const std::string cone_then_sweep =
      "SELECT obj_id, r FROM photo WHERE CIRCLE('GAL', 30, 70, 2) UNION " +
      sweep;
  auto sweep_cost = engine_->EstimateCost(sweep);
  auto set_cost = engine_->EstimateCost(cone_then_sweep);
  ASSERT_TRUE(sweep_cost.ok() && set_cost.ok());
  EXPECT_GE(set_cost->TotalBytes(), sweep_cost->TotalBytes());

  JobScheduler sched(engine_, mydb_.get(), TwoLaneOptions());
  auto job = sched.Submit("alice", cone_then_sweep);
  ASSERT_TRUE(job.ok());
  auto snap = sched.Snapshot(*job);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->lane, Lane::kLong);
  auto done = sched.Wait(*job);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->state, JobState::kSucceeded);
}

TEST_F(WorkbenchSchedulerTest, SubmitRejectsBadQueriesUpFront) {
  JobScheduler sched(engine_, mydb_.get(), TwoLaneOptions());
  EXPECT_FALSE(sched.Submit("alice", "SELECT nonsense FROM").ok());
  EXPECT_FALSE(sched.Submit("alice", "SELECT bogus_attr FROM photo").ok());
  // Unknown personal table fails at plan time, before any queue slot.
  auto missing =
      sched.Submit("alice", "SELECT COUNT(*) FROM mydb.never_made");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(sched.Jobs().empty());
}

TEST_F(WorkbenchSchedulerTest, ThreeStepMiningWorkflowOnFourShards) {
  JobScheduler sched(engine_, mydb_.get(), TwoLaneOptions());

  // A heavy long-lane job occupies one mining worker for the whole test.
  auto load = sched.Submit("load", kHeavyJoinSql);
  ASSERT_TRUE(load.ok());
  EXPECT_EQ(sched.Snapshot(*load)->lane, Lane::kLong);
  ASSERT_EQ(AwaitStarted(sched, *load), JobState::kRunning);

  // Step 1 (long lane): materialize the bright sample into MyDB.
  auto into = sched.Submit("miner", kIntoBrightSql);
  ASSERT_TRUE(into.ok());
  EXPECT_EQ(sched.Snapshot(*into)->lane, Lane::kLong);
  auto into_done = sched.Wait(*into);
  ASSERT_TRUE(into_done.ok());
  ASSERT_EQ(into_done->state, JobState::kSucceeded)
      << into_done->error.ToString();

  auto truth_count =
      engine_->Execute("SELECT COUNT(*) FROM photo WHERE r < 20.5");
  ASSERT_TRUE(truth_count.ok());
  EXPECT_EQ(static_cast<double>(into_done->rows),
            truth_count->aggregate_value);
  auto table = mydb_->Find("miner", "bright");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(static_cast<double>((*table)->object_count()),
            truth_count->aggregate_value);

  // Step 2 (quick lane): refine the personal table -- no base-data
  // re-scan, and it completes while the long-lane job is still running.
  auto refine = sched.Submit(
      "miner", "SELECT obj_id, r FROM mydb.bright WHERE g - r < 0.6");
  ASSERT_TRUE(refine.ok());
  EXPECT_EQ(sched.Snapshot(*refine)->lane, Lane::kQuick);
  auto refine_done = sched.Wait(*refine);
  ASSERT_TRUE(refine_done.ok());
  ASSERT_EQ(refine_done->state, JobState::kSucceeded);

  auto truth_refined = engine_->Execute(
      "SELECT obj_id, r FROM photo WHERE r < 20.5 AND g - r < 0.6");
  ASSERT_TRUE(truth_refined.ok());
  EXPECT_EQ(refine_done->rows, truth_refined->rows.size());

  // Step 3 (quick lane): aggregate the derived data.
  query::RowBatch avg;
  auto agg = sched.Submit("miner", "SELECT AVG(r) FROM mydb.bright",
                          CollectRows(&avg));
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(sched.Snapshot(*agg)->lane, Lane::kQuick);
  auto agg_done = sched.Wait(*agg);
  ASSERT_TRUE(agg_done.ok());
  ASSERT_EQ(agg_done->state, JobState::kSucceeded);
  ASSERT_EQ(avg.size(), 1u);
  auto truth_avg =
      engine_->Execute("SELECT AVG(r) FROM photo WHERE r < 20.5");
  ASSERT_TRUE(truth_avg.ok());
  EXPECT_NEAR(avg[0].values.at(0), truth_avg->aggregate_value,
              1e-9 * std::fabs(truth_avg->aggregate_value));

  // The whole mining workflow ran while the heavy job never left the
  // long lane's worker.
  EXPECT_EQ(sched.Snapshot(*load)->state, JobState::kRunning);
  ASSERT_TRUE(sched.Cancel(*load).ok());
  auto cancelled = sched.Wait(*load);
  ASSERT_TRUE(cancelled.ok());
  EXPECT_EQ(cancelled->state, JobState::kCancelled);
}

TEST_F(WorkbenchSchedulerTest, CancelMidScanReleasesWorkerAndReportsIt) {
  JobScheduler::Options opt = TwoLaneOptions();
  opt.long_workers = 1;  // One mining worker: release is observable.
  JobScheduler sched(engine_, mydb_.get(), opt);

  auto heavy = sched.Submit("load", kHeavyJoinSql);
  ASSERT_TRUE(heavy.ok());
  ASSERT_EQ(AwaitStarted(sched, *heavy), JobState::kRunning);
  ASSERT_TRUE(sched.Cancel(*heavy).ok());
  auto done = sched.Wait(*heavy);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->state, JobState::kCancelled);
  EXPECT_EQ(done->error.code(), StatusCode::kCancelled);
  // Cancelling a terminal job is refused.
  EXPECT_EQ(sched.Cancel(*heavy).code(), StatusCode::kFailedPrecondition);

  // The lane's only worker is free again: the next long job completes.
  auto next = sched.Submit("miner", kIntoBrightSql);
  ASSERT_TRUE(next.ok());
  auto next_done = sched.Wait(*next);
  ASSERT_TRUE(next_done.ok());
  EXPECT_EQ(next_done->state, JobState::kSucceeded)
      << next_done->error.ToString();
}

TEST_F(WorkbenchSchedulerTest, CancelledIntoLeavesNoPartialContainer) {
  JobScheduler sched(engine_, mydb_.get(), TwoLaneOptions());

  auto into = sched.Submit("miner",
                           "SELECT * INTO mydb.part FROM photo");
  ASSERT_TRUE(into.ok());
  ASSERT_EQ(AwaitStarted(sched, *into), JobState::kRunning);
  ASSERT_TRUE(sched.Cancel(*into).ok());
  auto done = sched.Wait(*into);
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done->state, JobState::kCancelled);
  // All-or-nothing: the target table must not exist in any form.
  EXPECT_FALSE(mydb_->Find("miner", "part").ok());
  EXPECT_TRUE(mydb_->List("miner").empty());
  EXPECT_EQ(mydb_->UsedBytes("miner"), 0u);
}

TEST_F(WorkbenchSchedulerTest, QuotaAbortsIntoWithoutPartialContainer) {
  MyDb::Options small;
  small.per_user_quota_bytes = 64 * sizeof(catalog::PhotoObj);
  MyDb tiny(small);
  JobScheduler sched(engine_, &tiny, TwoLaneOptions());

  auto into = sched.Submit("miner", kIntoBrightSql);
  ASSERT_TRUE(into.ok());
  auto done = sched.Wait(*into);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->state, JobState::kFailed);
  EXPECT_EQ(done->error.code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(tiny.Find("miner", "bright").ok());
  EXPECT_EQ(tiny.UsedBytes("miner"), 0u);
}

TEST_F(WorkbenchSchedulerTest, IntoAnExistingNameFailsWholesale) {
  JobScheduler sched(engine_, mydb_.get(), TwoLaneOptions());

  // A name claimed by a still-queued/running INTO job is refused at
  // submit: the duplicate must not burn a whole lane run to learn it.
  auto first = sched.Submit("miner", kIntoBrightSql);
  ASSERT_TRUE(first.ok());
  auto racing = sched.Submit("miner", kIntoBrightSql);
  ASSERT_FALSE(racing.ok());
  EXPECT_EQ(racing.status().code(), StatusCode::kAlreadyExists);
  ASSERT_EQ(sched.Wait(*first)->state, JobState::kSucceeded);

  // Once materialized, a fresh submission is refused the same way.
  auto rejected = sched.Submit("miner", kIntoBrightSql);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kAlreadyExists);

  // Last-line guard: a table created OUTSIDE the scheduler while the
  // job streams still fails the final Put wholesale -- nothing of the
  // job's result lands next to the interloper's table.
  auto slow = sched.Submit("miner", "SELECT * INTO mydb.race FROM photo");
  ASSERT_TRUE(slow.ok());
  ASSERT_EQ(AwaitStarted(sched, *slow), JobState::kRunning);
  ASSERT_TRUE(mydb_->Put("miner", "race", {}).ok());
  const uint64_t bytes_before = mydb_->UsedBytes("miner");
  auto done = sched.Wait(*slow);
  EXPECT_EQ(done->state, JobState::kFailed);
  EXPECT_EQ(done->error.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(mydb_->UsedBytes("miner"), bytes_before);
}

TEST_F(WorkbenchSchedulerTest, PruneDropsOnlyTerminalJobs) {
  // The heavy job's verdict is read from its hook: once terminal it may
  // be reaped before a Wait() could look it up.
  std::atomic<bool> heavy_cancelled{false};
  JobScheduler::Options opt = TwoLaneOptions();
  opt.max_retained_terminal_jobs = 1;
  JobScheduler sched(engine_, mydb_.get(), opt);
  // Wait() can return between a terminal transition and the worker's
  // prune; poll briefly for the bookkeeping to settle.
  auto settle_at = [&sched](size_t jobs) {
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (sched.Jobs().size() > jobs &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return sched.Jobs().size();
  };

  StreamHooks hooks;
  hooks.on_complete = [&heavy_cancelled](const JobSnapshot& snap) {
    heavy_cancelled.store(snap.state == JobState::kCancelled);
  };
  auto heavy = sched.Submit("load", kHeavyJoinSql, std::move(hooks));
  ASSERT_TRUE(heavy.ok());
  ASSERT_EQ(AwaitStarted(sched, *heavy), JobState::kRunning);
  const std::string cone =
      "SELECT COUNT(*) FROM photo WHERE CIRCLE('GAL', 30, 70, 3)";
  auto first = sched.Submit("alice", cone);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(sched.Wait(*first)->state, JobState::kSucceeded);
  auto second = sched.Submit("alice", cone);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(sched.Wait(*second)->state, JobState::kSucceeded);

  // Two quick jobs finished against a cap of 1: the older is reaped, and
  // the running job, older than both, is never a candidate.
  EXPECT_EQ(settle_at(2), 2u);
  EXPECT_FALSE(sched.Snapshot(*first).ok());
  EXPECT_TRUE(sched.Snapshot(*second).ok());
  auto running = sched.Snapshot(*heavy);
  ASSERT_TRUE(running.ok());
  EXPECT_EQ(running->state, JobState::kRunning);

  ASSERT_TRUE(sched.Cancel(*heavy).ok());
  EXPECT_EQ(settle_at(1), 1u);
  EXPECT_TRUE(heavy_cancelled.load());
}

TEST_F(WorkbenchSchedulerTest, PerUserQuotaHoldsSecondJobInQueue) {
  JobScheduler sched(engine_, mydb_.get(), TwoLaneOptions());

  auto first = sched.Submit("load", kHeavyJoinSql);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(AwaitStarted(sched, *first), JobState::kRunning);

  // Same user, second long job: both long workers are free, but the
  // user quota (1) keeps it queued.
  auto second = sched.Submit("load", "SELECT COUNT(*) FROM photo");
  ASSERT_TRUE(second.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(sched.Snapshot(*second)->state, JobState::kQueued);

  // Another user's long job overtakes the held one.
  auto other = sched.Submit("miner", "SELECT COUNT(*) FROM photo");
  ASSERT_TRUE(other.ok());
  auto other_done = sched.Wait(*other);
  EXPECT_EQ(other_done->state, JobState::kSucceeded);
  EXPECT_EQ(sched.Snapshot(*second)->state, JobState::kQueued);

  // Releasing the first job's slot lets the held job run to completion.
  ASSERT_TRUE(sched.Cancel(*first).ok());
  auto second_done = sched.Wait(*second);
  EXPECT_EQ(second_done->state, JobState::kSucceeded);
}

TEST_F(WorkbenchSchedulerTest, CancelWhileQueuedNeverRuns) {
  JobScheduler sched(engine_, mydb_.get(), TwoLaneOptions());
  auto first = sched.Submit("load", kHeavyJoinSql);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(AwaitStarted(sched, *first), JobState::kRunning);
  auto queued = sched.Submit("load", "SELECT COUNT(*) FROM photo");
  ASSERT_TRUE(queued.ok());

  ASSERT_TRUE(sched.Cancel(*queued).ok());
  auto done = sched.Wait(*queued);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->state, JobState::kCancelled);
  EXPECT_EQ(done->exec.rows_emitted, 0u);

  ASSERT_TRUE(sched.Cancel(*first).ok());
  EXPECT_EQ(sched.Wait(*first)->state, JobState::kCancelled);
}

TEST_F(WorkbenchSchedulerTest, JobsFeedTheReplicaPromotionHeatLoop) {
  auto opt = TwoLaneOptions();
  opt.heat = sharded_;
  JobScheduler sched(engine_, mydb_.get(), opt);

  auto heat_sum = [this] {
    uint64_t sum = 0;
    for (const auto& [raw, count] : source_->DensityMap()) {
      sum += sharded_->HeatOf(raw);
    }
    return sum;
  };

  // A full-archive mining scan touches every container exactly once
  // fleet-wide (each container is assigned to one live shard).
  const uint64_t before = heat_sum();
  auto full = sched.Submit("miner", "SELECT COUNT(*) FROM photo");
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(sched.Wait(*full)->state, JobState::kSucceeded);
  const uint64_t after_full = heat_sum();
  EXPECT_EQ(after_full - before, source_->container_count());

  // A pruned cone heats only the containers its cover admits.
  auto cone = sched.Submit(
      "miner", "SELECT COUNT(*) FROM photo WHERE CIRCLE('GAL', 30, 70, 3)");
  ASSERT_TRUE(cone.ok());
  auto cone_done = sched.Wait(*cone);
  ASSERT_EQ(cone_done->state, JobState::kSucceeded);
  const uint64_t after_cone = heat_sum();
  EXPECT_EQ(after_cone - after_full, cone_done->exec.containers_scanned);
  EXPECT_LT(after_cone - after_full, source_->container_count());

  // Personal-store mining reads no archive containers: zero heat.
  ASSERT_EQ(sched.Wait(*sched.Submit("miner", kIntoBrightSql))->state,
            JobState::kSucceeded);
  const uint64_t after_into = heat_sum();
  auto mine = sched.Submit("miner", "SELECT COUNT(*) FROM mydb.bright");
  ASSERT_TRUE(mine.ok());
  ASSERT_EQ(sched.Wait(*mine)->state, JobState::kSucceeded);
  EXPECT_EQ(heat_sum(), after_into);
}

TEST_F(WorkbenchSchedulerTest, LaneDepthsReportQueuedAndRunningPerLane) {
  auto opt = TwoLaneOptions();
  opt.quick_workers = 1;
  JobScheduler sched(engine_, mydb_.get(), opt);

  QueueDepths idle = sched.LaneDepths();
  EXPECT_EQ(idle.quick_queued, 0u);
  EXPECT_EQ(idle.quick_running, 0u);
  EXPECT_EQ(idle.long_queued, 0u);
  EXPECT_EQ(idle.long_running, 0u);

  // Hold the only quick worker pre-scan, then stack two more quick
  // jobs behind it: running 1, queued 2, LONG untouched.
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  StreamHooks hooks;
  hooks.on_header = [gate](uint64_t, Lane, const query::ResultHeader&) {
    gate.wait();
  };
  auto blocked = sched.Submit(
      "blocker",
      "SELECT COUNT(*) FROM photo WHERE CIRCLE('GAL', 30, 70, 3)",
      std::move(hooks));
  ASSERT_TRUE(blocked.ok());
  ASSERT_EQ(AwaitStarted(sched, *blocked), JobState::kRunning);

  const char* quick_sql =
      "SELECT COUNT(*) FROM photo WHERE CIRCLE('GAL', 120, 55, 3)";
  ASSERT_TRUE(sched.Submit("u1", quick_sql).ok());
  ASSERT_TRUE(sched.Submit("u2", quick_sql).ok());

  QueueDepths busy = sched.LaneDepths();
  EXPECT_EQ(busy.quick_running, 1u);
  EXPECT_EQ(busy.quick_queued, 2u);
  EXPECT_EQ(busy.long_queued, 0u);
  EXPECT_EQ(busy.Queued(Lane::kQuick), 2u);
  EXPECT_EQ(busy.Running(Lane::kQuick), 1u);

  release.set_value();
  EXPECT_EQ(sched.Wait(*blocked)->state, JobState::kSucceeded);
}

TEST_F(WorkbenchSchedulerTest, BoundedAdmissionRefusesWithUnavailable) {
  auto opt = TwoLaneOptions();
  opt.quick_workers = 1;
  opt.max_queued_quick = 1;
  JobScheduler sched(engine_, mydb_.get(), opt);

  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  StreamHooks hooks;
  hooks.on_header = [gate](uint64_t, Lane, const query::ResultHeader&) {
    gate.wait();
  };
  auto blocked = sched.Submit(
      "blocker",
      "SELECT COUNT(*) FROM photo WHERE CIRCLE('GAL', 30, 70, 3)",
      std::move(hooks));
  ASSERT_TRUE(blocked.ok());
  ASSERT_EQ(AwaitStarted(sched, *blocked), JobState::kRunning);

  const char* quick_sql =
      "SELECT COUNT(*) FROM photo WHERE CIRCLE('GAL', 120, 55, 3)";
  auto queued = sched.Submit("u1", quick_sql);
  ASSERT_TRUE(queued.ok());  // Fills the bound of 1.

  auto refused = sched.Submit("u2", quick_sql);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);

  // The refusal left nothing behind, and the LONG lane is unaffected.
  EXPECT_EQ(sched.LaneDepths().quick_queued, 1u);
  auto long_job = sched.Submit("u2", "SELECT COUNT(*) FROM photo");
  ASSERT_TRUE(long_job.ok());

  release.set_value();
  EXPECT_EQ(sched.Wait(*blocked)->state, JobState::kSucceeded);
  EXPECT_EQ(sched.Wait(*queued)->state, JobState::kSucceeded);
  EXPECT_EQ(sched.Wait(*long_job)->state, JobState::kSucceeded);

  // With the lane drained, admission opens again.
  auto readmitted = sched.Submit("u2", quick_sql);
  ASSERT_TRUE(readmitted.ok());
  EXPECT_EQ(sched.Wait(*readmitted)->state, JobState::kSucceeded);
}

TEST_F(WorkbenchSchedulerTest, StreamingJobDeliversHeaderBatchesTerminal) {
  JobScheduler sched(engine_, mydb_.get(), TwoLaneOptions());
  const std::string sql = "SELECT obj_id, r FROM photo WHERE r < 20.5";

  std::mutex mu;
  query::ResultHeader header;
  bool header_seen = false;
  uint64_t header_id = 0;
  Lane header_lane = Lane::kLong;
  uint64_t rows_streamed = 0;
  bool complete_seen = false;
  JobSnapshot final_snap;

  StreamHooks hooks;
  hooks.on_header = [&](uint64_t job_id, Lane lane,
                        const query::ResultHeader& h) {
    std::lock_guard<std::mutex> lock(mu);
    header_id = job_id;
    header_lane = lane;
    header = h;
    header_seen = true;
  };
  hooks.on_batch = [&](const query::RowBatch& batch) {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_TRUE(header_seen) << "batch before header";
    rows_streamed += batch.size();
    return true;
  };
  hooks.on_complete = [&](const JobSnapshot& snap) {
    std::lock_guard<std::mutex> lock(mu);
    complete_seen = true;
    final_snap = snap;
  };

  auto id = sched.Submit("alice", sql, std::move(hooks));
  ASSERT_TRUE(id.ok());
  auto done = sched.Wait(*id);
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done->state, JobState::kSucceeded);

  auto direct = engine_->Execute(sql);
  ASSERT_TRUE(direct.ok());
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_TRUE(header_seen);
  EXPECT_EQ(header.columns, (std::vector<std::string>{"obj_id", "r"}));
  EXPECT_FALSE(header.is_aggregate);
  // The header knows its own job: the id Submit returned, and the lane
  // admission chose.
  EXPECT_EQ(header_id, *id);
  EXPECT_EQ(header_lane, done->lane);
  EXPECT_EQ(rows_streamed, direct->rows.size());
  ASSERT_TRUE(complete_seen);
  EXPECT_EQ(final_snap.state, JobState::kSucceeded);
  EXPECT_EQ(final_snap.rows, rows_streamed);
}

TEST_F(WorkbenchSchedulerTest, StreamingSinkStopCancelsTheJob) {
  JobScheduler sched(engine_, mydb_.get(), TwoLaneOptions());

  std::atomic<bool> complete_seen{false};
  StreamHooks hooks;
  hooks.on_batch = [](const query::RowBatch&) { return false; };
  hooks.on_complete = [&complete_seen](const JobSnapshot& snap) {
    EXPECT_EQ(snap.state, JobState::kCancelled);
    complete_seen.store(true);
  };
  auto id = sched.Submit(
      "alice", "SELECT obj_id, r FROM photo WHERE r < 21",
      std::move(hooks));
  ASSERT_TRUE(id.ok());
  auto done = sched.Wait(*id);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->state, JobState::kCancelled);
  EXPECT_EQ(done->error.code(), StatusCode::kCancelled);
  EXPECT_TRUE(complete_seen.load());
}

TEST_F(WorkbenchSchedulerTest, CancelWhileQueuedFiresOnComplete) {
  auto opt = TwoLaneOptions();
  opt.quick_workers = 1;
  JobScheduler sched(engine_, mydb_.get(), opt);

  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  StreamHooks blocker_hooks;
  blocker_hooks.on_header = [gate](uint64_t, Lane,
                                   const query::ResultHeader&) {
    gate.wait();
  };
  auto blocked = sched.Submit(
      "blocker",
      "SELECT COUNT(*) FROM photo WHERE CIRCLE('GAL', 30, 70, 3)",
      std::move(blocker_hooks));
  ASSERT_TRUE(blocked.ok());
  ASSERT_EQ(AwaitStarted(sched, *blocked), JobState::kRunning);

  std::atomic<bool> header_seen{false};
  std::atomic<bool> complete_seen{false};
  StreamHooks hooks;
  hooks.on_header = [&header_seen](uint64_t, Lane,
                                   const query::ResultHeader&) {
    header_seen.store(true);
  };
  hooks.on_complete = [&complete_seen](const JobSnapshot& snap) {
    EXPECT_EQ(snap.state, JobState::kCancelled);
    complete_seen.store(true);
  };
  auto queued = sched.Submit(
      "alice", "SELECT COUNT(*) FROM photo WHERE CIRCLE('GAL', 120, 55, 3)",
      std::move(hooks));
  ASSERT_TRUE(queued.ok());

  ASSERT_TRUE(sched.Cancel(*queued).ok());
  EXPECT_TRUE(complete_seen.load());  // Fired by Cancel, synchronously.
  EXPECT_FALSE(header_seen.load());   // The job never started.
  EXPECT_EQ(sched.Wait(*queued)->state, JobState::kCancelled);

  release.set_value();
  EXPECT_EQ(sched.Wait(*blocked)->state, JobState::kSucceeded);
}

TEST_F(WorkbenchSchedulerTest, DestructorCancelsOutstandingJobs) {
  uint64_t heavy = 0;
  {
    JobScheduler sched(engine_, mydb_.get(), TwoLaneOptions());
    auto id = sched.Submit("load", kHeavyJoinSql);
    ASSERT_TRUE(id.ok());
    heavy = *id;
    ASSERT_EQ(AwaitStarted(sched, heavy), JobState::kRunning);
    // Destruction must raise the flag and join without hanging.
  }
  SUCCEED();
}

TEST_F(WorkbenchSchedulerTest, TerminalRetentionCapPrunesOldestJobs) {
  JobScheduler::Options opt = TwoLaneOptions();
  opt.max_retained_terminal_jobs = 2;
  JobScheduler sched(engine_, mydb_.get(), opt);

  const std::string sql =
      "SELECT COUNT(*) FROM photo WHERE CIRCLE('GAL', 30, 70, 5)";
  std::vector<uint64_t> ids;
  for (int i = 0; i < 5; ++i) {
    auto id = sched.Submit("load", sql);
    ASSERT_TRUE(id.ok());
    ASSERT_EQ(sched.Wait(*id)->state, JobState::kSucceeded);
    ids.push_back(*id);
  }

  // Wait() can return between the terminal transition and the worker's
  // prune; poll briefly for the bookkeeping to settle at the cap.
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (sched.Jobs().size() > 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(sched.Jobs().size(), 2u);

  // The newest two survive; the oldest three are gone, which is exactly
  // what a bounded long-lived service wants.
  EXPECT_FALSE(sched.Snapshot(ids[0]).ok());
  EXPECT_FALSE(sched.Snapshot(ids[1]).ok());
  EXPECT_FALSE(sched.Snapshot(ids[2]).ok());
  EXPECT_TRUE(sched.Snapshot(ids[3]).ok());
  EXPECT_TRUE(sched.Snapshot(ids[4]).ok());

  // A cap of 0 (the default) retains everything.
  JobScheduler unbounded(engine_, mydb_.get(), TwoLaneOptions());
  for (int i = 0; i < 3; ++i) {
    auto id = unbounded.Submit("load", sql);
    ASSERT_TRUE(id.ok());
    ASSERT_EQ(unbounded.Wait(*id)->state, JobState::kSucceeded);
  }
  EXPECT_EQ(unbounded.Jobs().size(), 3u);
}

TEST_F(WorkbenchSchedulerTest, PersonalStoreOutlivesADropWhileItsReadsWait) {
  auto opt = TwoLaneOptions();
  opt.quick_workers = 1;
  JobScheduler sched(engine_, mydb_.get(), opt);
  auto into = sched.Submit(
      "alice",
      "SELECT * INTO mydb.t FROM photo WHERE CIRCLE('GAL', 30, 70, 4)");
  ASSERT_TRUE(into.ok());
  ASSERT_EQ(sched.Wait(*into)->state, JobState::kSucceeded);
  uint64_t objects = 0;
  {
    auto table = mydb_->Find("alice", "t");
    ASSERT_TRUE(table.ok());
    objects = (*table)->object_count();
  }
  ASSERT_GT(objects, 0u);

  // Two reads of mydb.t, both planned at admission: the first holds the
  // only quick worker at its header, the second queues behind it.
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  query::RowBatch held_rows, queued_rows;
  StreamHooks held = CollectRows(&held_rows);
  held.on_header = [gate](uint64_t, Lane, const query::ResultHeader&) {
    gate.wait();
  };
  auto running = sched.Submit("alice", "SELECT obj_id FROM mydb.t",
                              std::move(held));
  ASSERT_TRUE(running.ok());
  ASSERT_EQ(AwaitStarted(sched, *running), JobState::kRunning);
  auto queued = sched.Submit("alice", "SELECT obj_id FROM mydb.t",
                             CollectRows(&queued_rows));
  ASSERT_TRUE(queued.ok());
  ASSERT_EQ(sched.Snapshot(*queued)->state, JobState::kQueued);

  // The drop frees the name and the quota at once; the statements keep
  // reading the table as it stood at their admission.
  ASSERT_TRUE(mydb_->Drop("alice", "t").ok());
  EXPECT_FALSE(mydb_->Find("alice", "t").ok());
  EXPECT_EQ(mydb_->UsedBytes("alice"), 0u);
  release.set_value();

  auto held_done = sched.Wait(*running);
  ASSERT_TRUE(held_done.ok());
  EXPECT_EQ(held_done->state, JobState::kSucceeded)
      << held_done->error.ToString();
  EXPECT_EQ(held_rows.size(), objects);
  auto queued_done = sched.Wait(*queued);
  ASSERT_TRUE(queued_done.ok());
  EXPECT_EQ(queued_done->state, JobState::kSucceeded)
      << queued_done->error.ToString();
  EXPECT_EQ(queued_rows.size(), objects);

  // A statement submitted after the drop is refused at admission.
  EXPECT_EQ(sched.Submit("alice", "SELECT obj_id FROM mydb.t")
                .status()
                .code(),
            StatusCode::kNotFound);
}

/// Failover while a job is queued: the job is prepared and priced on one
/// routing and runs on the routing that exists when it starts. Each test
/// builds its own 2-server fleet, every container on both servers (the
/// fixture's engine is shared across the suite).
class WorkbenchFailoverTest : public ::testing::Test {
 protected:
  static constexpr char kCountSql[] = "SELECT COUNT(*) FROM photo";
  static constexpr char kTopSql[] =
      "SELECT obj_id, r FROM photo ORDER BY r LIMIT 25";

  void SetUp() override {
    catalog::SkyModel m;
    m.seed = 1300;
    m.num_galaxies = 5000;
    m.num_stars = 4000;
    m.num_quasars = 100;
    ASSERT_TRUE(source_.BulkLoad(catalog::SkyGenerator(m).Generate()).ok());
    ReplicationOptions repl;
    repl.num_servers = 2;
    repl.base_replicas = 2;
    sharded_ = std::make_unique<ShardedStore>(source_, repl);
  }

  std::vector<query::Shard> Live() const {
    auto shards = sharded_->LiveShards();
    EXPECT_TRUE(shards.ok());
    return shards.ok() ? *shards : std::vector<query::Shard>{};
  }

  /// Queues kCountSql and kTopSql behind a gated blocker on the one
  /// worker of a scheduler over `engine`, calls `reroute`, then releases
  /// the blocker and checks both answers against a one-shard engine
  /// over the source.
  void RunQueuedAcross(FederatedQueryEngine* engine,
                       const std::function<void()>& reroute) {
    JobScheduler::Options opt;
    opt.quick_workers = 1;
    opt.long_workers = 1;
    opt.quick_lane_max_bytes = ~0ull;  // Every job shares the one worker.
    MyDb mydb;
    JobScheduler sched(engine, &mydb, opt);

    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    StreamHooks hooks;
    hooks.on_header = [gate](uint64_t, Lane, const query::ResultHeader&) {
      gate.wait();
    };
    auto blocker = sched.Submit(
        "blocker",
        "SELECT COUNT(*) FROM photo WHERE CIRCLE('GAL', 30, 70, 3)",
        std::move(hooks));
    ASSERT_TRUE(blocker.ok());
    ASSERT_EQ(AwaitStarted(sched, *blocker),
              JobState::kRunning);

    query::RowBatch count_rows, top_rows;
    auto count = sched.Submit("u1", kCountSql, CollectRows(&count_rows));
    auto top = sched.Submit("u2", kTopSql, CollectRows(&top_rows));
    ASSERT_TRUE(count.ok());
    ASSERT_TRUE(top.ok());
    ASSERT_EQ(sched.Snapshot(*count)->state, JobState::kQueued);
    ASSERT_EQ(sched.Snapshot(*top)->state, JobState::kQueued);

    reroute();
    release.set_value();
    ASSERT_EQ(sched.Wait(*blocker)->state, JobState::kSucceeded);
    auto count_done = sched.Wait(*count);
    auto top_done = sched.Wait(*top);
    ASSERT_EQ(count_done->state, JobState::kSucceeded)
        << count_done->error.ToString();
    ASSERT_EQ(top_done->state, JobState::kSucceeded)
        << top_done->error.ToString();

    FederatedQueryEngine oracle({query::Shard{0, &source_, nullptr}});
    auto want_count = oracle.Execute(kCountSql);
    auto want_top = oracle.Execute(kTopSql);
    ASSERT_TRUE(want_count.ok());
    ASSERT_TRUE(want_top.ok());
    ASSERT_EQ(count_rows.size(), 1u);
    ASSERT_FALSE(count_rows[0].values.empty());
    EXPECT_EQ(count_rows[0].values[0], want_count->aggregate_value);
    ASSERT_EQ(top_rows.size(), want_top->rows.size());
    for (size_t i = 0; i < top_rows.size(); ++i) {
      EXPECT_EQ(top_rows[i].obj_id, want_top->rows[i].obj_id) << "row " << i;
    }
  }

  catalog::ObjectStore source_;
  std::unique_ptr<ShardedStore> sharded_;
};

TEST_F(WorkbenchFailoverTest, QueuedAcrossMarkDownRunsOnTheSurvivor) {
  FederatedQueryEngine engine(Live());
  ASSERT_EQ(engine.num_shards(), 2u);
  RunQueuedAcross(&engine, [&] {
    ASSERT_TRUE(sharded_->MarkServerDown(1).ok());
    engine.SetShards(Live());
    ASSERT_EQ(engine.num_shards(), 1u);
  });
}

TEST_F(WorkbenchFailoverTest, QueuedAcrossMarkUpRunsSplitAtGathers) {
  // Admitted on one live shard (no gather); it runs on two, so the split
  // must be taken at run time or it would read one server's half.
  ASSERT_TRUE(sharded_->MarkServerDown(1).ok());
  FederatedQueryEngine engine(Live());
  ASSERT_EQ(engine.num_shards(), 1u);
  RunQueuedAcross(&engine, [&] {
    ASSERT_TRUE(sharded_->MarkServerUp(1).ok());
    engine.SetShards(Live());
    ASSERT_EQ(engine.num_shards(), 2u);
  });
}

}  // namespace
}  // namespace sdss::workbench
