// Kill-and-recover: the scheduler + MyDB durability contract. A "crash"
// is SIGKILL-equivalent for state: the process-level objects are
// destroyed (the destructor deliberately journals nothing for in-flight
// jobs) and a fresh scheduler/MyDb reopens the same directories -- or a
// copy of the journal taken at the crash point, where a gated job must
// stay RUNNING.
//
// Covered: QUEUED INTO jobs re-enqueue in original lane order and
// materialize, RUNNING ones come back failed-retryable (Aborted),
// committed MyDB tables are restored bit-exact (byte-compared
// snapshots), a crash mid-INTO leaves zero partially materialized
// tables, user cancellations survive, a QUEUED job whose SQL no longer
// prepares fails at recovery with that error, re-enqueued jobs count in
// the lane depths and gauges, and read-only jobs leave nothing in the
// journal.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "archive/mydb.h"
#include "archive/sharded_store.h"
#include "catalog/sky_generator.h"
#include "core/io.h"
#include "core/metrics.h"
#include "persist/snapshot.h"
#include "query/federated_engine.h"
#include "workbench/lane_counts.h"
#include "workbench/scheduler.h"

namespace sdss::workbench {
namespace {

namespace fs = std::filesystem;

using archive::MyDb;
using archive::ReplicationOptions;
using archive::ShardedStore;
using query::FederatedQueryEngine;

constexpr char kHeavyJoinSql[] =
    "SELECT COUNT(*) FROM photo AS a JOIN photoobj AS b WITHIN 3 DEG";
constexpr char kQuickConeSql[] =
    "SELECT COUNT(*) FROM photo WHERE CIRCLE('GAL', 30, 70, 3)";
constexpr char kIntoBrightSql[] =
    "SELECT * INTO mydb.bright FROM photo WHERE r < 20.5";
constexpr char kIntoDoomedSql[] =
    "SELECT * INTO mydb.doomed FROM photo";
constexpr char kIntoEverythingSql[] =
    "SELECT * INTO mydb.everything FROM photo";

std::string ConeName(size_t i) {
  std::string name = "cone";
  name += std::to_string(i);
  return name;
}

/// `SELECT * INTO mydb.<name>` over kQuickConeSql's cone.
std::string IntoConeSql(const std::string& name) {
  std::string sql = "SELECT * INTO mydb.";
  sql += name;
  sql += " FROM photo WHERE CIRCLE('GAL', 30, 70, 3)";
  return sql;
}

/// Holds the job whose hooks it hands out in on_header -- RUNNING, its
/// START journaled -- until Open(). Destruction opens it, so declare it
/// after the scheduler: an early test exit cannot deadlock the
/// scheduler's teardown on a parked worker.
class Gate {
 public:
  ~Gate() { Open(); }
  StreamHooks Hooks() const {
    StreamHooks hooks;
    hooks.on_header = [state = state_](uint64_t, Lane,
                                       const query::ResultHeader&) {
      std::unique_lock<std::mutex> lock(state->mu);
      state->cv.wait(lock, [&state] { return state->open; });
    };
    return hooks;
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      state_->open = true;
    }
    state_->cv.notify_all();
  }

 private:
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    bool open = false;
  };
  std::shared_ptr<State> state_ = std::make_shared<State>();
};

class WorkbenchRecoveryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog::SkyModel m;
    m.seed = 2200;
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

  void SetUp() override {
    jobs_dir_ = FreshDir("jobs");
    mydb_dir_ = FreshDir("mydb");
    image_dir_ = FreshDir("image");
  }
  void TearDown() override {
    fs::remove_all(jobs_dir_);
    fs::remove_all(mydb_dir_);
    fs::remove_all(image_dir_);
  }

  /// The job journal as a crash at this instant leaves it: a copy of
  /// jobs_dir_ the live scheduler can no longer append to.
  std::string CrashImage() {
    fs::copy(jobs_dir_, image_dir_, fs::copy_options::recursive);
    return image_dir_.string();
  }

  fs::path FreshDir(const std::string& kind) {
    fs::path dir = fs::path(::testing::TempDir()) /
                   (std::string("recovery_") + kind + "_" +
                    ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name());
    fs::remove_all(dir);
    return dir;
  }

  static JobScheduler::Options SerialOptions() {
    JobScheduler::Options opt;
    opt.quick_workers = 1;
    opt.long_workers = 1;
    opt.per_user_running = 1;
    opt.quick_lane_max_bytes = 4ull << 20;
    return opt;
  }

  /// Polls until the job leaves kQueued. Returns its state.
  static JobState AwaitStarted(JobScheduler& sched, uint64_t id) {
    for (;;) {
      auto snap = sched.Snapshot(id);
      EXPECT_TRUE(snap.ok());
      if (!snap.ok()) return JobState::kFailed;
      if (snap->state != JobState::kQueued) return snap->state;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  static catalog::ObjectStore* source_;
  static ShardedStore* sharded_;
  static FederatedQueryEngine* engine_;
  fs::path jobs_dir_;
  fs::path mydb_dir_;
  fs::path image_dir_;
};

catalog::ObjectStore* WorkbenchRecoveryTest::source_ = nullptr;
ShardedStore* WorkbenchRecoveryTest::sharded_ = nullptr;
FederatedQueryEngine* WorkbenchRecoveryTest::engine_ = nullptr;

TEST_F(WorkbenchRecoveryTest, QueuedJobsReenqueueInOrderRunningFails) {
  uint64_t running_id = 0;
  std::vector<uint64_t> queued_ids;
  std::string image;
  {
    MyDb mydb;
    JobScheduler crashed(engine_, &mydb, SerialOptions());
    Gate gate;
    auto fresh = crashed.RecoverFrom(jobs_dir_.string());
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    EXPECT_EQ(fresh->jobs_seen, 0u);

    // The gated full-catalog INTO occupies alice's single running slot
    // on the LONG lane; the three cone INTOs stay QUEUED on QUICK until
    // the crash.
    auto everything = crashed.Submit("alice", kIntoEverythingSql,
                                     gate.Hooks());
    ASSERT_TRUE(everything.ok());
    running_id = *everything;
    ASSERT_EQ(AwaitStarted(crashed, running_id), JobState::kRunning);
    for (size_t i = 0; i < 3; ++i) {
      auto id = crashed.Submit("alice", IntoConeSql(ConeName(i)));
      ASSERT_TRUE(id.ok());
      queued_ids.push_back(*id);
    }
    EXPECT_EQ(crashed.LaneDepths().quick_queued, 3u);
    image = CrashImage();
  }

  MyDb mydb;
  JobScheduler revived(engine_, &mydb, SerialOptions());
  auto report = revived.RecoverFrom(image);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->jobs_seen, 4u);
  EXPECT_EQ(report->failed_running, 1u);
  EXPECT_EQ(report->terminal_restored, 0u);
  // Original lane order, original ids.
  EXPECT_EQ(report->requeued_ids, queued_ids);

  // The interrupted INTO: FAILED, Aborted, and flagged retryable.
  auto snap = revived.Snapshot(running_id);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->state, JobState::kFailed);
  EXPECT_EQ(snap->error.code(), StatusCode::kAborted);
  EXPECT_TRUE(snap->retryable);
  EXPECT_EQ(snap->sql, kIntoEverythingSql);
  EXPECT_FALSE(mydb.Find("alice", "everything").ok());

  // The re-enqueued INTOs run to completion (serially: one worker, one
  // per-user slot), and each MyDB table holds exactly the cone's
  // objects.
  auto direct = engine_->Execute(kQuickConeSql);
  ASSERT_TRUE(direct.ok());
  for (size_t i = 0; i < queued_ids.size(); ++i) {
    auto done = revived.Wait(queued_ids[i]);
    ASSERT_TRUE(done.ok());
    EXPECT_EQ(done->state, JobState::kSucceeded);
    auto table = mydb.Find("alice", ConeName(i));
    ASSERT_TRUE(table.ok());
    EXPECT_EQ(static_cast<double>((*table)->object_count()),
              direct->aggregate_value);
    EXPECT_EQ(done->rows, (*table)->object_count());
  }
}

TEST_F(WorkbenchRecoveryTest, RequeuedJobsCountInLaneDepthsAndGauges) {
  std::string image;
  {
    MyDb mydb;
    JobScheduler crashed(engine_, &mydb, SerialOptions());
    Gate gate;
    ASSERT_TRUE(crashed.RecoverFrom(jobs_dir_.string()).ok());
    auto everything = crashed.Submit("alice", kIntoEverythingSql,
                                     gate.Hooks());
    ASSERT_TRUE(everything.ok());
    ASSERT_EQ(AwaitStarted(crashed, *everything), JobState::kRunning);
    for (size_t i = 0; i < 2; ++i) {
      ASSERT_TRUE(crashed.Submit("alice", IntoConeSql(ConeName(i))).ok());
    }
    image = CrashImage();
  }

  // No quick worker: the re-enqueued cone INTOs stay where recovery put
  // them.
  metrics::Registry registry;
  JobScheduler::Options opt = SerialOptions();
  opt.quick_workers = 0;
  opt.metrics = &registry;
  MyDb mydb;
  JobScheduler revived(engine_, &mydb, opt);
  auto report = revived.RecoverFrom(image);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->requeued_ids.size(), 2u);
  EXPECT_EQ(revived.LaneDepths().quick_queued, 2u);
  {
    SCOPED_TRACE("recovery requeue");
    ExpectLaneCountsMatchJobs(revived, &registry);
  }
  ASSERT_TRUE(revived.Cancel(report->requeued_ids[0]).ok());
  EXPECT_EQ(revived.LaneDepths().quick_queued, 1u);
  {
    SCOPED_TRACE("cancel a requeued job");
    ExpectLaneCountsMatchJobs(revived, &registry);
  }
}

TEST_F(WorkbenchRecoveryTest, ReadOnlyJobsLeaveNothingToRecover) {
  MyDb mydb;
  {
    JobScheduler crashed(engine_, &mydb, SerialOptions());
    ASSERT_TRUE(crashed.RecoverFrom(jobs_dir_.string()).ok());
    auto heavy = crashed.Submit("alice", kHeavyJoinSql);
    ASSERT_TRUE(heavy.ok());
    ASSERT_EQ(AwaitStarted(crashed, *heavy), JobState::kRunning);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(crashed.Submit("alice", kQuickConeSql).ok());
    }
    EXPECT_EQ(crashed.LaneDepths().quick_queued, 3u);
  }
  JobScheduler revived(engine_, &mydb, SerialOptions());
  auto report = revived.RecoverFrom(jobs_dir_.string());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->jobs_seen, 0u);
  EXPECT_EQ(report->journal.records, 0u);
  EXPECT_TRUE(report->requeued_ids.empty());
  EXPECT_EQ(report->failed_running, 0u);
  EXPECT_EQ(report->terminal_restored, 0u);
  EXPECT_TRUE(revived.Jobs().empty());
  EXPECT_EQ(revived.LaneDepths().quick_queued, 0u);
}

TEST_F(WorkbenchRecoveryTest, OnlyIntoJobsAppendToTheJournal) {
  metrics::Registry registry;
  JobScheduler::Options opt = SerialOptions();
  opt.metrics = &registry;
  MyDb mydb;
  JobScheduler sched(engine_, &mydb, opt);
  ASSERT_TRUE(sched.RecoverFrom(jobs_dir_.string()).ok());
  metrics::Counter* appends = registry.GetCounter("persist_journal_appends");
  for (int i = 0; i < 5; ++i) {
    auto id = sched.Submit("alice", kQuickConeSql);
    ASSERT_TRUE(id.ok());
    auto done = sched.Wait(*id);
    ASSERT_TRUE(done.ok());
    EXPECT_EQ(done->state, JobState::kSucceeded);
  }
  EXPECT_EQ(appends->Value(), 0u) << "read-only jobs must not journal";

  auto into = sched.Submit("alice", kIntoBrightSql);
  ASSERT_TRUE(into.ok());
  auto done = sched.Wait(*into);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->state, JobState::kSucceeded);
  EXPECT_EQ(appends->Value(), 3u) << "SUBMIT, START and TERMINAL";
}

TEST_F(WorkbenchRecoveryTest, CommittedTablesSurviveCrashMidInto) {
  std::string bright_bytes;
  uint64_t committed_id = 0, doomed_id = 0;
  {
    MyDb::Options mopt;
    mopt.persist_dir = mydb_dir_.string();
    MyDb mydb(mopt);
    ASSERT_TRUE(mydb.AttachStorage().ok());
    JobScheduler crashed(engine_, &mydb, SerialOptions());
    ASSERT_TRUE(crashed.RecoverFrom(jobs_dir_.string()).ok());

    auto bright = crashed.Submit("alice", kIntoBrightSql);
    ASSERT_TRUE(bright.ok());
    committed_id = *bright;
    auto done = crashed.Wait(committed_id);
    ASSERT_TRUE(done.ok());
    ASSERT_EQ(done->state, JobState::kSucceeded);
    auto store = mydb.Find("alice", "bright");
    ASSERT_TRUE(store.ok());
    ASSERT_GT((*store)->object_count(), 0u);
    bright_bytes = persist::EncodeSnapshot(**store);

    // Kill the scheduler while the second INTO is mid-materialization:
    // its sink aborts cooperatively, MyDb::Put never runs, and no
    // terminal record is journaled.
    auto doomed = crashed.Submit("alice", kIntoDoomedSql);
    ASSERT_TRUE(doomed.ok());
    doomed_id = *doomed;
    ASSERT_EQ(AwaitStarted(crashed, doomed_id), JobState::kRunning);
  }

  // Crash debris a real mid-INTO power cut can leave: a completed
  // snapshot whose CREATE never committed, and a half-written temp.
  const fs::path alice_dir = mydb_dir_ / "tables" / "alice";
  {
    catalog::StoreOptions sopt;
    sopt.build_tags = false;
    catalog::ObjectStore ghost(sopt);
    std::vector<catalog::PhotoObj> few;
    source_->ForEachObject([&few](const catalog::PhotoObj& o) {
      if (few.size() < 10) few.push_back(o);
    });
    ASSERT_TRUE(ghost.BulkLoad(std::move(few)).ok());
    persist::SnapshotWriter writer((alice_dir / "ghost.snap").string());
    ASSERT_TRUE(writer.Write(ghost).ok());
    std::ofstream torn(alice_dir / "torn.snap.tmp", std::ios::binary);
    torn << "half-writ";
  }

  // Restart. Recovery restores exactly the committed table, bit-exact
  // on disk and in memory, and sweeps everything uncommitted.
  MyDb::Options mopt;
  mopt.persist_dir = mydb_dir_.string();
  MyDb revived_mydb(mopt);
  auto mreport = revived_mydb.AttachStorage();
  ASSERT_TRUE(mreport.ok()) << mreport.status().ToString();
  EXPECT_EQ(mreport->tables_loaded, 1u);
  EXPECT_GE(mreport->orphans_removed, 2u);  // ghost.snap + torn tmp.
  EXPECT_EQ(revived_mydb.List("alice"),
            std::vector<std::string>{"bright"});
  EXPECT_FALSE(revived_mydb.Find("alice", "doomed").ok());
  EXPECT_FALSE(revived_mydb.Find("alice", "ghost").ok());
  EXPECT_FALSE(PathExists((alice_dir / "ghost.snap").string()));
  EXPECT_FALSE(PathExists((alice_dir / "torn.snap.tmp").string()));

  auto store = revived_mydb.Find("alice", "bright");
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(persist::EncodeSnapshot(**store), bright_bytes)
      << "recovered table is not bit-exact";
  auto on_disk =
      ReadFileToString((alice_dir / "bright.snap").string());
  ASSERT_TRUE(on_disk.ok());
  EXPECT_EQ(*on_disk, bright_bytes);

  // The scheduler side of the same crash: the committed INTO is
  // terminal bookkeeping, the doomed one is failed-retryable...
  JobScheduler revived(engine_, &revived_mydb, SerialOptions());
  auto report = revived.RecoverFrom(jobs_dir_.string());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->jobs_seen, 2u);
  EXPECT_EQ(report->terminal_restored, 1u);
  EXPECT_EQ(report->failed_running, 1u);
  auto doomed_snap = revived.Snapshot(doomed_id);
  ASSERT_TRUE(doomed_snap.ok());
  EXPECT_EQ(doomed_snap->state, JobState::kFailed);
  EXPECT_TRUE(doomed_snap->retryable);

  // ...and retrying it materializes the table this time, while the
  // committed name stays protected.
  auto retry = revived.Submit("alice", kIntoDoomedSql);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  auto done = revived.Wait(*retry);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->state, JobState::kSucceeded);
  EXPECT_TRUE(revived_mydb.Find("alice", "doomed").ok());
  auto dup = revived.Submit("alice", kIntoBrightSql);
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(WorkbenchRecoveryTest, UserCancellationsSurviveTheCrash) {
  uint64_t cancelled_id = 0;
  std::string image;
  {
    MyDb mydb;
    JobScheduler crashed(engine_, &mydb, SerialOptions());
    Gate gate;
    ASSERT_TRUE(crashed.RecoverFrom(jobs_dir_.string()).ok());
    auto everything = crashed.Submit("alice", kIntoEverythingSql,
                                     gate.Hooks());
    ASSERT_TRUE(everything.ok());
    ASSERT_EQ(AwaitStarted(crashed, *everything), JobState::kRunning);
    auto queued = crashed.Submit("alice", IntoConeSql("cone"));
    ASSERT_TRUE(queued.ok());
    cancelled_id = *queued;
    ASSERT_TRUE(crashed.Cancel(cancelled_id).ok());
    image = CrashImage();
  }
  MyDb mydb;
  JobScheduler revived(engine_, &mydb, SerialOptions());
  auto report = revived.RecoverFrom(image);
  ASSERT_TRUE(report.ok());
  // The user's decision was journaled: the job is NOT re-enqueued.
  EXPECT_TRUE(report->requeued_ids.empty());
  EXPECT_EQ(report->terminal_restored, 1u);
  EXPECT_EQ(report->failed_running, 1u);
  auto snap = revived.Snapshot(cancelled_id);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->state, JobState::kCancelled);
  EXPECT_FALSE(snap->retryable);
  EXPECT_FALSE(mydb.Find("alice", "cone").ok());
}

TEST_F(WorkbenchRecoveryTest, RecoverFromGuardsItsPreconditions) {
  MyDb mydb;
  JobScheduler sched(engine_, &mydb, SerialOptions());
  ASSERT_TRUE(sched.RecoverFrom(jobs_dir_.string()).ok());
  auto again = sched.RecoverFrom(jobs_dir_.string());
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kFailedPrecondition);

  MyDb mydb2;
  JobScheduler late(engine_, &mydb2, SerialOptions());
  auto id = late.Submit("alice", kQuickConeSql);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(late.Wait(*id).ok());
  auto after_submit = late.RecoverFrom(FreshDir("late").string());
  ASSERT_FALSE(after_submit.ok());
  EXPECT_EQ(after_submit.status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(WorkbenchRecoveryTest, IdsContinuePastTheCrash) {
  MyDb mydb;
  uint64_t last_id = 0;
  {
    JobScheduler crashed(engine_, &mydb, SerialOptions());
    ASSERT_TRUE(crashed.RecoverFrom(jobs_dir_.string()).ok());
    for (int i = 0; i < 3; ++i) {
      auto id = crashed.Submit("alice", kQuickConeSql);
      ASSERT_TRUE(id.ok());
      last_id = *id;
      ASSERT_TRUE(crashed.Wait(last_id).ok());
    }
  }
  JobScheduler revived(engine_, &mydb, SerialOptions());
  ASSERT_TRUE(revived.RecoverFrom(jobs_dir_.string()).ok());
  auto fresh = revived.Submit("alice", kQuickConeSql);
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(*fresh, last_id) << "recovered ids must not be reissued";
}

TEST_F(WorkbenchRecoveryTest, QueuedJobThatNoLongerPreparesFailsAtRecovery) {
  uint64_t derived_id = 0;
  std::string image;
  {
    MyDb mydb;
    JobScheduler crashed(engine_, &mydb, SerialOptions());
    Gate gate;
    ASSERT_TRUE(crashed.RecoverFrom(jobs_dir_.string()).ok());
    auto src = crashed.Submit("alice", IntoConeSql("src"));
    ASSERT_TRUE(src.ok());
    ASSERT_EQ(crashed.Wait(*src)->state, JobState::kSucceeded);
    // A gated INTO holds alice's running slot; the INTO reading mydb.src
    // stays QUEUED until the crash.
    auto held = crashed.Submit("alice", IntoConeSql("held"), gate.Hooks());
    ASSERT_TRUE(held.ok());
    ASSERT_EQ(AwaitStarted(crashed, *held), JobState::kRunning);
    auto derived = crashed.Submit(
        "alice", "SELECT * INTO mydb.derived FROM mydb.src WHERE r < 21");
    ASSERT_TRUE(derived.ok());
    derived_id = *derived;
    image = CrashImage();
  }

  // The revived MyDb holds no mydb.src (its tables were in memory), so
  // the queued statement no longer prepares: recovery fails it with the
  // planner's verdict instead of queueing it.
  {
    MyDb mydb;
    JobScheduler revived(engine_, &mydb, SerialOptions());
    auto report = revived.RecoverFrom(image);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->jobs_seen, 3u);
    EXPECT_TRUE(report->requeued_ids.empty());
    EXPECT_EQ(report->failed_running, 1u);
    auto snap = revived.Wait(derived_id);
    ASSERT_TRUE(snap.ok());
    EXPECT_EQ(snap->state, JobState::kFailed);
    EXPECT_EQ(snap->error.code(), StatusCode::kNotFound);
    EXPECT_FALSE(snap->retryable);
  }

  // The verdict was journaled: the next recovery restores it as
  // terminal bookkeeping.
  MyDb mydb;
  JobScheduler again(engine_, &mydb, SerialOptions());
  auto report = again.RecoverFrom(image);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->terminal_restored, 3u);
  auto snap = again.Snapshot(derived_id);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->state, JobState::kFailed);
  EXPECT_EQ(snap->error.code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace sdss::workbench
