// The durable workbench: the same CasJobs-style service, but with the
// persistence subsystem attached -- MyDB tables live on disk as
// columnar snapshots, INTO job transitions stream into a write-ahead
// journal, and a "power cut" loses nothing that was committed: the
// restarted service restores the personal store bit-exact, re-enqueues
// the INTO jobs that were queued (they materialize in order), and
// marks the one that was running as failed-retryable. Read-only jobs
// are not journaled: their rows went to a client the power cut lost.
//
//   cmake --build build --target example_durable_workbench
//   ./build/examples/example_durable_workbench

#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "archive/mydb.h"
#include "archive/sharded_store.h"
#include "catalog/sky_generator.h"
#include "query/federated_engine.h"
#include "workbench/scheduler.h"

using sdss::archive::MyDb;
using sdss::archive::ReplicationOptions;
using sdss::archive::ShardedStore;
using sdss::query::FederatedQueryEngine;
using sdss::workbench::JobScheduler;
using sdss::workbench::JobState;
using sdss::workbench::JobStateName;
using sdss::workbench::Lane;
using sdss::workbench::StreamHooks;

namespace fs = std::filesystem;

namespace {

JobScheduler::Options SchedulerOptions() {
  JobScheduler::Options opt;
  opt.quick_workers = 1;
  opt.long_workers = 1;
  opt.per_user_running = 1;
  return opt;
}

/// Parks the job it is handed to in its header hook until Open(), so
/// the job is RUNNING when the power is cut. Destruction opens it:
/// declare it after the scheduler, whose teardown joins the worker.
class Gate {
 public:
  ~Gate() { Open(); }
  StreamHooks Hooks() const {
    StreamHooks hooks;
    hooks.on_header = [state = state_](uint64_t, Lane,
                                       const sdss::query::ResultHeader&) {
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
  // Shared with the hook: the parked worker may still be waking up
  // when the Gate itself is gone.
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    bool open = false;
  };
  std::shared_ptr<State> state_ = std::make_shared<State>();
};

bool AwaitRunning(JobScheduler& sched, uint64_t id) {
  for (;;) {
    auto snap = sched.Snapshot(id);
    if (!snap.ok()) return false;
    if (snap->state == JobState::kRunning) return true;
    if (snap->state != JobState::kQueued) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace

int main() {
  const fs::path root = fs::temp_directory_path() / "sdss_durable_demo";
  fs::remove_all(root);
  // Session 1 runs on `live`; `disk` is the image a power cut leaves.
  const fs::path live = root / "live";
  const fs::path disk = root / "disk";

  // The fleet itself is rebuilt from base data on start (the paper's
  // archive reloads from the pipeline); it is the DERIVED state -- MyDB
  // tables and the job queue -- that must survive on its own.
  sdss::catalog::SkyModel model;
  model.seed = 31;
  model.num_galaxies = 20000;
  model.num_stars = 16000;
  model.num_quasars = 400;
  sdss::catalog::ObjectStore source;
  if (!source.BulkLoad(sdss::catalog::SkyGenerator(model).Generate())
           .ok()) {
    return 1;
  }
  ReplicationOptions repl;
  repl.num_servers = 4;
  repl.base_replicas = 2;
  ShardedStore sharded(source, repl);
  auto shards = sharded.LiveShards();
  if (!shards.ok()) return 1;
  FederatedQueryEngine engine(*shards);

  std::printf("=== session 1: a mining workflow, then the power cord ===\n");
  uint64_t running_id = 0;
  std::vector<uint64_t> queued_ids;
  {
    MyDb::Options mopt;
    mopt.persist_dir = (live / "mydb").string();
    MyDb mydb(mopt);
    if (!mydb.AttachStorage().ok()) return 1;
    JobScheduler sched(&engine, &mydb, SchedulerOptions());
    Gate gate;
    if (!sched.RecoverFrom((live / "jobs").string()).ok()) return 1;

    auto bright = sched.Submit(
        "alice", "SELECT * INTO mydb.bright FROM photo WHERE r < 20.5");
    if (!bright.ok()) return 1;
    auto done = sched.Wait(*bright);
    if (!done.ok() || done->state != JobState::kSucceeded) return 1;
    std::printf("  mydb.bright committed: %" PRIu64
                " objects (snapshot on disk, journaled CREATE)\n",
                done->rows);

    // A full-catalog INTO holds alice's one running slot; three cone
    // INTOs over mydb.bright queue behind it.
    auto everything = sched.Submit(
        "alice", "SELECT * INTO mydb.everything FROM photo", gate.Hooks());
    if (!everything.ok() || !AwaitRunning(sched, *everything)) return 1;
    running_id = *everything;
    for (int i = 0; i < 3; ++i) {
      std::string sql = "SELECT * INTO mydb.field";
      sql += std::to_string(i);
      sql += " FROM mydb.bright WHERE CIRCLE('GAL', 30, 70, ";
      sql += std::to_string(5 * (i + 1));
      sql += ")";
      auto q = sched.Submit("alice", sql);
      if (!q.ok()) return 1;
      queued_ids.push_back(*q);
    }
    std::printf("  crash point: job %" PRIu64
                " RUNNING, jobs %" PRIu64 "-%" PRIu64 " QUEUED\n",
                running_id, queued_ids.front(), queued_ids.back());
    // The power cut: what is on disk at this instant is all the
    // restarted service gets. Session 1 then winds down unobserved.
    fs::copy(live, disk, fs::copy_options::recursive);
  }

  std::printf("\n=== session 2: restart and recover ===\n");
  MyDb::Options mopt;
  mopt.persist_dir = (disk / "mydb").string();
  MyDb mydb(mopt);
  auto mrep = mydb.AttachStorage();
  if (!mrep.ok()) return 1;
  std::printf("  mydb: %" PRIu64 " table(s) restored, %" PRIu64
              " orphan file(s) swept, %" PRIu64 " journal records\n",
              mrep->tables_loaded, mrep->orphans_removed,
              mrep->journal.records);
  auto bright = mydb.Find("alice", "bright");
  if (!bright.ok()) return 1;
  std::printf("  mydb.bright: %" PRIu64 " objects, %zu containers "
              "(clustering intact)\n",
              (*bright)->object_count(), (*bright)->container_count());

  JobScheduler sched(&engine, &mydb, SchedulerOptions());
  auto jrep = sched.RecoverFrom((disk / "jobs").string());
  if (!jrep.ok()) return 1;
  std::printf("  jobs: %" PRIu64 " seen; %zu re-enqueued in order; "
              "%" PRIu64 " failed-retryable\n",
              jrep->jobs_seen, jrep->requeued_ids.size(),
              jrep->failed_running);
  auto crashed = sched.Snapshot(running_id);
  if (crashed.ok()) {
    std::printf("  job %" PRIu64 ": %s (%s; retryable=%s)\n", running_id,
                JobStateName(crashed->state),
                crashed->error.ToString().substr(0, 52).c_str(),
                crashed->retryable ? "yes" : "no");
  }
  for (uint64_t id : jrep->requeued_ids) {
    auto done = sched.Wait(id);
    if (!done.ok() || done->state != JobState::kSucceeded) return 1;
    std::printf("  job %" PRIu64 " (requeued) -> %s, mydb.%s holds %" PRIu64
                " object(s)\n",
                id, JobStateName(done->state), done->into.c_str(),
                done->rows);
  }
  if (jrep->requeued_ids != queued_ids) return 1;
  std::printf("  mydb tables of alice:");
  for (const std::string& name : mydb.List("alice")) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n");

  std::printf("\nDurable state lives under %s (delete to reset).\n",
              root.string().c_str());
  fs::remove_all(root);
  return 0;
}
