// C13 -- durable archive: snapshot bandwidth, journal append latency,
// and cold recovery of a crashed 100-job workbench session.
//
// The persistence subsystem's price list. Snapshots are the MyDB
// materialization tax (one durable columnar file per table) and the
// restart tax (every committed table is re-read); the synced journal
// append is on every submit/start/terminal transition of an INTO job,
// so its latency bounds the workbench's INTO admission rate; cold
// recovery is the service's time-to-first-query after a crash. Compare
// interleaved medians (see BUILDING.md; never trust single runs).

#include <benchmark/benchmark.h>

#include <chrono>
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
#include "bench_util.h"
#include "core/io.h"
#include "persist/journal.h"
#include "persist/snapshot.h"
#include "query/federated_engine.h"
#include "workbench/scheduler.h"

namespace sdss::bench {
namespace {

namespace fs = std::filesystem;

using archive::MyDb;
using archive::ReplicationOptions;
using archive::ShardedStore;
using query::FederatedQueryEngine;
using workbench::JobScheduler;
using workbench::JobState;
using workbench::Lane;
using workbench::StreamHooks;

constexpr char kBlockingIntoSql[] =
    "SELECT * INTO mydb.everything FROM photo";
constexpr int kSessionJobs = 100;

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0)
      .count();
}

fs::path BenchDir(const std::string& name) {
  return fs::temp_directory_path() / ("sdss_bench_c13_" + name);
}

/// One fleet + a recorded "crashed" 100-job session for the whole
/// binary: a full-catalog INTO was RUNNING and 100 cone INTOs were
/// QUEUED when the process died. Only INTO jobs are journaled, so only
/// they make a recovery inventory.
struct PersistBench {
  catalog::ObjectStore store;
  std::unique_ptr<ShardedStore> sharded;
  std::unique_ptr<FederatedQueryEngine> fed;
  fs::path session_dir = BenchDir("session_master");
  std::string snapshot_bytes;

  PersistBench() : store(MakeBenchStore(0.25)) {
    ReplicationOptions repl;
    repl.num_servers = 2;
    repl.base_replicas = 2;
    sharded = std::make_unique<ShardedStore>(store, repl);
    auto live = sharded->LiveShards();
    if (!live.ok()) std::abort();
    fed = std::make_unique<FederatedQueryEngine>(*live);
    snapshot_bytes = persist::EncodeSnapshot(store);
    RecordCrashedSession();
  }

  static JobScheduler::Options SerialOptions() {
    JobScheduler::Options opt;
    opt.quick_workers = 1;
    opt.long_workers = 1;
    opt.per_user_running = 1;
    return opt;
  }

  void RecordCrashedSession() {
    const fs::path live = BenchDir("session_live");
    fs::remove_all(live);
    fs::remove_all(session_dir);
    // The running INTO parks in its header hook until the crash image
    // is taken, so it is RUNNING in the journal however fast it is.
    // (Declared first: the scheduler's teardown joins the parked worker.)
    std::mutex mu;
    std::condition_variable cv;
    bool crashed = false;
    MyDb mydb;
    JobScheduler sched(fed.get(), &mydb, SerialOptions());
    if (!sched.RecoverFrom(live.string()).ok()) std::abort();
    StreamHooks hold;
    hold.on_header = [&](uint64_t, Lane, const query::ResultHeader&) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&crashed] { return crashed; });
    };
    // One user: the running INTO occupies the only per-user slot, so
    // the 100 cones pile up QUEUED -- the worst-case recovery inventory.
    auto into = sched.Submit("miner", kBlockingIntoSql, hold);
    if (!into.ok()) std::abort();
    while (sched.Snapshot(*into)->state == JobState::kQueued) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (int i = 0; i < kSessionJobs; ++i) {
      std::string sql = "SELECT * INTO mydb.cone";
      sql += std::to_string(i);
      sql += " FROM photo WHERE CIRCLE('GAL', 30, 70, 3)";
      if (!sched.Submit("miner", sql).ok()) std::abort();
    }
    // The journal as a SIGKILL at this instant leaves it.
    fs::copy(live, session_dir, fs::copy_options::recursive);
    {
      std::lock_guard<std::mutex> lock(mu);
      crashed = true;
    }
    cv.notify_all();
    // Scope exit tears the live session down; it is never recovered.
  }

  /// Copies the master session and times RecoverFrom on the copy.
  double RecoverOnce(workbench::SchedulerRecoveryReport* out) {
    const fs::path scratch = BenchDir("session_scratch");
    fs::remove_all(scratch);
    fs::copy(session_dir, scratch, fs::copy_options::recursive);
    MyDb mydb;
    JobScheduler sched(fed.get(), &mydb, SerialOptions());
    auto t0 = std::chrono::steady_clock::now();
    auto report = sched.RecoverFrom(scratch.string());
    double secs = SecondsSince(t0);
    if (!report.ok()) std::abort();
    if (out != nullptr) *out = *report;
    return secs;
  }
};

PersistBench& Fixture() {
  static PersistBench* pb = new PersistBench();
  return *pb;
}

void PrintC13() {
  PrintHeader("C13  Durable archive: snapshot + journal + cold recovery");
  PersistBench& pb = Fixture();
  const double mb = 1.0 / (1 << 20);
  const double snap_mb = static_cast<double>(pb.snapshot_bytes.size()) * mb;
  std::printf("store: %llu objects in %zu containers; snapshot %.1f MB "
              "(columnar, CRC-32 trailer)\n\n",
              static_cast<unsigned long long>(pb.store.object_count()),
              pb.store.container_count(), snap_mb);

  const fs::path dir = BenchDir("preamble");
  fs::remove_all(dir);
  (void)CreateDirs(dir.string());
  const std::string snap_path = (dir / "store.snap").string();

  auto t0 = std::chrono::steady_clock::now();
  persist::SnapshotWriter writer(snap_path);
  if (!writer.Write(pb.store).ok()) std::abort();
  double write_s = SecondsSince(t0);

  t0 = std::chrono::steady_clock::now();
  persist::SnapshotReader reader(snap_path);
  auto loaded = reader.Read();
  if (!loaded.ok()) std::abort();
  double read_s = SecondsSince(t0);

  std::printf("snapshot durable write: %6.1f MB/s   (temp+fsync+rename)\n",
              snap_mb / write_s);
  std::printf("snapshot read+verify:   %6.1f MB/s   (CRC + columnar "
              "decode, %llu objects)\n",
              snap_mb / read_s,
              static_cast<unsigned long long>(loaded->object_count()));

  auto journal = persist::Journal::Open((dir / "journal").string());
  if (!journal.ok()) std::abort();
  const std::string record(256, 'j');
  t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 200; ++i) {
    if (!(*journal)->Append(record).ok()) std::abort();
  }
  double append_s = SecondsSince(t0);
  std::printf("journal append (synced): %5.0f us/record over 200 "
              "256-B records\n",
              append_s / 200 * 1e6);

  workbench::SchedulerRecoveryReport report;
  double recover_s = pb.RecoverOnce(&report);
  std::printf("cold recovery of a crashed %d-job session: %.1f ms "
              "(%zu QUEUED INTO jobs re-enqueued,\n%llu RUNNING INTO -> "
              "failed-retryable)\n",
              kSessionJobs, recover_s * 1e3, report.requeued_ids.size(),
              static_cast<unsigned long long>(report.failed_running));
  fs::remove_all(dir);
}

void BM_SnapshotWrite(benchmark::State& state) {
  PersistBench& pb = Fixture();
  const fs::path dir = BenchDir("bm_write");
  fs::remove_all(dir);
  if (!CreateDirs(dir.string()).ok()) std::abort();
  persist::SnapshotWriter writer((dir / "s.snap").string());
  for (auto _ : state) {
    if (!writer.Write(pb.store).ok()) std::abort();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(writer.bytes_written()));
  fs::remove_all(dir);
}
BENCHMARK(BM_SnapshotWrite)->Unit(benchmark::kMillisecond);

void BM_SnapshotRead(benchmark::State& state) {
  PersistBench& pb = Fixture();
  const fs::path dir = BenchDir("bm_read");
  fs::remove_all(dir);
  if (!CreateDirs(dir.string()).ok()) std::abort();
  persist::SnapshotWriter writer((dir / "s.snap").string());
  if (!writer.Write(pb.store).ok()) std::abort();
  persist::SnapshotReader reader((dir / "s.snap").string());
  for (auto _ : state) {
    auto loaded = reader.Read();
    if (!loaded.ok()) std::abort();
    benchmark::DoNotOptimize(loaded->object_count());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(writer.bytes_written()));
  fs::remove_all(dir);
}
BENCHMARK(BM_SnapshotRead)->Unit(benchmark::kMillisecond);

/// One 256-B record, fdatasync'd: the price of every journaled
/// transition.
void BM_JournalAppend(benchmark::State& state) {
  const fs::path dir = BenchDir("bm_append");
  fs::remove_all(dir);
  auto journal = persist::Journal::Open(dir.string());
  if (!journal.ok()) std::abort();
  const std::string record(256, 'j');
  for (auto _ : state) {
    if (!(*journal)->Append(record).ok()) std::abort();
  }
  state.SetItemsProcessed(state.iterations());
  fs::remove_all(dir);
}
BENCHMARK(BM_JournalAppend)->Unit(benchmark::kMicrosecond);

void BM_ColdRecovery(benchmark::State& state) {
  PersistBench& pb = Fixture();
  for (auto _ : state) {
    // Only RecoverFrom is on the clock: the directory copy and the
    // scheduler teardown are setup noise.
    double secs = pb.RecoverOnce(nullptr);
    state.SetIterationTime(secs);
  }
  state.SetItemsProcessed(state.iterations() * kSessionJobs);
}
BENCHMARK(BM_ColdRecovery)->UseManualTime()->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sdss::bench

int main(int argc, char** argv) {
  sdss::bench::PrintC13();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  std::filesystem::remove_all(sdss::bench::BenchDir("session_live"));
  std::filesystem::remove_all(sdss::bench::BenchDir("session_master"));
  std::filesystem::remove_all(sdss::bench::BenchDir("session_scratch"));
  return 0;
}
