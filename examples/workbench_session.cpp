// The batch query workbench in one session: a 4-server fleet behind a
// job scheduler, cost-based QUICK/LONG admission, a CasJobs-style
// 3-step mining workflow through a personal MyDB store, cooperative
// cancellation, and the per-user storage quota.
//
//   cmake --build build --target example_workbench_session
//   ./build/examples/example_workbench_session

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
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
using sdss::workbench::JobSnapshot;
using sdss::workbench::JobStateName;
using sdss::workbench::LaneName;

namespace {

void PrintJob(const JobSnapshot& snap) {
  std::printf("  job %2" PRIu64 "  %-6s %-9s %8" PRIu64
              " rows  user=%-6s %s\n",
              snap.id, LaneName(snap.lane), JobStateName(snap.state),
              snap.rows, snap.user.c_str(),
              snap.error.ok() ? snap.sql.substr(0, 48).c_str()
                              : snap.error.ToString().substr(0, 48).c_str());
}

}  // namespace

int main() {
  // A deterministic synthetic sky, spatially partitioned over 4 servers
  // with 2 replicas of every container.
  sdss::catalog::SkyModel model;
  model.seed = 20;
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
  std::printf("fleet: %zu servers, %" PRIu64 " objects\n",
              sharded.num_servers(), source.object_count());

  MyDb::Options quota;
  quota.per_user_quota_bytes = 32ull << 20;
  MyDb mydb(quota);
  JobScheduler::Options opts;
  opts.quick_workers = 2;
  opts.long_workers = 1;
  opts.quick_lane_max_bytes = 4ull << 20;
  JobScheduler scheduler(&engine, &mydb, opts);

  // -- The 3-step mining workflow ------------------------------------
  std::printf("\n[1] long job: SELECT * INTO mydb.bright ...\n");
  auto into = scheduler.Submit(
      "miner", "SELECT * INTO mydb.bright FROM photo WHERE r < 20.5");
  if (!into.ok()) return 1;

  // Quick-lane work is admitted and answered while the long job runs.
  auto cone = scheduler.Submit(
      "alice",
      "SELECT COUNT(*) FROM photo WHERE CIRCLE('GAL', 30, 70, 5)");
  if (!cone.ok()) return 1;
  auto cone_done = scheduler.Wait(*cone);
  std::printf("    quick cone search finished (%s) while INTO is %s\n",
              JobStateName(cone_done->state),
              JobStateName(scheduler.Snapshot(*into)->state));

  auto into_done = scheduler.Wait(*into);
  std::printf("    materialized %" PRIu64
              " bright objects into mydb.bright (%.0f KB used)\n",
              into_done->rows,
              static_cast<double>(mydb.UsedBytes("miner")) / 1024.0);

  std::printf("[2] quick job: refine mydb.bright (no base-data scan)\n");
  auto refine = scheduler.Submit(
      "miner",
      "SELECT obj_id, r FROM mydb.bright WHERE g - r < 0.6 "
      "ORDER BY r LIMIT 10");
  if (!refine.ok()) return 1;
  auto refine_done = scheduler.Wait(*refine);
  std::printf("    %" PRIu64 " rows, lane=%s\n", refine_done->rows,
              LaneName(refine_done->lane));

  std::printf("[3] quick job: aggregate the derived table\n");
  // Rows stream to the submitter's hook as the job produces them; the
  // scheduler keeps none.
  double avg = 0.0;
  sdss::workbench::StreamHooks hooks;
  hooks.on_batch = [&avg](const sdss::query::RowBatch& batch) {
    if (!batch.empty()) avg = batch[0].values.at(0);
    return true;
  };
  auto agg = scheduler.Submit("miner", "SELECT AVG(r) FROM mydb.bright",
                              std::move(hooks));
  if (!agg.ok()) return 1;
  if (scheduler.Wait(*agg)->state == sdss::workbench::JobState::kSucceeded) {
    std::printf("    AVG(r) over mydb.bright = %.4f\n", avg);
  }

  // -- Cancellation ---------------------------------------------------
  std::printf("\ncancelling a long mining join mid-scan:\n");
  auto heavy = scheduler.Submit(
      "load",
      "SELECT COUNT(*) FROM photo AS a JOIN photoobj AS b WITHIN 2 DEG");
  if (heavy.ok()) {
    while (scheduler.Snapshot(*heavy)->state ==
           sdss::workbench::JobState::kQueued) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    (void)scheduler.Cancel(*heavy);
    auto done = scheduler.Wait(*heavy);
    std::printf("    job %" PRIu64 " -> %s (%s)\n", *heavy,
                JobStateName(done->state), done->error.ToString().c_str());
  }

  // -- Quota ----------------------------------------------------------
  std::printf("\nquota: a second INTO against a taken name is refused "
              "at submit:\n");
  auto dup = scheduler.Submit(
      "miner", "SELECT * INTO mydb.bright FROM photo WHERE r < 19");
  std::printf("    submit -> %s\n", dup.ok()
                                        ? "accepted (unexpected)"
                                        : dup.status().ToString().c_str());

  std::printf("\nsession job table:\n");
  for (const JobSnapshot& snap : scheduler.Jobs()) PrintJob(snap);
  std::printf("\nmydb tables of 'miner':");
  for (const std::string& name : mydb.List("miner")) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n");
  return 0;
}
