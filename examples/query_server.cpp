// Run the archive's TCP front end and talk to it over the wire.
//
// Builds a 4-server fleet, starts a QueryServer on an ephemeral
// loopback port, and drives it with the bundled Client: handshake,
// cone search, aggregate, an INTO mydb materialization mined by a
// follow-up query, a mid-stream cancellation, and a refused login.
// The same walkthrough, narrated, lives in BUILDING.md; the byte-level
// protocol is docs/PROTOCOL.md.
//
// Flags (all optional; without them the walkthrough runs as before):
//   --admin-port=N     also start the HTTP admin endpoint on port N
//                      (0 = ephemeral): /metrics /healthz /statusz
//                      /varz /tracez, plus the metric history sampler,
//                      health watchdog, trace ring, and event log.
//   --serve-seconds=S  keep both servers up S seconds after the
//                      walkthrough so a scraper (or CI's monitoring
//                      smoke job) can pull the endpoints.
//   --trip-watchdog    force the journal_poisoned rule to fire so
//                      /healthz demonstrably flips to 503.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "archive/mydb.h"
#include "archive/sharded_store.h"
#include "catalog/sky_generator.h"
#include "core/eventlog.h"
#include "core/metrics.h"
#include "core/metrics_history.h"
#include "core/watchdog.h"
#include "query/federated_engine.h"
#include "query/trace.h"
#include "server/client.h"
#include "server/http_admin.h"
#include "server/server.h"
#include "workbench/scheduler.h"

namespace {

using sdss::archive::MyDb;
using sdss::archive::ReplicationOptions;
using sdss::archive::ShardedStore;
using sdss::query::FederatedQueryEngine;
using sdss::server::Client;
using sdss::server::QueryOutcome;
using sdss::server::QueryServer;
using sdss::server::ServerOptions;
using sdss::server::HttpAdmin;
using sdss::workbench::JobScheduler;

void ShowOutcome(const char* what, const QueryOutcome& out) {
  switch (out.kind) {
    case QueryOutcome::Kind::kDone:
      std::printf("%-28s %llu rows in %.1f ms (lane %s, %llu containers "
                  "scanned)\n",
                  what, static_cast<unsigned long long>(out.done.rows),
                  out.done.seconds_running * 1e3,
                  out.header.lane == 0 ? "QUICK" : "LONG",
                  static_cast<unsigned long long>(
                      out.done.containers_scanned));
      break;
    case QueryOutcome::Kind::kError:
      std::printf("%-28s ERROR: %s\n", what, out.error.message.c_str());
      break;
    case QueryOutcome::Kind::kBusy:
      std::printf("%-28s BUSY, retry in %u ms\n", what,
                  out.busy.retry_after_ms);
      break;
  }
}

}  // namespace

int main(int argc, char** argv) {
  int admin_port = -1;  // -1 = monitoring plane off.
  int serve_seconds = 0;
  bool trip_watchdog = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--admin-port=", 0) == 0) {
      admin_port = std::atoi(arg.c_str() + std::strlen("--admin-port="));
    } else if (arg.rfind("--serve-seconds=", 0) == 0) {
      serve_seconds =
          std::atoi(arg.c_str() + std::strlen("--serve-seconds="));
    } else if (arg == "--trip-watchdog") {
      trip_watchdog = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--admin-port=N] [--serve-seconds=S] "
                   "[--trip-watchdog]\n",
                   argv[0]);
      return 2;
    }
  }

  // A small synthetic sky on a 4-server fleet.
  sdss::catalog::SkyModel model;
  model.seed = 7;
  model.num_galaxies = 30'000;
  model.num_stars = 25'000;
  model.num_quasars = 300;
  sdss::catalog::ObjectStore source;
  if (!source.BulkLoad(sdss::catalog::SkyGenerator(model).Generate()).ok()) {
    return 1;
  }
  ReplicationOptions repl;
  repl.num_servers = 4;
  repl.base_replicas = 2;
  ShardedStore sharded(source, repl);
  auto shards = sharded.LiveShards();
  if (!shards.ok()) return 1;

  // One registry wired through every layer: the engine's query/cache
  // counters, the scheduler's lane gauges, and the server's session
  // counters all land in it, so a single STATS frame reports the whole
  // process.
  sdss::metrics::Registry registry;
  FederatedQueryEngine::Options engine_options;
  engine_options.metrics = &registry;
  FederatedQueryEngine engine(*shards, engine_options);
  MyDb mydb;

  // The monitoring plane, when --admin-port asked for it: structured
  // events on disk, a 2 s metric-history sampler (so short runs still
  // accumulate /varz windows), the stock watchdog rules, and a trace
  // ring fed by every finished job (trace_sample_every = 1).
  std::unique_ptr<sdss::EventLog> events;
  std::unique_ptr<sdss::metrics::History> history;
  std::unique_ptr<sdss::HealthWatchdog> watchdog;
  sdss::query::TraceRing traces(64);
  if (admin_port >= 0) {
    const std::string events_dir =
        (std::filesystem::temp_directory_path() / "sdss_query_server_events")
            .string();
    auto opened = sdss::EventLog::Open(events_dir);
    if (opened.ok()) {
      events = std::move(*opened);
      std::printf("event log: %s\n", events_dir.c_str());
    }
    sdss::metrics::History::Options hopt;
    hopt.period_seconds = 2.0;
    hopt.capacity = 1800;  // Still an hour of history.
    history = std::make_unique<sdss::metrics::History>(&registry, hopt);
    sdss::HealthWatchdog::Options wopt;
    wopt.rules = sdss::HealthWatchdog::DefaultRules(/*quick_depth_max=*/16);
    wopt.events = events.get();
    watchdog =
        std::make_unique<sdss::HealthWatchdog>(history.get(), wopt);
  }

  JobScheduler::Options lanes;
  lanes.quick_workers = 2;
  lanes.long_workers = 1;
  lanes.metrics = &registry;
  lanes.events = events.get();
  lanes.trace_ring = &traces;
  lanes.trace_sample_every = 1;
  JobScheduler scheduler(&engine, &mydb, lanes);

  ServerOptions options;
  options.users = {{"ana", "tycho"}};
  options.metrics = &registry;
  options.events = events.get();
  QueryServer server(&scheduler, options);
  if (!server.Start().ok()) return 1;
  std::printf("query server listening on 127.0.0.1:%u\n\n", server.port());

  std::unique_ptr<HttpAdmin> admin;
  if (admin_port >= 0) {
    HttpAdmin::Options aopt;
    aopt.port = static_cast<uint16_t>(admin_port);
    aopt.metrics = &registry;
    aopt.history = history.get();
    aopt.watchdog = watchdog.get();
    aopt.traces = &traces;
    aopt.scheduler = &scheduler;
    aopt.events = events.get();
    aopt.build_info = "sdss-archive example_query_server";
    admin = std::make_unique<HttpAdmin>(aopt);
    if (!admin->Start().ok()) return 1;
    // The watchdog evaluates after every history sample, so readiness
    // flips within one sampler period of a condition appearing.
    history->Start([&watchdog] { watchdog->Evaluate(); });
    std::printf("admin endpoint on 127.0.0.1:%u -- try:\n", admin->port());
    std::printf("  curl http://127.0.0.1:%u/metrics\n", admin->port());
    std::printf("  curl http://127.0.0.1:%u/healthz\n", admin->port());
    std::printf("  curl http://127.0.0.1:%u/statusz\n", admin->port());
    std::printf("  curl http://127.0.0.1:%u/varz?window=60s\n",
                admin->port());
    std::printf("  curl http://127.0.0.1:%u/tracez?latest=1\n\n",
                admin->port());
    if (trip_watchdog) {
      // Fake the one latched failure an operator can stage without a
      // sick disk: the journal_poisoned rule reads this gauge.
      registry.GetGauge("persist_journal_poisoned")->Set(1);
      std::printf("tripped watchdog: persist_journal_poisoned = 1, "
                  "/healthz goes 503 within ~%.0f s\n\n",
                  history->period_seconds());
    }
  }

  auto client = Client::Connect("127.0.0.1", server.port(), "ana", "tycho");
  if (!client.ok()) return 1;
  std::printf("connected: session %llu, banner \"%s\"\n\n",
              static_cast<unsigned long long>(
                  client->welcome().session_id),
              client->welcome().banner.c_str());

  // A cone search and an aggregate, straight through the wire.
  auto cone = client->Query(
      "SELECT obj_id, r FROM photo WHERE CIRCLE('GAL', 30, 70, 6) "
      "ORDER BY r ASC LIMIT 500");
  if (!cone.ok()) return 1;
  ShowOutcome("cone search:", *cone);
  if (cone->have_header && !cone->rows.empty()) {
    std::printf("  brightest: obj %llu at r=%.2f\n",
                static_cast<unsigned long long>(cone->rows[0].obj_id),
                cone->rows[0].values[1]);
  }
  auto count = client->Query(
      "SELECT COUNT(*) FROM photo WHERE class = 'QSO' AND r < 21");
  if (!count.ok()) return 1;
  ShowOutcome("quasar count:", *count);

  // Materialize a personal table, then mine it without re-scanning the
  // fleet (the CasJobs workflow, now over the network).
  auto into = client->Query(
      "SELECT * INTO mydb.bright FROM photo WHERE r < 19");
  if (!into.ok()) return 1;
  ShowOutcome("INTO mydb.bright:", *into);
  auto mine = client->Query(
      "SELECT obj_id, redshift FROM mydb.bright "
      "WHERE class = 'QSO' ORDER BY redshift DESC LIMIT 5");
  if (!mine.ok()) return 1;
  ShowOutcome("mine mydb.bright:", *mine);

  // Streaming with a change of heart: the row callback bails after the
  // first batch, the client sends CANCEL, the server ends the job.
  int batches = 0;
  auto cancelled = client->Query(
      "SELECT a.obj_id, b.obj_id, sep FROM photo AS a "
      "JOIN photoobj AS b WITHIN 30 ARCMIN",
      [&batches](const sdss::query::RowBatch&) { return ++batches < 2; });
  if (!cancelled.ok()) return 1;
  ShowOutcome("cancelled join:", *cancelled);

  // A login the server refuses (fatal ERROR, session never opens).
  auto intruder = Client::Connect("127.0.0.1", server.port(), "ana", "x");
  std::printf("%-28s %s\n", "bad token:",
              intruder.ok() ? "accepted?!"
                            : intruder.status().message().c_str());

  // The metrics snapshot, fetched over the wire (STATS frame): every
  // instrument the process registered, from engine to server.
  auto report = client->Stats();
  if (!report.ok()) return 1;
  std::printf("\nmetrics over the wire (%zu instruments):\n",
              report->instruments.size());
  for (const auto& inst : report->instruments) {
    switch (inst.kind) {
      case sdss::metrics::Kind::kCounter:
        if (inst.counter > 0) {
          std::printf("  %-28s %llu\n", inst.name.c_str(),
                      static_cast<unsigned long long>(inst.counter));
        }
        break;
      case sdss::metrics::Kind::kGauge:
        std::printf("  %-28s %lld\n", inst.name.c_str(),
                    static_cast<long long>(inst.gauge));
        break;
      case sdss::metrics::Kind::kHistogram:
        if (inst.hist.count > 0) {
          std::printf("  %-28s n=%llu p50=%llu us p99=%llu us\n",
                      inst.name.c_str(),
                      static_cast<unsigned long long>(inst.hist.count),
                      static_cast<unsigned long long>(inst.hist.P50()),
                      static_cast<unsigned long long>(inst.hist.P99()));
        }
        break;
    }
  }

  if (!client->Bye().ok()) return 1;
  auto counter = [&server](const char* name) {
    return static_cast<unsigned long long>(
        server.metrics()->GetCounter(name)->Value());
  };
  std::printf("\nserver stats: %llu sessions, %llu queries submitted, "
              "%llu ok / %llu failed, %llu auth failures\n",
              counter("server_sessions_accepted"),
              counter("server_queries_submitted"),
              counter("server_queries_succeeded"),
              counter("server_queries_failed"),
              counter("server_auth_failures"));
  if (serve_seconds > 0) {
    std::printf("\nserving %d more seconds for scrapers...\n",
                serve_seconds);
    std::this_thread::sleep_for(std::chrono::seconds(serve_seconds));
  }
  if (admin != nullptr) {
    history->Stop();
    admin->Stop();
  }
  server.Stop();
  return 0;
}
