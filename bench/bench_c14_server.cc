// C14 -- query server: tail latency under concurrent sessions.
//
// The paper's archive is sized for a whole community of astronomers;
// the TCP front end (src/server/) is where that community arrives.
// This bench is the load generator: N concurrent sessions (each its
// own user, its own connection, its own thread) drive a SkyServer-style
// quick-query mix through the full wire path -- frame, authenticate,
// admission, federated execution, streamed rows back -- and we report
// p50/p99 per-statement latency at N = 100, 500 and 1000 sessions.
//
// The acceptance shape: the server must *degrade*, never collapse.
// Below the BUSY threshold every connection is accepted (zero drops);
// past it, overload surfaces as explicit BUSY + retry-after verdicts
// that the generator obeys, and the accept queue stays bounded.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "archive/mydb.h"
#include "archive/sharded_store.h"
#include "bench_util.h"
#include "query/federated_engine.h"
#include "server/client.h"
#include "server/server.h"
#include "workbench/scheduler.h"

namespace sdss::bench {
namespace {

using archive::MyDb;
using archive::ReplicationOptions;
using archive::ShardedStore;
using query::FederatedQueryEngine;
using server::Client;
using server::QueryOutcome;
using server::QueryServer;
using server::ServerOptions;
using workbench::JobScheduler;

/// The quick mix: small spatially-pruned selects and aggregates, the
/// shape of SkyServer's interactive traffic.
constexpr const char* kMix[] = {
    "SELECT obj_id, r FROM photo WHERE CIRCLE('GAL', 30, 70, 4)",
    "SELECT COUNT(*) FROM photo WHERE CIRCLE(180, 0, 5)",
    "SELECT obj_id, g, r FROM tag WHERE RECT(40, 55, -8, 8) AND r < 21",
    "SELECT obj_id FROM photo WHERE BAND(-3, 3) AND class = 'QSO'",
};
constexpr int kMixSize = 4;

/// One fleet + scheduler + server for the whole binary.
struct ServerFixture {
  catalog::ObjectStore store;
  std::unique_ptr<ShardedStore> sharded;
  std::unique_ptr<FederatedQueryEngine> fed;
  std::unique_ptr<MyDb> mydb;
  std::unique_ptr<JobScheduler> scheduler;
  std::unique_ptr<QueryServer> server;

  ServerFixture() : store(MakeBenchStore(0.5)) {
    ReplicationOptions repl;
    repl.num_servers = 4;
    repl.base_replicas = 2;
    sharded = std::make_unique<ShardedStore>(store, repl);
    auto live = sharded->LiveShards();
    if (!live.ok()) std::abort();
    fed = std::make_unique<FederatedQueryEngine>(*live);
    mydb = std::make_unique<MyDb>();
    JobScheduler::Options lanes;
    lanes.quick_workers = 4;
    lanes.long_workers = 1;
    lanes.per_user_running = 1;
    lanes.max_queued_quick = 4096;
    scheduler = std::make_unique<JobScheduler>(fed.get(), mydb.get(), lanes);
    ServerOptions options;
    options.max_sessions = 1200;   // Above the largest tested N.
    options.backlog = 1024;        // The connect burst must not drop.
    options.busy_quick_depth = 512;
    options.busy_retry_ms = 25;
    server = std::make_unique<QueryServer>(scheduler.get(), options);
    if (!server->Start().ok()) std::abort();
  }
};

ServerFixture& Fixture() {
  static ServerFixture* f = new ServerFixture();
  return *f;
}

struct LoadResult {
  std::vector<double> latencies;  ///< Per-statement seconds (successes).
  uint64_t busy = 0;              ///< BUSY verdicts obeyed (then retried).
  uint64_t errors = 0;
  uint64_t connect_failures = 0;
  double wall_seconds = 0;
};

/// Runs `sessions` concurrent sessions, each `per_session` statements
/// from the mix (every session a distinct user). BUSY verdicts back off
/// by the server's retry-after hint and retry the same statement.
LoadResult RunLoad(int sessions, int per_session) {
  ServerFixture& f = Fixture();
  LoadResult result;
  std::mutex mu;
  auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(sessions);
  for (int s = 0; s < sessions; ++s) {
    threads.emplace_back([&f, &result, &mu, s, per_session] {
      std::string user = "u";
      user += std::to_string(s);
      auto client = Client::Connect("127.0.0.1", f.server->port(), user);
      if (!client.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        ++result.connect_failures;
        return;
      }
      std::vector<double> mine;
      uint64_t busy = 0, errors = 0;
      for (int q = 0; q < per_session; ++q) {
        const char* sql = kMix[(s + q) % kMixSize];
        for (;;) {
          auto t = std::chrono::steady_clock::now();
          auto out = client->Query(sql);
          if (!out.ok()) {
            ++errors;
            break;
          }
          if (out->kind == QueryOutcome::Kind::kBusy) {
            ++busy;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(out->busy.retry_after_ms));
            continue;
          }
          if (out->kind == QueryOutcome::Kind::kDone) {
            mine.push_back(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t)
                               .count());
          } else {
            ++errors;
          }
          break;
        }
      }
      (void)client->Bye();
      std::lock_guard<std::mutex> lock(mu);
      result.latencies.insert(result.latencies.end(), mine.begin(),
                              mine.end());
      result.busy += busy;
      result.errors += errors;
    });
  }
  for (auto& t : threads) t.join();
  result.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  std::sort(result.latencies.begin(), result.latencies.end());
  return result;
}

double PercentileMs(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t idx = static_cast<size_t>(p * (sorted.size() - 1));
  return sorted[idx] * 1e3;
}

void PrintC14() {
  PrintHeader("C14  Query server: SkyServer mix under concurrent sessions");
  ServerFixture& f = Fixture();
  std::printf(
      "fleet: 4 servers x2 replicas, %llu objects; scheduler: 4 quick + "
      "1 long worker;\nserver: max_sessions 1200, busy_quick_depth 512, "
      "retry-after 25 ms\nmix: cone select / cone count / rect tag "
      "select / band class select, 3 per session\n\n",
      static_cast<unsigned long long>(f.store.object_count()));

  std::printf("%9s %9s %9s %9s %7s %7s %9s %8s\n", "sessions", "queries",
              "p50 ms", "p99 ms", "busy", "errors", "refused", "wall s");
  const metrics::Counter* refused_total =
      f.server->metrics()->GetCounter("server_sessions_refused");
  uint64_t refused_before = refused_total->Value();
  for (int sessions : {100, 500, 1000}) {
    LoadResult r = RunLoad(sessions, 3);
    uint64_t refused = refused_total->Value() - refused_before;
    refused_before = refused_total->Value();
    std::printf("%9d %9zu %9.2f %9.2f %7llu %7llu %9llu %8.2f\n",
                sessions, r.latencies.size(),
                PercentileMs(r.latencies, 0.50),
                PercentileMs(r.latencies, 0.99),
                static_cast<unsigned long long>(r.busy),
                static_cast<unsigned long long>(r.errors),
                static_cast<unsigned long long>(refused + r.connect_failures),
                r.wall_seconds);
  }
  std::printf(
      "\nShape check: every session below max_sessions is accepted "
      "(refused = 0);\noverload surfaces as BUSY verdicts the client "
      "retries, and p99 grows with\nqueueing -- graceful degradation, "
      "not accept-queue collapse.\n");
}

/// Full wire round trip of one quick statement, single session.
void BM_ServerRoundTrip(benchmark::State& state) {
  ServerFixture& f = Fixture();
  auto client = Client::Connect("127.0.0.1", f.server->port(), "bench");
  if (!client.ok()) std::abort();
  const char* sql = kMix[static_cast<size_t>(state.range(0))];
  for (auto _ : state) {
    auto out = client->Query(sql);
    if (!out.ok() || out->kind != QueryOutcome::Kind::kDone) std::abort();
    benchmark::DoNotOptimize(out->done.rows);
  }
  (void)client->Bye();
}
BENCHMARK(BM_ServerRoundTrip)
    ->DenseRange(0, kMixSize - 1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Connect + HELLO/WELCOME + BYE, the per-session fixed cost.
void BM_ServerHandshake(benchmark::State& state) {
  ServerFixture& f = Fixture();
  for (auto _ : state) {
    auto client = Client::Connect("127.0.0.1", f.server->port(), "hs");
    if (!client.ok()) std::abort();
    (void)client->Bye();
  }
}
BENCHMARK(BM_ServerHandshake)->Unit(benchmark::kMicrosecond)->UseRealTime();

/// The load-generator phase as a macro-benchmark: wall time for N
/// concurrent sessions x 3 statements (manual timing, one shot per
/// iteration).
void BM_ServerConcurrentLoad(benchmark::State& state) {
  const int sessions = static_cast<int>(state.range(0));
  for (auto _ : state) {
    LoadResult r = RunLoad(sessions, 3);
    state.SetIterationTime(r.wall_seconds);
    state.counters["p99_ms"] = PercentileMs(r.latencies, 0.99);
    state.counters["busy"] = static_cast<double>(r.busy);
    if (r.connect_failures != 0) std::abort();
  }
}
BENCHMARK(BM_ServerConcurrentLoad)
    ->Arg(100)
    ->Arg(500)
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime();

}  // namespace
}  // namespace sdss::bench

int main(int argc, char** argv) {
  sdss::bench::PrintC14();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
