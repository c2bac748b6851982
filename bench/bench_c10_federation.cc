// C10 -- federated shard execution on the C9 "typical queries" mix.
//
// The same engine-facing workload as C9's query classes -- a finding
// chart cone, a neighbor-candidate union, a lens-style color-window
// top-k, and survey aggregates -- executed against (1) one big store and
// (2) the same data partitioned + replicated across 2/4/8 servers via
// ShardedStore and queried through the FederatedQueryEngine. Reports
// end-to-end mix wall time and time-to-first-row (the ASAP number the
// paper cares about): the fan-out shares ONE scan pool, so the federated
// engine must win by decomposition (smaller per-shard sorts and dedup
// sets, early-exit k-way merges), not by grabbing more threads.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "archive/sharded_store.h"
#include "bench_util.h"
#include "core/coords.h"
#include "query/federated_engine.h"

namespace sdss::bench {
namespace {

using archive::ReplicationOptions;
using archive::ShardedStore;
using catalog::ObjectStore;
using query::FederatedQueryEngine;
using query::QueryResult;

/// The C9-flavored query mix, engine-facing slice: (a) finding chart,
/// (b) neighbor-candidate union (QSOs + faint blue galaxies), (c)
/// lens-style color-window top-k stream, plus the survey aggregates a
/// production mix is full of.
std::vector<std::string> C9Mix() {
  SphericalCoord c = ToSpherical(
      EquatorialUnitVector({0.0, 90.0, Frame::kGalactic}),
      Frame::kEquatorial);
  char chart[256];
  std::snprintf(chart, sizeof(chart),
                "SELECT obj_id, ra, dec, r FROM photo WHERE "
                "CIRCLE(%.4f, %.4f, 1.5) AND r < 22 AND g - r < 1.2",
                c.lon_deg, c.lat_deg);
  return {
      chart,
      // (b) quasar + faint-blue-galaxy candidate streams for the
      // neighbor join.
      "SELECT obj_id, ra, dec, r FROM photo WHERE class = 'QSO' AND "
      "r < 22 UNION SELECT obj_id, ra, dec, r FROM photo WHERE "
      "r > 20.5 AND g - r < 0.5",
      // (c) lens candidates: two color-window selections intersected.
      "SELECT obj_id, u, g FROM photo WHERE g - r > 0.1 AND g - r < 0.6 "
      "INTERSECT SELECT obj_id, u, g FROM photo WHERE u - g > 0.2 AND "
      "u - g < 0.9",
      "SELECT obj_id, r FROM photo WHERE g - r > 0.2 AND g - r < 0.7 "
      "ORDER BY r LIMIT 100",
      "SELECT obj_id, g, r FROM photo WHERE r < 22.5 ORDER BY r LIMIT "
      "500",
      "SELECT COUNT(*) FROM photo WHERE r < 22",
      "SELECT AVG(g) FROM photo WHERE class = 'GALAXY' AND r < 22",
  };
}

/// A fleet fixture: the source store stays alive next to its shards.
/// Zero shards is the single-store baseline: a one-shard engine over the
/// unsharded source store.
struct Fleet {
  ObjectStore store;
  std::unique_ptr<ShardedStore> sharded;
  std::unique_ptr<FederatedQueryEngine> fed;

  explicit Fleet(size_t shards, double scale = 1.0)
      : store(MakeBenchStore(scale)) {
    std::vector<query::Shard> routed = {{0, &store, nullptr}};
    if (shards > 0) {
      ReplicationOptions repl;
      repl.num_servers = shards;
      repl.base_replicas = shards >= 2 ? 2 : 1;
      sharded = std::make_unique<ShardedStore>(store, repl);
      auto live = sharded->LiveShards();
      if (!live.ok()) {
        std::fprintf(stderr, "routing failed: %s\n",
                     live.status().ToString().c_str());
        std::abort();
      }
      routed = std::move(*live);
    }
    fed = std::make_unique<FederatedQueryEngine>(std::move(routed));
  }

  QueryResult Run(const std::string& sql) {
    auto r = fed->Execute(sql);
    if (!r.ok()) {
      std::fprintf(stderr, "query failed: %s\n%s\n",
                   r.status().ToString().c_str(), sql.c_str());
      std::abort();
    }
    return std::move(*r);
  }

  double TimeToFirstRow(const std::string& sql) {
    auto st = fed->ExecuteStreaming(
        sql, [](const query::RowBatch&) { return false; });
    return st.ok() ? st->seconds_to_first_row : -1.0;
  }
};

/// Shared fixtures so google-benchmark iterations do not rebuild fleets.
Fleet& CachedFleet(size_t shards) {
  static Fleet* fleets[9] = {};
  if (fleets[shards] == nullptr) fleets[shards] = new Fleet(shards);
  return *fleets[shards];
}

void PrintC10() {
  PrintHeader("C10  Federated shard execution on the C9 query mix");
  const auto mix = C9Mix();
  const std::string stream_sql =
      "SELECT obj_id, r FROM photo WHERE r < 23";

  std::printf(
      "store: %llu objects; mix: %zu queries (chart cone, candidate\n"
      "union, lens intersect, color-window top-k, ordered stream,\n"
      "COUNT, AVG); one shared scan pool for every configuration\n\n",
      static_cast<unsigned long long>(CachedFleet(0).store.object_count()),
      mix.size());
  std::printf("%-14s %14s %18s %14s\n", "config", "mix wall ms",
              "first-row ms", "rows+aggs");

  for (size_t shards : {size_t{0}, size_t{2}, size_t{4}, size_t{8}}) {
    Fleet& fleet = CachedFleet(shards);
    // Warm-up, then best-of-3 (the container is 1-core and noisy).
    uint64_t rows = 0;
    for (const auto& sql : mix) rows += fleet.Run(sql).rows.size();
    double best = 1e18;
    for (int rep = 0; rep < 3; ++rep) {
      auto t0 = std::chrono::steady_clock::now();
      for (const auto& sql : mix) {
        auto r = fleet.Run(sql);
        benchmark::DoNotOptimize(r.rows.size());
      }
      best = std::min(
          best, std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
    }
    double ttfr = 1e18;
    for (int rep = 0; rep < 3; ++rep) {
      ttfr = std::min(ttfr, fleet.TimeToFirstRow(stream_sql));
    }
    char label[32];
    if (shards == 0) {
      std::snprintf(label, sizeof(label), "single-store");
    } else {
      std::snprintf(label, sizeof(label), "%zu shards x2", shards);
    }
    std::printf("%-14s %14.1f %18.2f %14llu\n", label, best * 1e3,
                ttfr * 1e3, static_cast<unsigned long long>(rows));
  }
  std::printf(
      "\nShape check: the federation pays its fan-out overhead back on\n"
      "the blocking operators -- per-shard sorts and dedup sets are a\n"
      "fraction of the single store's, and the ordered k-way merge\n"
      "early-exits at LIMIT -- so the sharded mix should run at or below\n"
      "single-store wall time while first rows arrive from the fastest\n"
      "shard.\n");
}

void BM_C9Mix(benchmark::State& state) {
  Fleet& fleet = CachedFleet(static_cast<size_t>(state.range(0)));
  const auto mix = C9Mix();
  for (auto _ : state) {
    for (const auto& sql : mix) {
      auto r = fleet.Run(sql);
      benchmark::DoNotOptimize(r.rows.size());
    }
  }
}
BENCHMARK(BM_C9Mix)
    ->Arg(0)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_TimeToFirstRow(benchmark::State& state) {
  Fleet& fleet = CachedFleet(static_cast<size_t>(state.range(0)));
  const std::string sql = "SELECT obj_id, r FROM photo WHERE r < 23";
  for (auto _ : state) {
    benchmark::DoNotOptimize(fleet.TimeToFirstRow(sql));
  }
}
BENCHMARK(BM_TimeToFirstRow)
    ->Arg(0)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace sdss::bench

int main(int argc, char** argv) {
  sdss::bench::PrintC10();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
