// C15 -- semantic result cache on the typical-query mix.
//
// SkyServer's production traffic re-runs a small set of typical queries
// over slowly-changing data, so the archive's semantic result cache
// should turn the steady state into fingerprint replays and cover
// containment filters instead of federated fan-outs. Three questions,
// each answered with interleaved 5-rep medians so machine noise hits
// both sides equally:
//   1. cache-hit vs cold fan-out latency on the typical-query mix
//      (acceptance: hits at least 5x faster),
//   2. containment filtering (narrow probes served from one wide cached
//      cone) vs real fleet re-scans,
//   3. the epoch-bump cost: the first run after a mutation pays a full
//      re-scan plus re-install, then the cache is warm again.
// BM_CacheMissProbe prices the probe every statement pays when the
// working set outgrows the cache: 128 resident cone entries, none of
// which contains the probe.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "archive/sharded_store.h"
#include "bench_util.h"
#include "query/federated_engine.h"
#include "query/parser.h"
#include "query/qet.h"
#include "query/result_cache.h"

namespace sdss::bench {
namespace {

using archive::ReplicationOptions;
using archive::ShardedStore;
using catalog::ObjectStore;
using query::FederatedQueryEngine;
using query::QueryResult;

/// The cacheable slice of the C9/C10 typical-query mix: finding chart,
/// candidate union, lens intersect, color-window top-k, ordered stream,
/// and the survey aggregates. (SAMPLE and division queries are never
/// cached and would dilute the comparison.)
std::vector<std::string> TypicalMix() {
  return {
      "SELECT obj_id, u, g, r FROM photo WHERE CIRCLE('GAL', 0, 88, 1.5) "
      "AND r < 22 AND g - r < 1.2",
      "SELECT obj_id, ra, dec, r FROM photo WHERE class = 'QSO' AND "
      "r < 22 UNION SELECT obj_id, ra, dec, r FROM photo WHERE "
      "r > 20.5 AND g - r < 0.5",
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

/// The wide cone every containment probe is a subset of. All-tag
/// attributes, so probes route to the same physical table.
const char kWideCone[] =
    "SELECT obj_id, u, g, r FROM photo WHERE CIRCLE('GAL', 30, 70, 10)";

/// Narrow probes inside the wide cone, with non-spatial residuals the
/// cache must re-filter cached rows by.
std::vector<std::string> ContainmentProbes() {
  return {
      "SELECT obj_id, u, g, r FROM photo WHERE CIRCLE('GAL', 30, 70, 4)",
      "SELECT obj_id, u, g, r FROM photo WHERE "
      "RECT('GAL', 27, 33, 68, 72) AND g - r < 0.8",
      "SELECT obj_id, u, g, r FROM photo WHERE CIRCLE('GAL', 28, 69, 3) "
      "AND u - g > 0.2 ORDER BY r LIMIT 50",
  };
}

/// One fleet, two engines: `cold` never caches, `cached` owns a 32 MB
/// semantic cache keyed by the fleet-wide epoch.
struct Fleet {
  ObjectStore store;
  std::unique_ptr<ShardedStore> sharded;
  std::unique_ptr<FederatedQueryEngine> cold;
  std::unique_ptr<FederatedQueryEngine> cached;

  explicit Fleet(size_t servers) : store(MakeBenchStore()) {
    ReplicationOptions repl;
    repl.num_servers = servers;
    repl.base_replicas = servers >= 2 ? 2 : 1;
    sharded = std::make_unique<ShardedStore>(store, repl);
    auto live = sharded->LiveShards();
    if (!live.ok()) {
      std::fprintf(stderr, "routing failed: %s\n",
                   live.status().ToString().c_str());
      std::abort();
    }
    cold = std::make_unique<FederatedQueryEngine>(*live);
    FederatedQueryEngine::Options opt;
    opt.result_cache_bytes = 32u << 20;
    opt.cache_epoch_source = [s = sharded.get()] { return s->Epoch(); };
    cached = std::make_unique<FederatedQueryEngine>(*live, opt);
  }

  QueryResult Run(FederatedQueryEngine* engine, const std::string& sql) {
    auto r = engine->Execute(sql);
    if (!r.ok()) {
      std::fprintf(stderr, "query failed: %s\n%s\n",
                   r.status().ToString().c_str(), sql.c_str());
      std::abort();
    }
    return std::move(*r);
  }
};

Fleet& SharedFleet() {
  static Fleet* fleet = new Fleet(4);
  return *fleet;
}

/// The epoch-bump fixture owns a mutable single store (sharded fleets
/// only expose their shard stores const; real mutations arrive through
/// ingest, which the bench does not model).
struct MutableFleet {
  ObjectStore store;
  std::unique_ptr<FederatedQueryEngine> cached;

  MutableFleet() : store(MakeBenchStore()) {
    std::vector<query::Shard> shards;
    shards.push_back({0, &store, nullptr});
    FederatedQueryEngine::Options opt;
    opt.result_cache_bytes = 32u << 20;
    cached = std::make_unique<FederatedQueryEngine>(shards, opt);
  }

  QueryResult Run(const std::string& sql) {
    auto r = cached->Execute(sql);
    if (!r.ok()) {
      std::fprintf(stderr, "query failed: %s\n%s\n",
                   r.status().ToString().c_str(), sql.c_str());
      std::abort();
    }
    return std::move(*r);
  }
};

MutableFleet& SharedMutableFleet() {
  static MutableFleet* fleet = new MutableFleet();
  return *fleet;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double TimeMix(Fleet& fleet, FederatedQueryEngine* engine,
               const std::vector<std::string>& mix) {
  auto t0 = std::chrono::steady_clock::now();
  for (const auto& sql : mix) {
    auto r = fleet.Run(engine, sql);
    benchmark::DoNotOptimize(r.rows.size());
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0)
      .count();
}

void PrintC15() {
  PrintHeader("C15  Semantic result cache on the typical-query mix");
  Fleet& fleet = SharedFleet();
  const auto mix = TypicalMix();
  const auto probes = ContainmentProbes();
  constexpr int kReps = 5;

  std::printf(
      "store: %llu objects on 4 servers x2 replicas; cache: 32 MB,\n"
      "epoch-keyed to the fleet; all timings interleaved %d-rep "
      "medians\n\n",
      static_cast<unsigned long long>(fleet.store.object_count()), kReps);

  // -- 1. cache hit vs cold fan-out on the mix ---------------------------
  for (const auto& sql : mix) fleet.Run(fleet.cached.get(), sql);  // warm
  std::vector<double> cold_s, hit_s;
  for (int rep = 0; rep < kReps; ++rep) {
    cold_s.push_back(TimeMix(fleet, fleet.cold.get(), mix));
    hit_s.push_back(TimeMix(fleet, fleet.cached.get(), mix));
  }
  const double cold_ms = Median(cold_s) * 1e3;
  const double hit_ms = Median(hit_s) * 1e3;
  std::printf("%-34s %12s %14s\n", "case", "median ms", "vs cold");
  std::printf("%-34s %12.2f %14s\n", "typical mix, cold fan-out", cold_ms,
              "1.0x");
  std::printf("%-34s %12.2f %13.1fx\n", "typical mix, cache hit", hit_ms,
              cold_ms / hit_ms);

  // -- 2. containment probes vs fleet re-scans ---------------------------
  fleet.Run(fleet.cached.get(), kWideCone);  // the superset entry
  size_t served_by_containment = 0;
  for (const auto& sql : probes) {
    if (fleet.Run(fleet.cached.get(), sql).exec.cache_containment) {
      ++served_by_containment;
    }
  }
  std::vector<double> scan_s, contain_s;
  for (int rep = 0; rep < kReps; ++rep) {
    scan_s.push_back(TimeMix(fleet, fleet.cold.get(), probes));
    contain_s.push_back(TimeMix(fleet, fleet.cached.get(), probes));
  }
  const double scan_ms = Median(scan_s) * 1e3;
  const double contain_ms = Median(contain_s) * 1e3;
  std::printf("%-34s %12.2f %14s\n", "narrow probes, fleet re-scan",
              scan_ms, "1.0x");
  char label[64];
  std::snprintf(label, sizeof(label), "narrow probes, containment (%zu/%zu)",
                served_by_containment, probes.size());
  std::printf("%-34s %12.2f %13.1fx\n", label, contain_ms,
              scan_ms / contain_ms);

  // -- 3. epoch-bump miss cost -------------------------------------------
  // A mutation moves the store epoch: the next run pays a full re-scan
  // plus re-install, then the cache is warm again. Runs on the mutable
  // single-store fixture (sharded fleets expose shard stores const).
  MutableFleet& mut = SharedMutableFleet();
  const std::string count_sql = "SELECT COUNT(*) FROM photo WHERE r < 22";
  mut.Run(count_sql);
  std::vector<double> warm_s, miss_s;
  catalog::PhotoObj extra =
      mut.store.containers().begin()->second.columnar.MaterializeObject(0);
  for (int rep = 0; rep < kReps; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    mut.Run(count_sql);
    warm_s.push_back(std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
    extra.obj_id = 900'000'000 + static_cast<uint64_t>(rep);
    if (!mut.store.Insert(extra).ok()) std::abort();
    t0 = std::chrono::steady_clock::now();
    mut.Run(count_sql);
    miss_s.push_back(std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
  }
  std::printf("%-34s %12.2f %14s\n", "COUNT warm hit (1 store)",
              Median(warm_s) * 1e3, "-");
  std::printf("%-34s %12.2f %14s\n", "COUNT after epoch bump",
              Median(miss_s) * 1e3, "-");

  auto stats = fleet.cached->result_cache()->stats();
  auto mut_stats = mut.cached->result_cache()->stats();
  std::printf(
      "\nfleet cache: %llu hits, %llu containment, %llu misses; mutable\n"
      "store cache: %llu epoch invalidations. Shape check: hits skip the\n"
      "fleet entirely (>= 5x), containment pays only a filter over cached\n"
      "rows, and an epoch bump costs exactly one cold run before the\n"
      "cache re-warms.\n",
      static_cast<unsigned long long>(stats.hits),
      static_cast<unsigned long long>(stats.containment_hits),
      static_cast<unsigned long long>(stats.misses),
      static_cast<unsigned long long>(mut_stats.epoch_invalidations));
}

void BM_MixColdFanout(benchmark::State& state) {
  Fleet& fleet = SharedFleet();
  const auto mix = TypicalMix();
  for (auto _ : state) {
    benchmark::DoNotOptimize(TimeMix(fleet, fleet.cold.get(), mix));
  }
}
BENCHMARK(BM_MixColdFanout)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_MixCacheHit(benchmark::State& state) {
  Fleet& fleet = SharedFleet();
  const auto mix = TypicalMix();
  for (const auto& sql : mix) fleet.Run(fleet.cached.get(), sql);
  for (auto _ : state) {
    benchmark::DoNotOptimize(TimeMix(fleet, fleet.cached.get(), mix));
  }
}
BENCHMARK(BM_MixCacheHit)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ContainmentProbes(benchmark::State& state) {
  Fleet& fleet = SharedFleet();
  fleet.Run(fleet.cached.get(), kWideCone);
  const auto probes = ContainmentProbes();
  for (auto _ : state) {
    benchmark::DoNotOptimize(TimeMix(fleet, fleet.cached.get(), probes));
  }
}
BENCHMARK(BM_ContainmentProbes)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_EpochBumpMiss(benchmark::State& state) {
  MutableFleet& mut = SharedMutableFleet();
  const std::string sql = "SELECT COUNT(*) FROM photo WHERE r > 14";
  catalog::PhotoObj extra =
      mut.store.containers().begin()->second.columnar.MaterializeObject(0);
  uint64_t next_id = 910'000'000;
  mut.Run(sql);
  for (auto _ : state) {
    state.PauseTiming();
    extra.obj_id = next_id++;
    if (!mut.store.Insert(extra).ok()) std::abort();
    state.ResumeTiming();
    auto r = mut.Run(sql);
    benchmark::DoNotOptimize(r.aggregate_value);
  }
}
BENCHMARK(BM_EpochBumpMiss)->Unit(benchmark::kMillisecond)->UseRealTime();

query::Plan PlanOrDie(const ObjectStore& store, const std::string& sql) {
  auto parsed = query::Parse(sql);
  if (!parsed.ok()) std::abort();
  auto plan = query::BuildPlan(*parsed, store);
  if (!plan.ok()) std::abort();
  return std::move(*plan);
}

std::string OneDegreeCone(double ra, double dec) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "SELECT obj_id, r FROM photo WHERE CIRCLE(%.1f, %.1f, 1)",
                ra, dec);
  return buf;
}

void BM_CacheMissProbe(benchmark::State& state) {
  // Every entry passes the table, column and key checks, so the probe
  // runs the spatial test against all 128 before it misses.
  Fleet& fleet = SharedFleet();
  query::ResultCache cache;
  for (int i = 0; i < 128; ++i) {
    query::Plan entry = PlanOrDie(fleet.store, OneDegreeCone(2.5 * i, 0.0));
    cache.Install(query::ResultCache::Fingerprint(entry), entry, 1, {});
  }
  const query::Plan probe = PlanOrDie(fleet.store, OneDegreeCone(100, 40));
  const std::string fp = query::ResultCache::Fingerprint(probe);
  for (auto _ : state) {
    query::ResultCache::Answer ans;
    if (cache.TryAnswer(fp, probe, 1, &ans)) std::abort();
  }
}
BENCHMARK(BM_CacheMissProbe)->Unit(benchmark::kMicrosecond)->UseRealTime();

}  // namespace
}  // namespace sdss::bench

int main(int argc, char** argv) {
  sdss::bench::PrintC15();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
