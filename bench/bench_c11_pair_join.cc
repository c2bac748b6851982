// C11 -- the distributed spatial neighbor join.
//
// The C9 lens-candidate pair query executed two ways over the SAME sky:
// (A) the ClusterSim hash machine (the paper's standalone two-phase
// bucket demo) and (B) the federated fleet path -- ShardedStore +
// FederatedQueryEngine running the kPairJoin operator per shard with the
// boundary ghost exchange. Both drive the one dataflow::PairHasher core,
// so the delta is pure orchestration: scan plumbing, ghost shipping,
// merge + dedupe. The deterministic section also reports the exchange
// volume (bytes shipped vs scanned), the first observable of the
// network cost model.
//
// Baseline recording (the 1-core methodology: interleaved A/B with
// medians, never back-to-back one-sided runs):
//   ./build/bench/bench_c11_pair_join
//       --benchmark_enable_random_interleaving=true
//       --benchmark_repetitions=5
//       --benchmark_report_aggregates_only=true
//       --benchmark_out=BENCH_c11_pair_join.json
//       --benchmark_out_format=json
// (one command line; wrapped here for width)

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "archive/sharded_store.h"
#include "bench_util.h"
#include "catalog/photo_obj.h"
#include "dataflow/hash_machine.h"
#include "query/federated_engine.h"

namespace sdss::bench {
namespace {

using archive::ShardedStore;
using catalog::kNumBands;
using catalog::ObjectStore;
using catalog::PhotoObj;
using dataflow::ClusterConfig;
using dataflow::ClusterSim;
using dataflow::HashMachine;
using dataflow::HashReport;
using dataflow::PairSearchOptions;
using query::FederatedQueryEngine;
using query::Shard;

constexpr double kSepArcsec = 10.0;

/// The lens query, SQL form: pairs within 10 arcsec with identical g-r
/// and r-i colors to 0.05 mag (C9 (c) with the executor's either-
/// assignment semantics; symmetric, so roles do not matter).
const char kLensSql[] =
    "SELECT a.obj_id, b.obj_id, sep FROM photo AS a "
    "JOIN photo AS b WITHIN 10 ARCSEC "
    "WHERE a.g - a.r - b.g + b.r < 0.05 AND b.g - b.r - a.g + a.r < 0.05 "
    "AND a.r - a.i - b.r + b.i < 0.05 AND b.r - b.i - a.r + a.i < 0.05";

/// The same predicate, hash-machine form.
bool LensPair(const PhotoObj& a, const PhotoObj& b) {
  for (int i = 1; i < 3; ++i) {
    if (std::fabs((a.mag[i] - a.mag[i + 1]) - (b.mag[i] - b.mag[i + 1])) >=
        0.05) {
      return false;
    }
  }
  return true;
}

void PrintC11() {
  ObjectStore store = MakeBenchStore(0.5);
  PrintHeader("C11  Distributed neighbor join: hash machine vs the fleet");
  std::printf("catalog: %llu objects, lens pairs within %.0f arcsec\n\n",
              static_cast<unsigned long long>(store.object_count()),
              kSepArcsec);

  // (A) The standalone hash machine on a 20-node ClusterSim.
  ClusterConfig cfg;
  cfg.num_nodes = 20;
  ClusterSim cluster(cfg);
  (void)cluster.LoadPartitioned(store);
  HashMachine machine(&cluster);
  HashReport rep;
  auto t0 = std::chrono::steady_clock::now();
  auto pairs = machine.FindPairs([](const PhotoObj&) { return true; },
                                 kSepArcsec, LensPair, PairSearchOptions{},
                                 &rep);
  double machine_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf(
      "(A) ClusterSim hash machine: %zu pairs, %llu pair tests, "
      "%llu buckets, %.1f ms\n",
      pairs.size(), static_cast<unsigned long long>(rep.pair_tests),
      static_cast<unsigned long long>(rep.buckets), machine_s * 1e3);

  // (B) The same query through the federated fleet, 4 shards.
  ShardedStore sharded(store, {4, 2});
  auto shards = sharded.LiveShards();
  if (!shards.ok()) return;
  FederatedQueryEngine fed(*shards);
  t0 = std::chrono::steady_clock::now();
  auto result = fed.Execute(kLensSql);
  double fed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (!result.ok()) {
    std::printf("federated join failed: %s\n",
                result.status().ToString().c_str());
    return;
  }
  std::printf(
      "(B) federated fleet (4 shards): %zu pairs, %.1f ms; "
      "%llu bytes scanned, %llu bytes shipped (%.2f%% ghost traffic)\n",
      result->rows.size(), fed_s * 1e3,
      static_cast<unsigned long long>(result->exec.bytes_touched),
      static_cast<unsigned long long>(result->exec.bytes_shipped),
      result->exec.bytes_touched > 0
          ? 100.0 * static_cast<double>(result->exec.bytes_shipped) /
                static_cast<double>(result->exec.bytes_touched)
          : 0.0);
  std::printf(
      "\nShape check: identical pair sets from one PairHasher core; the "
      "fleet pays\nonly the boundary ghost band for distribution, a few "
      "percent of scanned bytes.\n");
}

void BM_ClusterHashMachine(benchmark::State& state) {
  ObjectStore store = MakeBenchStore(0.3);
  ClusterConfig cfg;
  cfg.num_nodes = 8;
  ClusterSim cluster(cfg);
  (void)cluster.LoadPartitioned(store);
  HashMachine machine(&cluster);
  for (auto _ : state) {
    auto pairs = machine.FindPairs([](const PhotoObj&) { return true; },
                                   kSepArcsec, LensPair,
                                   PairSearchOptions{});
    benchmark::DoNotOptimize(pairs.size());
  }
}
BENCHMARK(BM_ClusterHashMachine)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_SingleStoreJoin(benchmark::State& state) {
  ObjectStore store = MakeBenchStore(0.3);
  FederatedQueryEngine engine({Shard{0, &store, nullptr}});
  for (auto _ : state) {
    auto r = engine.Execute(kLensSql);
    benchmark::DoNotOptimize(r->rows.size());
  }
}
BENCHMARK(BM_SingleStoreJoin)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_FleetPairJoin(benchmark::State& state) {
  size_t servers = static_cast<size_t>(state.range(0));
  ObjectStore store = MakeBenchStore(0.3);
  ShardedStore sharded(store, {servers, 2});
  auto shards = sharded.LiveShards();
  if (!shards.ok()) {
    state.SkipWithError("no live shards");
    return;
  }
  FederatedQueryEngine fed(*shards);
  uint64_t shipped = 0;
  for (auto _ : state) {
    auto r = fed.Execute(kLensSql);
    benchmark::DoNotOptimize(r->rows.size());
    shipped = r->exec.bytes_shipped;
  }
  state.counters["bytes_shipped"] =
      benchmark::Counter(static_cast<double>(shipped));
}
BENCHMARK(BM_FleetPairJoin)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace sdss::bench

int main(int argc, char** argv) {
  sdss::bench::PrintC11();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
