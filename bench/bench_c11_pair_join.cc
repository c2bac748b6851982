// C11 -- the distributed spatial neighbor join.
//
// The C9 lens-candidate pair query executed two ways over the SAME sky:
// (A) the one-store engine, the executor's kPairJoin operator over the
// whole catalog, and (B) the federated fleet path -- ShardedStore +
// FederatedQueryEngine running the kPairJoin operator per shard with the
// boundary ghost exchange. Both drive the one dataflow::PairHasher core
// and must return the same pair set, so the delta is pure
// orchestration: ghost shipping, merge + dedupe. The deterministic
// section also reports the exchange volume (bytes shipped vs scanned),
// the first observable of the network cost model. BM_CapTrixels/L and
// BM_CapCover/L time the per-object step both paths share: the trixels
// a 10 arcsec cap touches at the container level (6, the ghost harvest)
// and the bucket level (12, the hasher), by htm::ForEachTrixelNearPoint
// and by the full htm::Cover it falls back to.
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
#include <cstdio>
#include <vector>

#include "archive/sharded_store.h"
#include "bench_util.h"
#include "htm/cover.h"
#include "query/federated_engine.h"

namespace sdss::bench {
namespace {

using archive::ShardedStore;
using catalog::ObjectStore;
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

void PrintC11() {
  ObjectStore store = MakeBenchStore(0.5);
  PrintHeader("C11  Distributed neighbor join: one store vs the fleet");
  std::printf("catalog: %llu objects, lens pairs within %.0f arcsec\n\n",
              static_cast<unsigned long long>(store.object_count()),
              kSepArcsec);

  // (A) The one-store engine over the whole catalog.
  FederatedQueryEngine engine({Shard{0, &store, nullptr}});
  auto t0 = std::chrono::steady_clock::now();
  auto single = engine.Execute(kLensSql);
  double single_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (!single.ok()) {
    std::printf("one-store join failed: %s\n",
                single.status().ToString().c_str());
    return;
  }
  std::printf("(A) one-store engine: %zu pairs, %llu pair tests, %.1f ms\n",
              single->rows.size(),
              static_cast<unsigned long long>(single->exec.pair_tests),
              single_s * 1e3);

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
      "%llu bytes scanned, %llu bytes shipped (%.2f%% ghost traffic)  %s\n",
      result->rows.size(), fed_s * 1e3,
      static_cast<unsigned long long>(result->exec.bytes_touched),
      static_cast<unsigned long long>(result->exec.bytes_shipped),
      result->exec.bytes_touched > 0
          ? 100.0 * static_cast<double>(result->exec.bytes_shipped) /
                static_cast<double>(result->exec.bytes_touched)
          : 0.0,
      ResultPairs(*result) == ResultPairs(*single) ? "[= one store]"
                                                   : "[MISMATCH]");
  std::printf(
      "\nShape check: identical pair sets from one PairHasher core; the "
      "fleet pays\nonly the boundary ghost band for distribution, a few "
      "percent of scanned bytes.\n");
}

/// Reports how many containers the last join read and how many of
/// those ran the columnar scan kernel (every one, since phase 1 filters
/// on it).
void ReportKernelCounters(benchmark::State& state,
                          const query::ExecStats& exec) {
  state.counters["containers_scanned"] =
      static_cast<double>(exec.containers_scanned);
  state.counters["columnar_containers"] =
      static_cast<double>(exec.containers_columnar);
}

void BM_SingleStoreJoin(benchmark::State& state) {
  ObjectStore store = MakeBenchStore(0.3);
  FederatedQueryEngine engine({Shard{0, &store, nullptr}});
  query::ExecStats exec;
  for (auto _ : state) {
    auto r = engine.Execute(kLensSql);
    benchmark::DoNotOptimize(r->rows.size());
    exec = r->exec;
  }
  ReportKernelCounters(state, exec);
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
  query::ExecStats exec;
  for (auto _ : state) {
    auto r = fed.Execute(kLensSql);
    benchmark::DoNotOptimize(r->rows.size());
    exec = r->exec;
  }
  state.counters["bytes_shipped"] =
      benchmark::Counter(static_cast<double>(exec.bytes_shipped));
  ReportKernelCounters(state, exec);
}
BENCHMARK(BM_FleetPairJoin)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// The first 4096 object positions of the 0.3-scale bench sky: the cap
/// centres the join's phase 1 hands to the hasher and the harvest.
const std::vector<Vec3>& CapCentres() {
  static const std::vector<Vec3> centres = [] {
    std::vector<Vec3> out;
    MakeBenchStore(0.3).ForEachObject([&out](const catalog::PhotoObj& o) {
      if (out.size() < 4096) out.push_back(o.pos);
    });
    return out;
  }();
  return centres;
}

/// Times one per-object trixel rule over CapCentres(); `emit(p, level,
/// fn)` calls fn(raw) per id. Reports ids per cap and the share of caps
/// that touch only one trixel.
template <typename Emit>
void RunCapBench(benchmark::State& state, Emit emit) {
  const int level = static_cast<int>(state.range(0));
  const std::vector<Vec3>& centres = CapCentres();
  uint64_t ids = 0, single = 0;
  for (auto _ : state) {
    ids = single = 0;
    for (const Vec3& p : centres) {
      uint64_t n = 0;
      emit(p, level, [&n](uint64_t) { ++n; });
      ids += n;
      single += n == 1 ? 1 : 0;
    }
    benchmark::DoNotOptimize(ids);
  }
  const double caps = static_cast<double>(centres.size());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(centres.size()));
  state.counters["ids_per_cap"] = static_cast<double>(ids) / caps;
  state.counters["single_trixel_share"] = static_cast<double>(single) / caps;
}

void BM_CapTrixels(benchmark::State& state) {
  const double sep_deg = ArcsecToDeg(kSepArcsec);
  RunCapBench(state, [sep_deg](const Vec3& p, int level, auto&& fn) {
    htm::ForEachTrixelNearPoint(p, sep_deg, level, fn);
  });
}
BENCHMARK(BM_CapTrixels)->Arg(6)->Arg(12)->Unit(benchmark::kMicrosecond);

void BM_CapCover(benchmark::State& state) {
  const double sep_deg = ArcsecToDeg(kSepArcsec);
  RunCapBench(state, [sep_deg](const Vec3& p, int level, auto&& fn) {
    htm::ForEachRawInCover(
        htm::Cover(htm::Region::CircleAround(p, sep_deg), level), level, fn);
  });
}
BENCHMARK(BM_CapCover)->Arg(6)->Arg(12)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace sdss::bench

int main(int argc, char** argv) {
  sdss::bench::PrintC11();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
