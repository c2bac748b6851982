// C5 -- the river claim: "The simplest river systems are sorting
// networks. Current systems have demonstrated that they can sort at about
// 100 MBps using commodity hardware and 5 GBps if using thousands of
// nodes and disks [Sort]."
//
// The archive's sorting network is an ORDER BY over an
// archive::ShardedStore fleet: every server sorts the slice it serves
// and the ordered GATHER k-way merges the sorted streams. We sort the
// whole catalog that way and report modeled throughput vs server count,
// plus a filtering pass representing the general dataflow-analysis
// pattern.

#include <benchmark/benchmark.h>

#include <chrono>
#include <unordered_set>

#include "archive/sharded_store.h"
#include "bench_util.h"
#include "query/federated_engine.h"

namespace sdss::bench {
namespace {

using archive::ShardedStore;
using catalog::ObjectStore;
using query::FederatedQueryEngine;

constexpr char kSortSql[] = "SELECT obj_id, r FROM photo ORDER BY r";

/// True when `rows` (obj_id, r) are in ascending r and hold each of the
/// catalog's `objects` exactly once.
bool OrderedAndComplete(const query::RowBatch& rows, uint64_t objects) {
  std::unordered_set<uint64_t> ids;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0 && rows[i].values[1] < rows[i - 1].values[1]) return false;
    ids.insert(rows[i].obj_id);
  }
  return rows.size() == objects && ids.size() == objects;
}

void PrintC5() {
  ObjectStore store = MakeBenchStore(1.0);
  const uint64_t bytes =
      store.object_count() * catalog::kPaperBytesPerPhotoObj;

  PrintHeader("C5  River dataflow: parallel sorting-network throughput");
  std::printf("records: %llu (paper-scale bytes: %s)\n\n",
              static_cast<unsigned long long>(store.object_count()),
              FormatBytes(bytes).c_str());
  std::printf("%7s %16s %14s %16s\n", "servers", "modeled rate",
              "sim time", "real cpu time");
  for (size_t servers : {1, 2, 4, 8, 16}) {
    ShardedStore sharded(store, {servers, 2});
    auto shards = sharded.LiveShards();
    if (!shards.ok()) return;
    FederatedQueryEngine fed(*shards);
    const auto t0 = std::chrono::steady_clock::now();
    auto sorted = fed.Execute(kSortSql);
    const double real_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
    if (!sorted.ok()) {
      std::printf("sort failed: %s\n", sorted.status().ToString().c_str());
      return;
    }
    const SimSeconds sim = PaperFleetSeconds(*shards).scan;
    std::printf("%7zu %11.0f MB/s %14s %13.0f ms  %s\n", servers,
                sim > 0 ? static_cast<double>(bytes) / 1e6 / sim : 0.0,
                FormatSimDuration(sim).c_str(), real_s * 1e3,
                OrderedAndComplete(sorted->rows, store.object_count())
                    ? "[ordered, complete]"
                    : "[ERROR]");
  }
  std::printf(
      "\nShape check: ~1 server sorts at the single-machine ~100-150 MB/s "
      "scale of the\nSort Benchmark era; throughput scales near-linearly "
      "with servers, the river premise.\n");

  // A general analysis pass: the filter runs inside every server's scan.
  ShardedStore sharded(store, {8, 2});
  auto shards = sharded.LiveShards();
  if (!shards.ok()) return;
  FederatedQueryEngine fed(*shards);
  auto galaxies = fed.Execute(
      "SELECT COUNT(*) FROM photo WHERE class = 'GALAXY' AND r < 21");
  if (!galaxies.ok()) return;
  std::printf(
      "\nAnalysis river (filter on 8 servers): %.0f of %llu records "
      "reached the\nanalysis sink in one modeled pass (%s).\n",
      galaxies->aggregate_value,
      static_cast<unsigned long long>(store.object_count()),
      FormatSimDuration(PaperFleetSeconds(*shards).scan).c_str());
}

void BM_RiverSort(benchmark::State& state) {
  ObjectStore store = MakeBenchStore(0.5);
  ShardedStore sharded(store, {static_cast<size_t>(state.range(0)), 2});
  auto shards = sharded.LiveShards();
  if (!shards.ok()) {
    state.SkipWithError("no live shards");
    return;
  }
  FederatedQueryEngine fed(*shards);
  for (auto _ : state) {
    auto r = fed.Execute(kSortSql);
    benchmark::DoNotOptimize(r->rows.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(store.object_count()));
}
BENCHMARK(BM_RiverSort)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_RiverFilterPipeline(benchmark::State& state) {
  ObjectStore store = MakeBenchStore(0.5);
  ShardedStore sharded(store, {8, 2});
  auto shards = sharded.LiveShards();
  if (!shards.ok()) {
    state.SkipWithError("no live shards");
    return;
  }
  FederatedQueryEngine fed(*shards);
  for (auto _ : state) {
    auto r = fed.Execute("SELECT obj_id FROM photo WHERE r < 20");
    benchmark::DoNotOptimize(r->rows.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(store.object_count()));
}
BENCHMARK(BM_RiverFilterPipeline)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace sdss::bench

int main(int argc, char** argv) {
  sdss::bench::PrintC5();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
