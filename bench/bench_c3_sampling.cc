// C3 -- the sampling claim: "We also plan to offer a 1% sample (about 10
// GB) of the whole database that can be used to quickly test and debug
// programs. Combining partitioning and sampling converts a 2 TB data set
// into 2 gigabytes, which can fit comfortably on desktop workstations."
//
// We build the 1% sample, report its size reduction (alone and combined
// with the tag vertical partition), the query speedup, and the accuracy
// of estimates extrapolated from the sample.

#include <benchmark/benchmark.h>

#include <cmath>

#include "bench_util.h"
#include "query/federated_engine.h"

namespace sdss::bench {
namespace {

using catalog::kPaperBytesPerPhotoObj;
using catalog::kPaperBytesPerTagObj;
using catalog::ObjectStore;
using query::FederatedQueryEngine;
using query::Shard;

void PrintC3() {
  ObjectStore store = MakeBenchStore(1.0);
  ObjectStore sample = store.Sample(0.01, 2718);

  PrintHeader("C3  1% sampling: desktop-scale debugging subsets");
  double full_tb = static_cast<double>(store.object_count()) *
                   kPaperBytesPerPhotoObj;
  double sample_b = static_cast<double>(sample.object_count()) *
                    kPaperBytesPerPhotoObj;
  double sample_tag_b = static_cast<double>(sample.object_count()) *
                        kPaperBytesPerTagObj;
  std::printf("objects: %llu -> %llu (%.3f%%)\n",
              static_cast<unsigned long long>(store.object_count()),
              static_cast<unsigned long long>(sample.object_count()),
              100.0 * static_cast<double>(sample.object_count()) /
                  static_cast<double>(store.object_count()));
  std::printf("paper-scale bytes: %s -> %s (sample) -> %s (sample + tag "
              "partition)\n",
              FormatBytes(static_cast<uint64_t>(full_tb)).c_str(),
              FormatBytes(static_cast<uint64_t>(sample_b)).c_str(),
              FormatBytes(static_cast<uint64_t>(sample_tag_b)).c_str());
  std::printf("combined reduction: %.0fx (the paper's 2 TB -> 2 GB)\n\n",
              full_tb / sample_tag_b);

  // Estimate accuracy: selectivities estimated on the sample vs truth.
  FederatedQueryEngine full_engine({Shard{0, &store, nullptr}});
  FederatedQueryEngine sample_engine({Shard{0, &sample, nullptr}});
  const char* queries[] = {
      "SELECT COUNT(*) FROM photo WHERE r < 20",
      "SELECT COUNT(*) FROM photo WHERE g - r > 0.8",
      "SELECT COUNT(*) FROM photo WHERE class = 3 AND u - g < 0.2",
      "SELECT COUNT(*) FROM photo WHERE size > 3 AND r < 21",
  };
  std::printf("%-52s %10s %12s %8s\n", "query", "true",
              "est (x100)", "err");
  for (const char* sql : queries) {
    auto t = full_engine.Execute(sql);
    auto s = sample_engine.Execute(sql);
    if (!t.ok() || !s.ok()) continue;
    double est = s->aggregate_value * 100.0;
    double err = t->aggregate_value > 0
                     ? std::fabs(est - t->aggregate_value) /
                           t->aggregate_value
                     : 0.0;
    std::printf("%-52.52s %10.0f %12.0f %7.1f%%\n", sql,
                t->aggregate_value, est, err * 100.0);
  }
  std::printf(
      "\nShape check: two-orders-of-magnitude shrink with percent-level "
      "estimate error\non common-object queries -- debug on the desktop, "
      "run the real query on the server.\n");
}

void BM_FullCatalogQuery(benchmark::State& state) {
  ObjectStore store = MakeBenchStore(1.0);
  FederatedQueryEngine engine({Shard{0, &store, nullptr}});
  for (auto _ : state) {
    auto r = engine.Execute(
        "SELECT COUNT(*) FROM photo WHERE g - r > 0.8 AND r < 21");
    benchmark::DoNotOptimize(r->aggregate_value);
  }
}
BENCHMARK(BM_FullCatalogQuery)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_SampleQuery(benchmark::State& state) {
  ObjectStore store = MakeBenchStore(1.0);
  ObjectStore sample = store.Sample(0.01, 2718);
  FederatedQueryEngine engine({Shard{0, &sample, nullptr}});
  for (auto _ : state) {
    auto r = engine.Execute(
        "SELECT COUNT(*) FROM photo WHERE g - r > 0.8 AND r < 21");
    benchmark::DoNotOptimize(r->aggregate_value);
  }
}
BENCHMARK(BM_SampleQuery)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_SampleConstruction(benchmark::State& state) {
  ObjectStore store = MakeBenchStore(0.5);
  for (auto _ : state) {
    ObjectStore sample = store.Sample(0.01, 7);
    benchmark::DoNotOptimize(sample.object_count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(store.object_count()));
}
BENCHMARK(BM_SampleConstruction)->Unit(benchmark::kMillisecond);

// The SAMPLE query clause (Bernoulli sampling inside the scan).
void BM_SampleClause(benchmark::State& state) {
  ObjectStore store = MakeBenchStore(0.5);
  FederatedQueryEngine engine({Shard{0, &store, nullptr}});
  for (auto _ : state) {
    auto r = engine.Execute(
        "SELECT COUNT(*) FROM photo WHERE r < 21 SAMPLE 0.01");
    benchmark::DoNotOptimize(r->aggregate_value);
  }
}
BENCHMARK(BM_SampleClause)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace sdss::bench

int main(int argc, char** argv) {
  sdss::bench::PrintC3();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
