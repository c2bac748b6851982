// C2 -- the tag-object claim: "We plan to isolate the 10 most popular
// attributes into small 'tag' objects ... These will occupy much less
// space, thus can be searched more than 10 times faster, if no other
// attributes are involved in the query."
//
// We run identical predicates through the query engine against the full
// photometric rows and against the tag vertical partition, and report
// bytes touched (the I/O the paper's ratio is about) plus measured CPU
// scan time. The bytes ratio at paper row sizes is the headline number.

#include <benchmark/benchmark.h>

#include <chrono>

#include "bench_util.h"
#include "query/federated_engine.h"

namespace sdss::bench {
namespace {

using catalog::kPaperBytesPerPhotoObj;
using catalog::kPaperBytesPerTagObj;
using catalog::ObjectStore;
using query::FederatedQueryEngine;
using query::Shard;

void PrintC2() {
  ObjectStore store = MakeBenchStore(1.0);

  FederatedQueryEngine::Options tag_opt;
  tag_opt.planner.auto_tag_selection = true;
  FederatedQueryEngine::Options full_opt;
  full_opt.planner.auto_tag_selection = false;
  FederatedQueryEngine tag_engine({Shard{0, &store, nullptr}}, tag_opt);
  FederatedQueryEngine full_engine({Shard{0, &store, nullptr}}, full_opt);

  const char* queries[] = {
      "SELECT COUNT(*) FROM photo WHERE r < 19",
      "SELECT COUNT(*) FROM photo WHERE g - r > 0.8 AND r < 21",
      "SELECT COUNT(*) FROM photo WHERE u - g < 0.2 AND class = 3",
      "SELECT COUNT(*) FROM photo WHERE size > 5 AND class = 2",
  };

  PrintHeader("C2  Tag objects: full rows vs the 10-attribute partition");
  std::printf("paper row budget: full %llu B vs tag %llu B -> I/O ratio "
              "%.1fx\n\n",
              static_cast<unsigned long long>(kPaperBytesPerPhotoObj),
              static_cast<unsigned long long>(kPaperBytesPerTagObj),
              static_cast<double>(kPaperBytesPerPhotoObj) /
                  static_cast<double>(kPaperBytesPerTagObj));
  std::printf("%-52s %10s %12s %12s %8s\n", "query", "rows",
              "full bytes", "tag bytes", "ratio");
  for (const char* sql : queries) {
    auto full = full_engine.Execute(sql);
    auto tag = tag_engine.Execute(sql);
    if (!full.ok() || !tag.ok()) continue;
    // Scale in-memory bytes to paper row sizes.
    double full_b = static_cast<double>(full->exec.objects_examined) *
                    kPaperBytesPerPhotoObj;
    double tag_b = static_cast<double>(tag->exec.objects_examined) *
                   kPaperBytesPerTagObj;
    std::printf("%-52.52s %10.0f %12s %12s %7.1fx\n", sql,
                full->aggregate_value,
                FormatBytes(static_cast<uint64_t>(full_b)).c_str(),
                FormatBytes(static_cast<uint64_t>(tag_b)).c_str(),
                full_b / tag_b);
    if (full->aggregate_value != tag->aggregate_value) {
      std::printf("  !! result mismatch: full %.0f vs tag %.0f\n",
                  full->aggregate_value, tag->aggregate_value);
    }
  }
  std::printf(
      "\nShape check: every tag-only query touches >10x fewer bytes -- "
      "the 'searched\nmore than 10 times faster' claim at I/O-bound "
      "scan rates.\n");

  // Measured wall-clock on this host (memory-bandwidth bound, so the
  // ratio is smaller than the disk-bound paper ratio but > 1).
  auto time_query = [](FederatedQueryEngine& eng, const char* sql) {
    auto t0 = std::chrono::steady_clock::now();
    auto r = eng.Execute(sql);
    (void)r;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  double t_full = 0, t_tag = 0;
  for (int i = 0; i < 3; ++i) {
    t_full += time_query(full_engine, queries[0]);
    t_tag += time_query(tag_engine, queries[0]);
  }
  std::printf("measured in-memory scan time: full %.1f ms vs tag %.1f ms "
              "(%.1fx)\n",
              t_full / 3 * 1e3, t_tag / 3 * 1e3, t_full / t_tag);
}

void BM_FullStoreScan(benchmark::State& state) {
  ObjectStore store = MakeBenchStore(0.5);
  FederatedQueryEngine::Options opt;
  opt.planner.auto_tag_selection = false;
  FederatedQueryEngine engine({Shard{0, &store, nullptr}}, opt);
  for (auto _ : state) {
    auto r = engine.Execute("SELECT COUNT(*) FROM photo WHERE r < 19");
    benchmark::DoNotOptimize(r->aggregate_value);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(store.object_count()));
}
BENCHMARK(BM_FullStoreScan)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_TagStoreScan(benchmark::State& state) {
  ObjectStore store = MakeBenchStore(0.5);
  FederatedQueryEngine engine({Shard{0, &store, nullptr}});
  for (auto _ : state) {
    auto r = engine.Execute("SELECT COUNT(*) FROM tag WHERE r < 19");
    benchmark::DoNotOptimize(r->aggregate_value);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(store.object_count()));
}
BENCHMARK(BM_TagStoreScan)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace sdss::bench

int main(int argc, char** argv) {
  sdss::bench::PrintC2();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
