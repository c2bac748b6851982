// C9 -- the paper's three "typical queries":
//   (a) finding charts: "fairly complex queries on position, colors, and
//       other parts of the attribute space";
//   (b) "find all the quasars brighter than r=22, which have a faint blue
//       galaxy within 5 arcsec on the sky" (non-local / join query);
//   (c) "find objects within 10 arcsec of each other which have identical
//       colors, but may have a different brightness" (gravitational
//       lens, high-dimensional pair query).
//
// (a) runs on the query engine with HTM pruning; (b) and (c) run as
// JOIN ... WITHIN SQL -- the paper's hash machine -- on a 20-server
// archive::ShardedStore fleet. We report end-to-end latency and objects
// touched, with the paper-hardware model's survey-scale extrapolation.

#include <benchmark/benchmark.h>

#include <chrono>
#include <filesystem>
#include <string>

#include "archive/sharded_store.h"
#include "bench_util.h"
#include "core/angle.h"
#include "core/coords.h"
#include "core/random.h"
#include "persist/snapshot.h"
#include "query/federated_engine.h"

namespace sdss::bench {
namespace {

using archive::ShardedStore;
using catalog::kNumBands;
using catalog::ObjClass;
using catalog::ObjectStore;
using catalog::PhotoObj;
using query::FederatedQueryEngine;
using query::Shard;

void PrintC9() {
  // Sky salted with quasar+faint-blue-galaxy pairs and lens images.
  auto objs = catalog::SkyGenerator(BenchSkyModel(1.0)).Generate();
  Rng rng(31415);
  uint64_t next_id = 80'000'000;
  uint64_t planted_neighbors = 0, planted_lenses = 0;
  std::vector<PhotoObj> extra;
  for (const auto& o : objs) {
    if (o.obj_class != ObjClass::kQuasar) continue;
    if (rng.Bernoulli(0.15)) {
      // A faint blue galaxy within 5 arcsec.
      PhotoObj g = o;
      g.obj_id = next_id++;
      g.obj_class = ObjClass::kGalaxy;
      g.pos = rng.UnitCap(o.pos, ArcsecToRad(4.0)).Normalized();
      SphericalFromUnitVector(g.pos, &g.ra_deg, &g.dec_deg);
      g.mag[2] = static_cast<float>(rng.Uniform(21.0, 23.0));  // Faint.
      g.mag[1] = g.mag[2] + 0.2f;                              // Blue g-r.
      g.mag[0] = g.mag[1] + 0.6f;
      extra.push_back(g);
      ++planted_neighbors;
    }
    if (rng.Bernoulli(0.1)) {
      PhotoObj image = o;
      image.obj_id = next_id++;
      image.pos = rng.UnitCap(o.pos, ArcsecToRad(8.0)).Normalized();
      SphericalFromUnitVector(image.pos, &image.ra_deg, &image.dec_deg);
      for (int b = 0; b < kNumBands; ++b) image.mag[b] += 1.0f;
      extra.push_back(image);
      ++planted_lenses;
    }
  }
  objs.insert(objs.end(), extra.begin(), extra.end());
  ObjectStore store;
  (void)store.BulkLoad(std::move(objs));
  double survey_factor = SurveyScaleFactor(store.object_count());

  PrintHeader("C9  The paper's three typical queries, end to end");
  std::printf("catalog: %llu objects (planted: %llu QSO+faint-blue "
              "neighbors, %llu lens images)\n\n",
              static_cast<unsigned long long>(store.object_count()),
              static_cast<unsigned long long>(planted_neighbors),
              static_cast<unsigned long long>(planted_lenses));

  // (a) Finding chart: cone + color + class cuts.
  FederatedQueryEngine engine({Shard{0, &store, nullptr}});
  SphericalCoord c = ToSpherical(
      EquatorialUnitVector({0.0, 90.0, Frame::kGalactic}),
      Frame::kEquatorial);
  char sql[256];
  std::snprintf(sql, sizeof(sql),
                "SELECT obj_id, ra, dec, r FROM photo WHERE "
                "CIRCLE(%.4f, %.4f, 1.5) AND r < 22 AND g - r < 1.2",
                c.lon_deg, c.lat_deg);
  auto t0 = std::chrono::steady_clock::now();
  auto chart = engine.Execute(sql);
  double chart_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (chart.ok()) {
    std::printf(
        "(a) finding chart (1.5 deg cone + color cuts):\n"
        "    %zu objects in %.1f ms; %llu of %llu objects examined "
        "(%.2f%%)\n\n",
        chart->rows.size(), chart_s * 1e3,
        static_cast<unsigned long long>(chart->exec.objects_examined),
        static_cast<unsigned long long>(store.object_count()),
        100.0 * static_cast<double>(chart->exec.objects_examined) /
            static_cast<double>(store.object_count()));
  }

  // (b) Quasars with a faint blue galaxy within 5 arcsec: a pair query
  // with asymmetric roles, on the fleet.
  ShardedStore sharded(store, {20, 2});
  auto shards = sharded.LiveShards();
  if (!shards.ok()) return;
  FederatedQueryEngine fleet(*shards);
  auto pairs_b = fleet.Execute(
      "SELECT a.obj_id, b.obj_id, sep FROM photo AS a "
      "JOIN photo AS b WITHIN 5 ARCSEC "
      "WHERE a.class = 'QSO' AND a.r < 22 AND "
      "b.class = 'GALAXY' AND b.r > 20.5 AND b.g - b.r < 0.5");
  if (!pairs_b.ok()) {
    std::printf("(b) failed: %s\n", pairs_b.status().ToString().c_str());
    return;
  }
  const PaperFleetTime time_b =
      PaperFleetSeconds(*shards, pairs_b->exec.pair_tests);
  std::printf(
      "(b) quasars (r<22) with a faint blue galaxy within 5 arcsec:\n"
      "    %zu pairs found (>= %llu planted); %llu objects scanned, "
      "%llu pair tests;\n    modeled %s demo / %s at survey scale\n\n",
      pairs_b->rows.size(),
      static_cast<unsigned long long>(planted_neighbors),
      static_cast<unsigned long long>(pairs_b->exec.objects_examined),
      static_cast<unsigned long long>(pairs_b->exec.pair_tests),
      FormatSimDuration(time_b.total()).c_str(),
      FormatSimDuration(time_b.total() * survey_factor).c_str());

  // (c) Gravitational lenses: within 10 arcsec, identical colors.
  std::string lens_sql =
      "SELECT a.obj_id, b.obj_id, sep FROM photo AS a "
      "JOIN photo AS b WITHIN 10 ARCSEC WHERE ";
  lens_sql += kIdenticalColorsSql;
  auto pairs_c = fleet.Execute(lens_sql);
  if (!pairs_c.ok()) {
    std::printf("(c) failed: %s\n", pairs_c.status().ToString().c_str());
    return;
  }
  const PaperFleetTime time_c =
      PaperFleetSeconds(*shards, pairs_c->exec.pair_tests);
  std::printf(
      "(c) lens candidates (10 arcsec, identical colors, any "
      "brightness):\n"
      "    %zu pairs (>= %llu planted); %llu pair tests, %s of boundary "
      "ghosts shipped;\n    modeled %s demo / %s at survey scale\n",
      pairs_c->rows.size(),
      static_cast<unsigned long long>(planted_lenses),
      static_cast<unsigned long long>(pairs_c->exec.pair_tests),
      FormatBytes(pairs_c->exec.bytes_shipped).c_str(),
      FormatSimDuration(time_c.total()).c_str(),
      FormatSimDuration(time_c.total() * survey_factor).c_str());
  std::printf(
      "\nShape check: (a) answers in interactive time touching <1%% of "
      "the catalog;\n(b) and (c) run as bucketed pair searches in minutes "
      "at survey scale, not the\nhours/days a quadratic or unindexed "
      "approach would need.\n");
}

void BM_FindingChart(benchmark::State& state) {
  ObjectStore store = MakeBenchStore(0.5);
  FederatedQueryEngine engine({Shard{0, &store, nullptr}});
  SphericalCoord c = ToSpherical(
      EquatorialUnitVector({0.0, 90.0, Frame::kGalactic}),
      Frame::kEquatorial);
  char sql[256];
  std::snprintf(sql, sizeof(sql),
                "SELECT obj_id, ra, dec, r FROM photo WHERE "
                "CIRCLE(%.4f, %.4f, 0.5) AND r < 21",
                c.lon_deg, c.lat_deg);
  for (auto _ : state) {
    auto r = engine.Execute(sql);
    benchmark::DoNotOptimize(r->rows.size());
  }
}
BENCHMARK(BM_FindingChart)->Unit(benchmark::kMicrosecond)->UseRealTime();

// --- Columnar scan kernel ------------------------------------------
//
// The scan-bound cases below run SQL through the mapped snapshot store
// on the columnar kernel (per-container column arrays streamed in
// chunks). Single scan thread and no tag rewrite, so the figures are the
// kernel's over the full photo columns.

/// Snapshot of the canonical bench sky on disk; written once, shared by
/// the mapped-store and cold-start benchmarks.
const std::string& BenchSnapshotPath() {
  static const std::string* path = [] {
    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() / "sdss_bench_c9";
    fs::create_directories(dir);
    auto* p = new std::string((dir / "sky.snap").string());
    ObjectStore store = MakeBenchStore(1.0);
    persist::SnapshotWriter writer(*p);
    Status s = writer.Write(store);
    if (!s.ok()) std::fprintf(stderr, "snapshot: %s\n", s.ToString().c_str());
    return p;
  }();
  return *path;
}

/// The shared mmap-backed store (columnar containers, no rebuilt rows).
ObjectStore& MappedBenchStore() {
  static ObjectStore* store = [] {
    auto mapped = persist::MapSnapshotStore(BenchSnapshotPath());
    return new ObjectStore(std::move(*mapped));
  }();
  return *store;
}

query::FederatedQueryEngine::Options ScanOptions() {
  query::FederatedQueryEngine::Options opt;
  // Pin the scan to the full photo columns and one thread.
  opt.planner.auto_tag_selection = false;
  opt.executor.scan_threads = 1;
  return opt;
}

void ScanBench(benchmark::State& state, const char* sql) {
  FederatedQueryEngine engine({Shard{0, &MappedBenchStore(), nullptr}},
                              ScanOptions());
  // Warm up: first touch faults the mapped pages in.
  { auto warm = engine.Execute(sql); benchmark::DoNotOptimize(warm.ok()); }
  for (auto _ : state) {
    auto r = engine.Execute(sql);
    benchmark::DoNotOptimize(r->exec.objects_examined);
  }
  state.counters["columnar_containers"] = static_cast<double>(
      engine.Execute(sql)->exec.containers_columnar);
}

constexpr char kScanFilterSql[] =
    "SELECT obj_id, r FROM photo WHERE g - r > 1.4 AND r < 20.5";
constexpr char kScanCountSql[] =
    "SELECT COUNT(*) FROM photo WHERE g - r > 0.6 AND r < 21.5";
constexpr char kScanAvgSql[] =
    "SELECT AVG(g) FROM photo WHERE class = 'GALAXY'";

void BM_ScanFilterColumnar(benchmark::State& state) {
  ScanBench(state, kScanFilterSql);
}
BENCHMARK(BM_ScanFilterColumnar)->Unit(benchmark::kMicrosecond)->UseRealTime();

void BM_ScanCountColumnar(benchmark::State& state) {
  ScanBench(state, kScanCountSql);
}
BENCHMARK(BM_ScanCountColumnar)->Unit(benchmark::kMicrosecond)->UseRealTime();

void BM_ScanAvgColumnar(benchmark::State& state) {
  ScanBench(state, kScanAvgSql);
}
BENCHMARK(BM_ScanAvgColumnar)->Unit(benchmark::kMicrosecond)->UseRealTime();

// The served mining workload's two full-catalog sweep shapes on a
// 4-server, 2-replica fleet over the same sky, with the served
// engine's default options (scan thread count, tag selection): the data
// pump's parallel aggregate pushdown, where a sweep should pay for the
// rows it scans rather than for per-container bookkeeping.
void BM_ScanFleetSweep(benchmark::State& state, const char* sql) {
  static ShardedStore* sharded = new ShardedStore(MappedBenchStore(), {4, 2});
  auto shards = sharded->LiveShards();
  if (!shards.ok()) {
    state.SkipWithError("no live shards");
    return;
  }
  FederatedQueryEngine fleet(*shards);
  for (auto _ : state) {
    auto r = fleet.Execute(sql);
    benchmark::DoNotOptimize(r->aggregate_value);
  }
  state.counters["columnar_containers"] =
      static_cast<double>(fleet.Execute(sql)->exec.containers_columnar);
}
BENCHMARK_CAPTURE(BM_ScanFleetSweep, count,
                  "SELECT COUNT(*) FROM photo WHERE g - r > 0.6 AND r < 21.5")
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_ScanFleetSweep, avg,
                  "SELECT AVG(r) FROM photo WHERE u - g < 1.8 AND "
                  "class = 'GALAXY'")
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// --- Cold start: read + verify + copy columns vs mmap-and-adopt ------

void BM_ColdStartReadVerifyCopy(benchmark::State& state) {
  const std::string& path = BenchSnapshotPath();
  for (auto _ : state) {
    auto store = persist::SnapshotReader(path).Read();
    benchmark::DoNotOptimize(store->object_count());
  }
}
BENCHMARK(BM_ColdStartReadVerifyCopy)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ColdStartMmap(benchmark::State& state) {
  const std::string& path = BenchSnapshotPath();
  for (auto _ : state) {
    auto store = persist::MapSnapshotStore(path);
    benchmark::DoNotOptimize(store->object_count());
  }
}
BENCHMARK(BM_ColdStartMmap)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_LensSearch(benchmark::State& state) {
  ObjectStore store = MakeBenchStore(0.3);
  ShardedStore sharded(store, {8, 2});
  auto shards = sharded.LiveShards();
  if (!shards.ok()) {
    state.SkipWithError("no live shards");
    return;
  }
  FederatedQueryEngine fleet(*shards);
  for (auto _ : state) {
    auto r = fleet.Execute(
        "SELECT a.obj_id, b.obj_id, sep FROM photo AS a "
        "JOIN photo AS b WITHIN 10 ARCSEC "
        "WHERE a.g - a.r - b.g + b.r < 0.05 AND "
        "b.g - b.r - a.g + a.r < 0.05");
    benchmark::DoNotOptimize(r->rows.size());
  }
}
BENCHMARK(BM_LensSearch)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace sdss::bench

int main(int argc, char** argv) {
  sdss::bench::PrintC9();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
