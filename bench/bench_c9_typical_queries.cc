// C9 -- the paper's three "typical queries":
//   (a) finding charts: "fairly complex queries on position, colors, and
//       other parts of the attribute space";
//   (b) "find all the quasars brighter than r=22, which have a faint blue
//       galaxy within 5 arcsec on the sky" (non-local / join query);
//   (c) "find objects within 10 arcsec of each other which have identical
//       colors, but may have a different brightness" (gravitational
//       lens, high-dimensional pair query).
//
// (a) runs on the query engine with HTM pruning; (b) and (c) run on the
// hash machine. We report end-to-end latency and objects touched, with
// survey-scale extrapolation of the I/O-bound parts.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <string>

#include "bench_util.h"
#include "core/angle.h"
#include "core/coords.h"
#include "core/random.h"
#include "dataflow/hash_machine.h"
#include "persist/snapshot.h"
#include "query/federated_engine.h"

namespace sdss::bench {
namespace {

using catalog::kNumBands;
using catalog::ObjClass;
using catalog::ObjectStore;
using catalog::PhotoObj;
using dataflow::ClusterConfig;
using dataflow::ClusterSim;
using dataflow::HashMachine;
using dataflow::HashReport;
using dataflow::PairSearchOptions;
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

  // (b) Quasars with a faint blue galaxy within 5 arcsec: pair query
  // with asymmetric roles via the hash machine.
  ClusterConfig cfg;
  cfg.num_nodes = 20;
  ClusterSim cluster(cfg);
  (void)cluster.LoadPartitioned(store);
  HashMachine machine(&cluster);
  HashReport rep_b;
  auto pairs_b = machine.FindPairs(
      [](const PhotoObj& o) {
        bool qso = o.obj_class == ObjClass::kQuasar && o.mag[2] < 22.0f;
        bool faint_blue_gal = o.obj_class == ObjClass::kGalaxy &&
                              o.mag[2] > 20.5f &&
                              (o.mag[1] - o.mag[2]) < 0.5f;
        return qso || faint_blue_gal;
      },
      5.0,
      [](const PhotoObj& a, const PhotoObj& b) {
        // One side QSO (r<22), the other a faint blue galaxy.
        auto is_qso = [](const PhotoObj& o) {
          return o.obj_class == ObjClass::kQuasar && o.mag[2] < 22.0f;
        };
        auto is_fbg = [](const PhotoObj& o) {
          return o.obj_class == ObjClass::kGalaxy && o.mag[2] > 20.5f &&
                 (o.mag[1] - o.mag[2]) < 0.5f;
        };
        return (is_qso(a) && is_fbg(b)) || (is_qso(b) && is_fbg(a));
      },
      PairSearchOptions{}, &rep_b);
  std::printf(
      "(b) quasars (r<22) with a faint blue galaxy within 5 arcsec:\n"
      "    %zu pairs found (>= %llu planted); %llu candidates hashed, "
      "%llu pair tests;\n    modeled %s demo / %s at survey scale\n\n",
      pairs_b.size(), static_cast<unsigned long long>(planted_neighbors),
      static_cast<unsigned long long>(rep_b.selected),
      static_cast<unsigned long long>(rep_b.pair_tests),
      FormatSimDuration(rep_b.total_sim_seconds).c_str(),
      FormatSimDuration(rep_b.total_sim_seconds * survey_factor).c_str());

  // (c) Gravitational lenses: within 10 arcsec, identical colors.
  HashReport rep_c;
  auto pairs_c = machine.FindPairs(
      [](const PhotoObj&) { return true; }, 10.0,
      [](const PhotoObj& a, const PhotoObj& b) {
        for (int i = 0; i < kNumBands - 1; ++i) {
          if (std::fabs((a.mag[i] - a.mag[i + 1]) -
                        (b.mag[i] - b.mag[i + 1])) > 0.05f) {
            return false;
          }
        }
        return true;
      },
      PairSearchOptions{}, &rep_c);
  std::printf(
      "(c) lens candidates (10 arcsec, identical colors, any "
      "brightness):\n"
      "    %zu pairs (>= %llu planted); %llu pair tests over %llu "
      "buckets;\n    modeled %s demo / %s at survey scale\n",
      pairs_c.size(), static_cast<unsigned long long>(planted_lenses),
      static_cast<unsigned long long>(rep_c.pair_tests),
      static_cast<unsigned long long>(rep_c.buckets),
      FormatSimDuration(rep_c.total_sim_seconds).c_str(),
      FormatSimDuration(rep_c.total_sim_seconds * survey_factor).c_str());
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

// --- Columnar scan kernel vs row path -------------------------------
//
// The scan-bound cases below run the same SQL through the same mapped
// snapshot store twice: once with the columnar kernel disabled (the
// executor walks materialized PhotoObj rows and interprets the
// predicate per row) and once enabled (the kernel streams per-container
// column arrays in chunks). Single scan thread and no tag rewrite, so
// the delta is purely the execution path.

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

query::FederatedQueryEngine::Options ScanOptions(bool columnar) {
  query::FederatedQueryEngine::Options opt;
  // Pin the scan to photo containers (the tag partition has no column
  // views) and one thread so the kernel-vs-row delta is undiluted.
  opt.planner.auto_tag_selection = false;
  opt.executor.scan_threads = 1;
  opt.executor.columnar_kernel = columnar;
  return opt;
}

void ScanBench(benchmark::State& state, const char* sql, bool columnar) {
  FederatedQueryEngine engine({Shard{0, &MappedBenchStore(), nullptr}},
                              ScanOptions(columnar));
  // Warm up: the row path lazily materializes rows from the mapped
  // columns on first touch; that one-time cost is not the scan.
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

void BM_ScanFilterRowPath(benchmark::State& state) {
  ScanBench(state, kScanFilterSql, false);
}
BENCHMARK(BM_ScanFilterRowPath)->Unit(benchmark::kMicrosecond)->UseRealTime();

void BM_ScanFilterColumnar(benchmark::State& state) {
  ScanBench(state, kScanFilterSql, true);
}
BENCHMARK(BM_ScanFilterColumnar)->Unit(benchmark::kMicrosecond)->UseRealTime();

void BM_ScanCountRowPath(benchmark::State& state) {
  ScanBench(state, kScanCountSql, false);
}
BENCHMARK(BM_ScanCountRowPath)->Unit(benchmark::kMicrosecond)->UseRealTime();

void BM_ScanCountColumnar(benchmark::State& state) {
  ScanBench(state, kScanCountSql, true);
}
BENCHMARK(BM_ScanCountColumnar)->Unit(benchmark::kMicrosecond)->UseRealTime();

void BM_ScanAvgRowPath(benchmark::State& state) {
  ScanBench(state, kScanAvgSql, false);
}
BENCHMARK(BM_ScanAvgRowPath)->Unit(benchmark::kMicrosecond)->UseRealTime();

void BM_ScanAvgColumnar(benchmark::State& state) {
  ScanBench(state, kScanAvgSql, true);
}
BENCHMARK(BM_ScanAvgColumnar)->Unit(benchmark::kMicrosecond)->UseRealTime();

// --- Cold start: decode-and-rebuild vs mmap-and-adopt ---------------

void BM_ColdStartDecode(benchmark::State& state) {
  const std::string& path = BenchSnapshotPath();
  for (auto _ : state) {
    auto store = persist::SnapshotReader(path).Read();
    benchmark::DoNotOptimize(store->object_count());
  }
}
BENCHMARK(BM_ColdStartDecode)->Unit(benchmark::kMillisecond)->UseRealTime();

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
  ClusterConfig cfg;
  cfg.num_nodes = 8;
  ClusterSim cluster(cfg);
  (void)cluster.LoadPartitioned(store);
  HashMachine machine(&cluster);
  for (auto _ : state) {
    auto pairs = machine.FindPairs(
        [](const PhotoObj&) { return true; }, 10.0,
        [](const PhotoObj& a, const PhotoObj& b) {
          return std::fabs((a.mag[1] - a.mag[2]) -
                           (b.mag[1] - b.mag[2])) < 0.05f;
        },
        PairSearchOptions{});
    benchmark::DoNotOptimize(pairs.size());
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
