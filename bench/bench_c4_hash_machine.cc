// C4 -- the hash-machine claim: gravitational-lens finding ("find objects
// within 10 arcsec of each other which have identical colors, but may
// have a different brightness") as a parallel spatial hash-join that can
// "process the entire database in a few minutes", vs the quadratic
// pairwise search it replaces.
//
// We plant lens systems in the synthetic sky and run the lens query as
// SQL on an archive::ShardedStore fleet: the JOIN ... WITHIN is the
// executor's two-phase bucket join (phase 1 hashes the candidates to HTM
// buckets with edge ghosts, phase 2 compares within buckets), split over
// the servers with a boundary ghost exchange. Every server count's pair
// set is checked against a brute-force search of the same predicate, and
// the modeled times price each run on the paper's hardware.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "archive/sharded_store.h"
#include "bench_util.h"
#include "core/angle.h"
#include "core/coords.h"
#include "core/random.h"
#include "query/federated_engine.h"

namespace sdss::bench {
namespace {

using archive::ShardedStore;
using catalog::kNumBands;
using catalog::ObjClass;
using catalog::ObjectStore;
using catalog::PhotoObj;
using query::FederatedQueryEngine;

using PairSet = std::set<std::pair<uint64_t, uint64_t>>;

constexpr double kSepArcsec = 10.0;

/// The lens query: quasar pairs within 10 arcsec with identical colors.
std::string LensSql() {
  std::string sql =
      "SELECT a.obj_id, b.obj_id, sep FROM photo AS a "
      "JOIN photo AS b WITHIN 10 ARCSEC WHERE class = 'QSO' AND ";
  sql += kIdenticalColorsSql;
  return sql;
}

/// kIdenticalColorsSql in the same left-to-right double arithmetic.
bool SameColors(const PhotoObj& a, const PhotoObj& b) {
  for (int i = 0; i < kNumBands - 1; ++i) {
    const double ax = a.mag[i], ay = a.mag[i + 1];
    const double bx = b.mag[i], by = b.mag[i + 1];
    if (!(ax - ay - bx + by < 0.05 && bx - by - ax + ay < 0.05)) {
      return false;
    }
  }
  return true;
}

std::vector<PhotoObj> Quasars(const ObjectStore& store) {
  std::vector<PhotoObj> out;
  store.ForEachObject([&out](const PhotoObj& o) {
    if (o.obj_class == ObjClass::kQuasar) out.push_back(o);
  });
  return out;
}

/// The quadratic baseline: every quasar pair is tested.
PairSet BruteForceLensPairs(const std::vector<PhotoObj>& quasars,
                            uint64_t* pair_tests) {
  const double cos_sep = std::cos(ArcsecToRad(kSepArcsec));
  PairSet pairs;
  uint64_t tests = 0;
  for (size_t i = 0; i < quasars.size(); ++i) {
    for (size_t j = i + 1; j < quasars.size(); ++j) {
      const PhotoObj& a = quasars[i];
      const PhotoObj& b = quasars[j];
      ++tests;
      if (a.pos.Dot(b.pos) < cos_sep || !SameColors(a, b)) continue;
      pairs.emplace(std::min(a.obj_id, b.obj_id),
                    std::max(a.obj_id, b.obj_id));
    }
  }
  if (pair_tests != nullptr) *pair_tests = tests;
  return pairs;
}

// Salts the store's sky with lensed quasar images; `planted` receives
// each (quasar, image) pair.
ObjectStore MakeLensedStore(double scale, PairSet* planted) {
  auto objs = catalog::SkyGenerator(BenchSkyModel(scale)).Generate();
  Rng rng(1234);
  uint64_t next_id = 50'000'000;
  std::vector<PhotoObj> extra;
  for (const auto& o : objs) {
    if (o.obj_class != ObjClass::kQuasar || !rng.Bernoulli(0.2)) continue;
    PhotoObj image = o;
    image.obj_id = next_id++;
    image.pos = rng.UnitCap(o.pos, ArcsecToRad(8.0)).Normalized();
    SphericalFromUnitVector(image.pos, &image.ra_deg, &image.dec_deg);
    float dim = static_cast<float>(rng.Uniform(0.5, 2.0));
    for (int b = 0; b < kNumBands; ++b) image.mag[b] += dim;
    extra.push_back(image);
    planted->emplace(o.obj_id, image.obj_id);
  }
  objs.insert(objs.end(), extra.begin(), extra.end());
  ObjectStore store;
  (void)store.BulkLoad(std::move(objs));
  return store;
}

void PrintC4() {
  PairSet planted;
  ObjectStore store = MakeLensedStore(1.0, &planted);
  double survey_factor = SurveyScaleFactor(store.object_count());

  PrintHeader(
      "C4  Hash machine: gravitational-lens pair search vs brute force");
  std::printf("catalog: %llu objects, %zu planted lens systems\n\n",
              static_cast<unsigned long long>(store.object_count()),
              planted.size());

  uint64_t brute_tests = 0;
  const PairSet brute = BruteForceLensPairs(Quasars(store), &brute_tests);

  std::printf("%7s %10s %12s %12s %14s %16s\n", "servers", "pairs",
              "pair tests", "shipped", "total (demo)", "2004 scale est");
  PairSet fleet_pairs;
  uint64_t fleet_tests = 0;
  for (size_t servers : {1, 4, 8, 20}) {
    ShardedStore sharded(store, {servers, 2});
    auto shards = sharded.LiveShards();
    if (!shards.ok()) return;
    FederatedQueryEngine fed(*shards);
    auto result = fed.Execute(LensSql());
    if (!result.ok()) {
      std::printf("lens query failed: %s\n",
                  result.status().ToString().c_str());
      return;
    }
    fleet_pairs = ResultPairs(*result);
    fleet_tests = result->exec.pair_tests;
    // The scan scales with catalog bytes; the pair tests with the
    // selected subset (quasars stay ~0.5% of the catalog at survey
    // scale).
    const PaperFleetTime t = PaperFleetSeconds(*shards, fleet_tests);
    std::printf("%7zu %10zu %12llu %12s %14s %16s  %s\n", servers,
                fleet_pairs.size(),
                static_cast<unsigned long long>(fleet_tests),
                FormatBytes(result->exec.bytes_shipped).c_str(),
                FormatSimDuration(t.total()).c_str(),
                FormatSimDuration(t.total() * survey_factor).c_str(),
                fleet_pairs == brute ? "[= brute force]" : "[MISMATCH]");
  }

  size_t recalled = 0;
  for (const auto& p : planted) recalled += fleet_pairs.count(p);
  std::printf(
      "\nBaseline: brute force needs %llu pair tests vs %llu bucketed "
      "(%.0fx fewer);\nidentical answers: %zu vs %zu pairs, recall of "
      "planted systems %.1f%%.\n",
      static_cast<unsigned long long>(brute_tests),
      static_cast<unsigned long long>(fleet_tests),
      static_cast<double>(brute_tests) /
          static_cast<double>(std::max<uint64_t>(1, fleet_tests)),
      brute.size(), fleet_pairs.size(),
      100.0 * static_cast<double>(recalled) /
          static_cast<double>(std::max<size_t>(1, planted.size())));
  std::printf(
      "\nShape check: at 20 servers the full-catalog lens search stays in "
      "the minutes\nrange at survey scale -- 'processing the entire "
      "database in a few minutes'.\n");
}

void BM_LensPairSearch(benchmark::State& state) {
  PairSet planted;
  ObjectStore store = MakeLensedStore(0.5, &planted);
  ShardedStore sharded(store, {static_cast<size_t>(state.range(0)), 2});
  auto shards = sharded.LiveShards();
  if (!shards.ok()) {
    state.SkipWithError("no live shards");
    return;
  }
  FederatedQueryEngine fed(*shards);
  for (auto _ : state) {
    auto r = fed.Execute(LensSql());
    benchmark::DoNotOptimize(r->rows.size());
  }
}
BENCHMARK(BM_LensPairSearch)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_BruteForcePairSearch(benchmark::State& state) {
  PairSet planted;
  ObjectStore store = MakeLensedStore(0.5, &planted);
  const std::vector<PhotoObj> quasars = Quasars(store);
  for (auto _ : state) {
    auto pairs = BruteForceLensPairs(quasars, nullptr);
    benchmark::DoNotOptimize(pairs.size());
  }
}
BENCHMARK(BM_BruteForcePairSearch)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace sdss::bench

int main(int argc, char** argv) {
  sdss::bench::PrintC4();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
