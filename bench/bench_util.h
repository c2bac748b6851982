// Shared helpers for the reproduction benchmarks: canonical synthetic
// skies, the paper-hardware timing model and table-printing utilities.
// Every bench binary prints the paper-artifact reproduction first
// (deterministic, simulated-time based) and then runs its
// google-benchmark microbenchmarks.

#ifndef SDSS_BENCH_BENCH_UTIL_H_
#define SDSS_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "catalog/object_store.h"
#include "catalog/sky_generator.h"
#include "core/sim_clock.h"
#include "dataflow/cluster.h"
#include "query/federated_engine.h"

namespace sdss::bench {

/// The canonical benchmark sky: clustered galaxies + stars + quasars on
/// the north-galactic-cap footprint. `scale` multiplies the default
/// 100k-object mix.
inline catalog::SkyModel BenchSkyModel(double scale = 1.0,
                                       uint64_t seed = 42) {
  catalog::SkyModel m;
  m.seed = seed;
  m.num_galaxies = static_cast<uint64_t>(50'000 * scale);
  m.num_stars = static_cast<uint64_t>(48'000 * scale);
  m.num_quasars = static_cast<uint64_t>(500 * scale);
  return m;
}

inline catalog::ObjectStore MakeBenchStore(double scale = 1.0,
                                           uint64_t seed = 42,
                                           int cluster_level = 6) {
  catalog::StoreOptions opt;
  opt.cluster_level = cluster_level;
  catalog::ObjectStore store(opt);
  auto objs = catalog::SkyGenerator(BenchSkyModel(scale, seed)).Generate();
  // Generated positions always produce valid container ids.
  (void)store.BulkLoad(std::move(objs));
  return store;
}

/// Survey-scale extrapolation factor: generated objects -> the paper's
/// 3x10^8 catalog objects.
inline double SurveyScaleFactor(uint64_t generated_objects) {
  return 3.0e8 / static_cast<double>(generated_objects);
}

/// The lens test "identical colors, but may have a different
/// brightness" as pair-join SQL: every adjacent-band color of `a` and
/// `b` agrees to 0.05 mag, each written as the two one-sided conjuncts
/// the join evaluates under either role assignment.
inline constexpr char kIdenticalColorsSql[] =
    "a.u - a.g - b.u + b.g < 0.05 AND b.u - b.g - a.u + a.g < 0.05 "
    "AND a.g - a.r - b.g + b.r < 0.05 AND b.g - b.r - a.g + a.r < 0.05 "
    "AND a.r - a.i - b.r + b.i < 0.05 AND b.r - b.i - a.r + a.i < 0.05 "
    "AND a.i - a.z - b.i + b.z < 0.05 AND b.i - b.z - a.i + a.z < 0.05";

/// The unordered (lower id, higher id) pairs of a pair-join result.
inline std::set<std::pair<uint64_t, uint64_t>> ResultPairs(
    const query::QueryResult& r) {
  std::set<std::pair<uint64_t, uint64_t>> pairs;
  for (const query::ResultRow& row : r.rows) {
    pairs.emplace(std::min(row.obj_id, row.obj_id_b),
                  std::max(row.obj_id, row.obj_id_b));
  }
  return pairs;
}

/// One fleet query priced on the paper's hardware [Hartman98].
struct PaperFleetTime {
  SimSeconds scan = 0.0;   ///< I/O bound: the slowest server's pass.
  SimSeconds pairs = 0.0;  ///< CPU bound: the pair join's phase 2.
  SimSeconds total() const { return scan + pairs; }
};

/// Prices a query that read every object the live `shards` serve and ran
/// `pair_tests` pairwise comparisons: each server streams the objects
/// routed to it at paper-scale row size off its own 150 MB/s disks, and
/// the comparisons (10 ns each) share servers x 4 CPUs.
inline PaperFleetTime PaperFleetSeconds(
    const std::vector<query::Shard>& shards, uint64_t pair_tests = 0) {
  const dataflow::NodeSpec node;
  constexpr double kSecondsPerPairTest = 10e-9;
  PaperFleetTime t;
  for (const query::Shard& shard : shards) {
    const double bytes = static_cast<double>(shard.store->object_count()) *
                         catalog::kPaperBytesPerPhotoObj;
    t.scan = std::max(t.scan, bytes / (node.disk_mbps * 1e6));
  }
  if (!shards.empty()) {
    t.pairs = static_cast<double>(pair_tests) * kSecondsPerPairTest /
              (static_cast<double>(shards.size()) * node.cpus);
  }
  return t;
}

inline void PrintRule() {
  std::printf(
      "-----------------------------------------------------------------"
      "-------------\n");
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n");
  PrintRule();
  std::printf("%s\n", title.c_str());
  PrintRule();
}

}  // namespace sdss::bench

#endif  // SDSS_BENCH_BENCH_UTIL_H_
