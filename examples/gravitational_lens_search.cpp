// Gravitational lens search as SQL on a sharded archive.
//
// The paper's pair query: "find objects within 10 arcsec of each other
// which have identical colors, but may have a different brightness" --
// a high-dimensional neighborhood search (sky position x 4-color space)
// that no single-object index answers. The paper proposes a two-phase
// parallel hash machine; the archive runs it as a JOIN ... WITHIN over a
// fleet of servers: phase 1 hashes each server's objects to HTM buckets
// (with edge ghosts, exchanged across server boundaries), phase 2
// compares within buckets.
//
//   $ ./gravitational_lens_search [num_servers]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "archive/sharded_store.h"
#include "catalog/object_store.h"
#include "catalog/sky_generator.h"
#include "core/angle.h"
#include "core/coords.h"
#include "core/random.h"
#include "query/federated_engine.h"

using namespace sdss;
using catalog::kNumBands;
using catalog::ObjClass;
using catalog::PhotoObj;

namespace {

// Lens criterion: all four adjacent colors equal within photometric
// error; brightness free. Each color test is two one-sided conjuncts,
// because the join evaluates its pair predicate under either
// assignment of the pair to (a, b).
const char kLensSql[] =
    "SELECT a.obj_id, b.obj_id, sep FROM photo AS a "
    "JOIN photo AS b WITHIN 10 ARCSEC WHERE "
    "a.u - a.g - b.u + b.g < 0.05 AND b.u - b.g - a.u + a.g < 0.05 AND "
    "a.g - a.r - b.g + b.r < 0.05 AND b.g - b.r - a.g + a.r < 0.05 AND "
    "a.r - a.i - b.r + b.i < 0.05 AND b.r - b.i - a.r + a.i < 0.05 AND "
    "a.i - a.z - b.i + b.z < 0.05 AND b.i - b.z - a.i + a.z < 0.05";

// The same test in C++, for the brute-force comparison below.
bool IdenticalColors(const PhotoObj& a, const PhotoObj& b) {
  for (int i = 0; i < kNumBands - 1; ++i) {
    const double ca = a.mag[i] - a.mag[i + 1];
    const double cb = b.mag[i] - b.mag[i + 1];
    if (std::fabs(ca - cb) >= 0.05) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  size_t servers = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 20;

  // Synthetic sky with planted lens systems: each lensed quasar gets a
  // second image within 8 arcsec, same colors, dimmed by 0.5-2 mag.
  catalog::SkyModel model;
  model.seed = 99;
  model.num_galaxies = 40'000;
  model.num_stars = 30'000;
  model.num_quasars = 600;
  auto objects = catalog::SkyGenerator(model).Generate();

  Rng rng(7);
  std::vector<PhotoObj> images;
  uint64_t next_id = 10'000'000;
  for (const PhotoObj& o : objects) {
    if (o.obj_class != ObjClass::kQuasar || !rng.Bernoulli(0.2)) continue;
    PhotoObj img = o;
    img.obj_id = next_id++;
    img.pos = rng.UnitCap(o.pos, ArcsecToRad(8.0)).Normalized();
    SphericalFromUnitVector(img.pos, &img.ra_deg, &img.dec_deg);
    float dimming = static_cast<float>(rng.Uniform(0.5, 2.0));
    for (int b = 0; b < kNumBands; ++b) img.mag[b] += dimming;
    images.push_back(img);
  }
  size_t planted = images.size();
  objects.insert(objects.end(), images.begin(), images.end());
  std::vector<PhotoObj> quasars;
  for (const PhotoObj& o : objects) {
    if (o.obj_class == ObjClass::kQuasar) quasars.push_back(o);
  }

  catalog::ObjectStore store;
  if (auto s = store.BulkLoad(std::move(objects)); !s.ok()) {
    std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("catalog: %llu objects, %zu planted lens systems\n",
              (unsigned long long)store.object_count(), planted);

  // Partition across the server fleet, two replicas per container.
  archive::ShardedStore fleet(store, {servers, 2});
  auto shards = fleet.LiveShards();
  if (!shards.ok()) {
    std::fprintf(stderr, "routing failed: %s\n",
                 shards.status().ToString().c_str());
    return 1;
  }
  std::printf("fleet: %zu servers\n\n", shards->size());

  query::FederatedQueryEngine engine(*shards);
  auto pairs = engine.Execute(kLensSql);
  if (!pairs.ok()) {
    std::fprintf(stderr, "lens query failed: %s\n",
                 pairs.status().ToString().c_str());
    return 1;
  }
  const query::ExecStats& exec = pairs->exec;
  std::printf("phase 1: %llu objects scanned and hashed, %llu bytes of "
              "boundary ghosts shipped\n",
              (unsigned long long)exec.objects_examined,
              (unsigned long long)exec.bytes_shipped);
  std::printf("phase 2: %llu pair tests\n",
              (unsigned long long)exec.pair_tests);
  std::printf("\nfound %zu lens-candidate pairs "
              "(planted %zu; extras are chance color matches)\n\n",
              pairs->rows.size(), planted);

  std::vector<query::ResultRow> rows = pairs->rows;
  std::sort(rows.begin(), rows.end(), [](const auto& x, const auto& y) {
    return std::make_pair(x.obj_id, x.obj_id_b) <
           std::make_pair(y.obj_id, y.obj_id_b);
  });
  std::printf("first candidates:\n%14s %14s %10s\n", "obj A", "obj B",
              "sep (\")");
  for (size_t i = 0; i < rows.size() && i < 8; ++i) {
    std::printf("%14llu %14llu %10.2f\n", (unsigned long long)rows[i].obj_id,
                (unsigned long long)rows[i].obj_id_b, rows[i].values[2]);
  }

  // Compare against the quadratic baseline on the quasar subset only
  // (the full-catalog brute force would be prohibitive -- that is the
  // point of the hash machine).
  const double cos_sep = std::cos(ArcsecToRad(10.0));
  uint64_t brute_tests = 0, brute_pairs = 0;
  for (size_t i = 0; i < quasars.size(); ++i) {
    for (size_t j = i + 1; j < quasars.size(); ++j) {
      ++brute_tests;
      if (quasars[i].pos.Dot(quasars[j].pos) >= cos_sep &&
          IdenticalColors(quasars[i], quasars[j])) {
        ++brute_pairs;
      }
    }
  }
  std::printf("\nbrute force on just the quasar subset: %llu pairs, "
              "%llu pair tests\n(the bucketed join used %llu over the "
              "whole catalog)\n",
              (unsigned long long)brute_pairs,
              (unsigned long long)brute_tests,
              (unsigned long long)exec.pair_tests);
  return 0;
}
