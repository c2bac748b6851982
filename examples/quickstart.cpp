// Quickstart: generate a synthetic sky, load the Science Archive store,
// and ask it questions -- through the HTM index directly and through the
// SQL query engine.
//
//   $ ./quickstart
//
// Walks through the 4 core concepts: (1) objects live in HTM-trixel
// containers, (2) spatial predicates become half-space Regions, (3) the
// cover algorithm prunes containers, (4) the query engine wraps it all in
// a SQL dialect with ASAP streaming.

#include <cstdio>

#include "catalog/finding_chart.h"
#include "catalog/object_store.h"
#include "catalog/sky_generator.h"
#include "core/coords.h"
#include "htm/htm_index.h"
#include "query/federated_engine.h"

using namespace sdss;

int main() {
  // --- 1. Generate a small synthetic survey and load the store. -------
  catalog::SkyModel model;
  model.seed = 42;
  model.num_galaxies = 20'000;
  model.num_stars = 15'000;
  model.num_quasars = 200;
  catalog::SkyGenerator generator(model);

  catalog::ObjectStore store;  // Level-6 trixel containers by default.
  if (auto s = store.BulkLoad(generator.Generate()); !s.ok()) {
    std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
    return 1;
  }
  catalog::StoreStats stats = store.Stats();
  std::printf("loaded %llu objects into %llu containers "
              "(largest holds %llu)\n",
              (unsigned long long)stats.object_count,
              (unsigned long long)stats.container_count,
              (unsigned long long)stats.max_container_objects);

  // --- 2. HTM basics: where on the sky is a position? -----------------
  htm::HtmIndex index(6);
  htm::HtmId id = index.Locate(/*ra=*/185.0, /*dec=*/35.0);
  std::printf("\n(185.0, +35.0) lives in trixel %s (raw id %llu), "
              "~%.2f sq deg\n",
              id.ToName().c_str(), (unsigned long long)id.raw(),
              htm::Trixel::FromId(id).AreaSquareDegrees());

  // --- 3. A spatial region and its trixel cover. ----------------------
  htm::Region cone = htm::Region::Circle(185.0, 35.0, 2.0);
  htm::CoverResult cover = index.CoverRegion(cone);
  std::printf("2-degree cone cover: %zu FULL + %zu PARTIAL trixels "
              "(of %llu at level 6)\n",
              cover.full.size(), cover.partial.size(),
              (unsigned long long)htm::TrixelCountAtLevel(6));

  auto prediction = store.PredictRegion(cone);
  std::printf("density-map prediction: ~%.0f objects, %llu bytes to scan\n",
              prediction.expected_objects,
              (unsigned long long)prediction.bytes_to_scan);

  // --- 4. The same search through the query engine. -------------------
  query::FederatedQueryEngine engine({query::Shard{0, &store, nullptr}});

  auto result = engine.Execute(
      "SELECT obj_id, ra, dec, r FROM photo "
      "WHERE CIRCLE(185.0, 35.0, 2.0) AND r < 20 "
      "ORDER BY r LIMIT 5");
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("\nbrightest 5 objects with r < 20 in the cone "
              "(%s store, index %s):\n",
              result->used_tag_store ? "tag" : "photo",
              result->used_spatial_index ? "used" : "unused");
  std::printf("%12s %10s %10s %7s\n", "obj_id", "ra", "dec", "r");
  for (const auto& row : result->rows) {
    std::printf("%12llu %10.4f %10.4f %7.2f\n",
                (unsigned long long)row.obj_id, row.values[1],
                row.values[2], row.values[3]);
  }

  // Aggregates and EXPLAIN.
  auto count = engine.Execute(
      "SELECT COUNT(*) FROM photo WHERE class = 'QSO' AND r < 22");
  if (count.ok()) {
    std::printf("\nquasars brighter than r=22: %.0f\n",
                count->aggregate_value);
  }
  auto plan = engine.Explain(
      "SELECT obj_id FROM photo WHERE CIRCLE(185.0, 35.0, 2.0) AND r < 20");
  if (plan.ok()) {
    std::printf("\nEXPLAIN output:\n%s", plan->c_str());
  }

  // --- 5. The paper's simplest service: a finding chart. --------------
  catalog::ChartOptions chart_opts;
  chart_opts.ra_deg = 185.0;
  chart_opts.dec_deg = 35.0;
  chart_opts.radius_deg = 1.0;
  chart_opts.faint_limit_r = 23.0f;
  auto chart = catalog::RenderFindingChart(store, chart_opts);
  if (chart.ok()) {
    std::printf("\n%s", chart->ascii.c_str());
  }
  return 0;
}
