// Federated fleet: partition + replicate a survey across a fleet of
// archive servers, query the whole federation through one engine, then
// kill a server and watch routing fail over to the surviving replicas.
//
//   $ ./example_federated_fleet
//
// Walks through the distributed story of the paper: (1) the replication
// manager places every container on a primary plus replicas, (2)
// ShardedStore materializes one store per server, (3) the federated
// engine plans once and fans out to every live shard, merging streams
// and partial aggregates, (4) failover keeps answers identical as long
// as one replica of everything survives.

#include <cstdio>

#include "archive/sharded_store.h"
#include "catalog/sky_generator.h"
#include "query/federated_engine.h"

using namespace sdss;

namespace {

bool RunAndReport(query::FederatedQueryEngine* fed, const char* label,
                  const char* sql) {
  auto r = fed->Execute(sql);
  if (!r.ok()) {
    std::printf("  %-28s ERROR: %s\n", label, r.status().ToString().c_str());
    return false;
  }
  if (r->is_aggregate) {
    std::printf("  %-28s = %.3f   (%llu containers scanned, %.1f ms)\n",
                label, r->aggregate_value,
                (unsigned long long)r->exec.containers_scanned,
                r->exec.seconds_total * 1e3);
  } else {
    std::printf("  %-28s %zu rows  (%llu containers scanned, %.1f ms, "
                "first row %.1f ms)\n",
                label, r->rows.size(),
                (unsigned long long)r->exec.containers_scanned,
                r->exec.seconds_total * 1e3,
                r->exec.seconds_to_first_row * 1e3);
  }
  return true;
}

}  // namespace

int main() {
  // --- 1. A survey, and the fleet that will hold it. ------------------
  catalog::SkyModel model;
  model.seed = 42;
  model.num_galaxies = 30'000;
  model.num_stars = 25'000;
  model.num_quasars = 300;
  catalog::ObjectStore store;
  if (auto s = store.BulkLoad(catalog::SkyGenerator(model).Generate());
      !s.ok()) {
    std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
    return 1;
  }

  archive::ReplicationOptions repl;
  repl.num_servers = 6;
  repl.base_replicas = 2;
  archive::ShardedStore fleet(store, repl);
  archive::PlacementStats placement = fleet.Stats();
  std::printf("fleet: %zu servers, %llu containers x%zu replicas, "
              "%llu bytes total (imbalance %.2f)\n",
              fleet.num_servers(),
              (unsigned long long)placement.containers,
              repl.base_replicas,
              (unsigned long long)placement.total_bytes,
              placement.imbalance);
  for (size_t s = 0; s < fleet.num_servers(); ++s) {
    std::printf("  server %zu: %zu containers, %llu objects\n", s,
                fleet.server_store(s).container_count(),
                (unsigned long long)fleet.server_store(s).object_count());
  }

  // --- 2. One engine over the whole federation. -----------------------
  auto shards = fleet.LiveShards();
  if (!shards.ok()) {
    std::fprintf(stderr, "routing failed: %s\n",
                 shards.status().ToString().c_str());
    return 1;
  }
  query::FederatedQueryEngine fed(*shards);

  const char* kChart =
      "SELECT obj_id, ra, dec, r FROM photo WHERE "
      "CIRCLE('GAL', 30, 70, 6) AND r < 22 AND g - r < 1.2";
  std::printf("\nall %zu servers up:\n", fleet.num_servers());
  RunAndReport(&fed, "finding chart (cone)", kChart);
  RunAndReport(&fed, "COUNT(*) galaxies",
               "SELECT COUNT(*) FROM photo WHERE class = 'GALAXY'");
  RunAndReport(&fed, "AVG(r) bright objects",
               "SELECT AVG(r) FROM photo WHERE r < 21");
  RunAndReport(&fed, "brightest 10 quasars",
               "SELECT obj_id, r FROM photo WHERE class = 'QSO' "
               "ORDER BY r LIMIT 10");

  // --- 3. The plan, with per-shard predictions. -----------------------
  if (auto explain = fed.Explain(kChart); explain.ok()) {
    std::printf("\nEXPLAIN %s\n%s", kChart, explain->c_str());
  }

  // --- 4. Kill a server; routing falls over to the replicas. ----------
  std::printf("\nmarking server 2 down (its containers re-route to "
              "surviving replicas)...\n");
  (void)fleet.MarkServerDown(2);
  auto rerouted = fleet.LiveShards();
  if (!rerouted.ok()) {
    std::fprintf(stderr, "routing failed: %s\n",
                 rerouted.status().ToString().c_str());
    return 1;
  }
  fed.SetShards(*rerouted);
  std::printf("%zu live shards now serve the same %llu containers:\n",
              rerouted->size(), (unsigned long long)placement.containers);
  RunAndReport(&fed, "finding chart (cone)", kChart);
  RunAndReport(&fed, "COUNT(*) galaxies",
               "SELECT COUNT(*) FROM photo WHERE class = 'GALAXY'");

  // --- 5. Without replication, a dead server means lost data -- and the
  // router says so instead of returning a silent partial result.
  archive::ReplicationOptions fragile = repl;
  fragile.base_replicas = 1;
  archive::ShardedStore unreplicated(store, fragile);
  (void)unreplicated.MarkServerDown(0);
  auto broken = unreplicated.LiveShards();
  std::printf("\nbase_replicas=1 with server 0 down: %s\n",
              broken.ok() ? "unexpectedly ok"
                          : broken.status().ToString().c_str());
  return broken.ok() ? 1 : 0;
}
