// A survey-operations walkthrough: nightly chunk loading, the archive
// publication pipeline, and the science queries of the paper's
// introduction -- run end to end.
//
//   $ ./galaxy_survey
//
// Demonstrates: (1) the OA -> SA two-phase clustered load sustaining the
// nightly data rate, (2) the multi-tier publication pipeline of Figure 2,
// (3) tag-partition selection and spatial pruning in the query engine,
// (4) the scan machine serving a mix of interactive predicates.

#include <cstdio>

#include "archive/archive.h"
#include "catalog/loader.h"
#include "catalog/schema.h"
#include "catalog/sky_generator.h"
#include "dataflow/scan_machine.h"
#include "query/federated_engine.h"

using namespace sdss;
using catalog::ObjClass;
using catalog::PhotoObj;

int main() {
  // --- The archive schema, in its multiple representations. -----------
  catalog::Schema schema = catalog::Schema::Sdss();
  std::printf("archive schema: %zu classes; PhotoObj carries %zu fields "
              "(~%zu B/row)\n",
              schema.classes().size(),
              schema.FindClass("PhotoObj")->fields.size(),
              schema.FindClass("PhotoObj")->BytesPerInstance());

  // --- Nightly observing: chunks through the loader and pipeline. -----
  catalog::SkyModel model;
  model.seed = 2000;
  model.num_galaxies = 60'000;
  model.num_stars = 45'000;
  model.num_quasars = 600;
  auto chunks = catalog::SkyGenerator(model).GenerateChunks(14);

  catalog::ObjectStore science_archive;
  catalog::ChunkLoader loader;
  archive::ArchivePipeline pipeline;

  std::printf("\nloading %zu nightly chunks into the Science Archive:\n",
              chunks.size());
  SimSeconds night = 0.0;
  int first_observed_night = -1;
  for (const auto& chunk : chunks) {
    if (chunk.objects.empty()) continue;
    if (first_observed_night < 0) first_observed_night = chunk.night;
    auto stats = loader.LoadClustered(&science_archive, chunk);
    if (!stats.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    (void)pipeline.ObserveChunk(chunk.night, stats->objects,
                                chunk.PaperBytes(), night);
    std::printf("  night %2d: %6llu objects, %4llu container touches, "
                "load %s\n",
                chunk.night, (unsigned long long)stats->objects,
                (unsigned long long)stats->container_touches,
                FormatSimDuration(stats->sim_seconds).c_str());
    night += kSimDay;
  }
  std::printf("archive now holds %llu objects in %llu containers\n",
              (unsigned long long)science_archive.object_count(),
              (unsigned long long)science_archive.container_count());

  // The survey footprint does not cover every RA slice, so the first
  // chunks may be empty and unobserved; report the first real night.
  auto public_latency = pipeline.TimeToPublic(first_observed_night);
  if (public_latency.ok()) {
    std::printf("night-%d data reaches the public archive %s after "
                "observation\n",
                first_observed_night, FormatSimDuration(*public_latency).c_str());
  }

  // --- Science queries. -----------------------------------------------
  query::FederatedQueryEngine engine(
      {query::Shard{0, &science_archive, nullptr}});

  struct NamedQuery {
    const char* label;
    const char* sql;
  };
  NamedQuery queries[] = {
      {"main galaxy sample (r < 17.8)",
       "SELECT COUNT(*) FROM photo WHERE class = 'GALAXY' AND r < 17.8"},
      {"red cluster galaxies",
       "SELECT COUNT(*) FROM photo WHERE class = 'GALAXY' AND g - r > 0.85"},
      {"UV-excess quasar candidates",
       "SELECT COUNT(*) FROM photo WHERE u - g < 0.2 AND class = 'QSO'"},
      {"bright high-latitude objects",
       "SELECT COUNT(*) FROM photo WHERE BAND('GAL', 60, 90) AND r < 19"},
      {"spectro targets with redshift",
       "SELECT COUNT(*) FROM photo WHERE redshift > 0.2"},
  };
  std::printf("\nscience queries:\n");
  for (const auto& q : queries) {
    auto r = engine.Execute(q.sql);
    if (!r.ok()) {
      std::printf("  %-34s ERROR %s\n", q.label,
                  r.status().ToString().c_str());
      continue;
    }
    std::printf("  %-34s %8.0f objects  [%s store, %llu of %llu examined]\n",
                q.label, r->aggregate_value,
                r->used_tag_store ? "tag" : "photo",
                (unsigned long long)r->exec.objects_examined,
                (unsigned long long)science_archive.object_count());
  }

  // --- The scan machine: interactive full-catalog predicates. ---------
  dataflow::ClusterConfig cfg;
  cfg.num_nodes = 20;
  dataflow::ClusterSim cluster(cfg);
  (void)cluster.LoadPartitioned(science_archive);
  dataflow::ScanMachine scan_machine(&cluster);
  scan_machine.Admit(
      [](const PhotoObj& o) { return (o.flags & catalog::kFlagVariable); },
      0.0);
  scan_machine.Admit(
      [](const PhotoObj& o) {
        return o.obj_class == ObjClass::kQuasar && o.redshift > 4.0f;
      },
      0.001);
  auto completions = scan_machine.RunUntilDrained();
  std::printf("\nscan machine (%zu nodes, cycle %s):\n",
              cluster.num_nodes(),
              FormatSimDuration(scan_machine.CycleSimSeconds()).c_str());
  for (const auto& c : completions) {
    std::printf("  query %llu: %llu matches, completed within one cycle "
                "(%s)\n",
                (unsigned long long)c.query_id,
                (unsigned long long)c.matches,
                FormatSimDuration(c.Latency()).c_str());
  }
  std::printf("  %llu data pass(es) served %zu queries (shared scans)\n",
              (unsigned long long)scan_machine.cycles_run(),
              completions.size());
  return 0;
}
