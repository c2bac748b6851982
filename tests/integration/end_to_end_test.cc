// Integration tests across the whole system: the survey lifecycle from
// observation chunks through loading, archive publication, replication,
// querying, dataflow analysis, and FITS interchange -- verifying that the
// modules compose and agree with each other.

#include <gtest/gtest.h>

#include <set>

#include "archive/archive.h"
#include "archive/replication.h"
#include "catalog/cross_match.h"
#include "catalog/fits_io.h"
#include "catalog/loader.h"
#include "catalog/sky_generator.h"
#include "catalog/tiling.h"
#include "dataflow/hash_machine.h"
#include "dataflow/river.h"
#include "dataflow/scan_machine.h"
#include "query/federated_engine.h"

namespace sdss {
namespace {

using catalog::Chunk;
using catalog::ChunkLoader;
using catalog::ObjClass;
using catalog::ObjectStore;
using catalog::PhotoObj;
using catalog::SkyGenerator;
using catalog::SkyModel;

class EndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SkyModel m;
    m.seed = 314;
    m.num_galaxies = 10000;
    m.num_stars = 7000;
    m.num_quasars = 200;
    generator_ = new SkyGenerator(m);
    chunks_ = new std::vector<Chunk>(generator_->GenerateChunks(8));

    store_ = new ObjectStore();
    pipeline_ = new archive::ArchivePipeline();
    ChunkLoader loader;
    SimSeconds night = 0.0;
    for (const Chunk& chunk : *chunks_) {
      auto stats = loader.LoadClustered(store_, chunk);
      ASSERT_TRUE(stats.ok());
      ASSERT_TRUE(pipeline_
                      ->ObserveChunk(chunk.night, stats->objects,
                                     chunk.PaperBytes(), night)
                      .ok());
      night += kSimDay;
    }
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    delete store_;
    delete chunks_;
    delete generator_;
    pipeline_ = nullptr;
    store_ = nullptr;
    chunks_ = nullptr;
    generator_ = nullptr;
  }

  static SkyGenerator* generator_;
  static std::vector<Chunk>* chunks_;
  static ObjectStore* store_;
  static archive::ArchivePipeline* pipeline_;
};

SkyGenerator* EndToEndTest::generator_ = nullptr;
std::vector<Chunk>* EndToEndTest::chunks_ = nullptr;
ObjectStore* EndToEndTest::store_ = nullptr;
archive::ArchivePipeline* EndToEndTest::pipeline_ = nullptr;

TEST_F(EndToEndTest, LoaderPreservedEveryChunkObject) {
  uint64_t expected = 0;
  for (const Chunk& c : *chunks_) expected += c.objects.size();
  EXPECT_EQ(store_->object_count(), expected);
}

TEST_F(EndToEndTest, ArchiveTracksTheWholeCampaign) {
  // Everything is in the OA shortly after the campaign, nothing public.
  SimSeconds end = 10 * kSimDay;
  EXPECT_EQ(pipeline_->ObjectsVisible(archive::Tier::kOperational, end),
            store_->object_count());
  EXPECT_EQ(pipeline_->ObjectsVisible(archive::Tier::kPublic, end), 0u);
  // After two years, everything is public.
  EXPECT_EQ(pipeline_->ObjectsVisible(archive::Tier::kPublic,
                                      730 * kSimDay),
            store_->object_count());
}

TEST_F(EndToEndTest, QueryAnswersMatchChunkGroundTruth) {
  query::FederatedQueryEngine engine({query::Shard{0, store_, nullptr}});
  auto result = engine.Execute(
      "SELECT COUNT(*) FROM photo WHERE class = 'QSO'");
  ASSERT_TRUE(result.ok());
  uint64_t truth = 0;
  for (const Chunk& c : *chunks_) {
    for (const PhotoObj& o : c.objects) {
      if (o.obj_class == ObjClass::kQuasar) ++truth;
    }
  }
  EXPECT_DOUBLE_EQ(result->aggregate_value, static_cast<double>(truth));
}

TEST_F(EndToEndTest, FitsExportReloadPreservesQueryAnswers) {
  std::string stream = catalog::StoreToPacketStream(*store_, 1024);
  auto reloaded = catalog::StoreFromPacketStream(stream, store_->options());
  ASSERT_TRUE(reloaded.ok());

  query::FederatedQueryEngine original({query::Shard{0, store_, nullptr}});
  query::FederatedQueryEngine restored(
      {query::Shard{0, &reloaded.value(), nullptr}});
  for (const char* sql :
       {"SELECT COUNT(*) FROM photo WHERE r < 19",
        "SELECT COUNT(*) FROM photo WHERE g - r > 0.8",
        "SELECT COUNT(*) FROM photo WHERE BAND('GAL', 40, 60)"}) {
    auto a = original.Execute(sql);
    auto b = restored.Execute(sql);
    ASSERT_TRUE(a.ok() && b.ok()) << sql;
    EXPECT_DOUBLE_EQ(a->aggregate_value, b->aggregate_value) << sql;
  }
}

TEST_F(EndToEndTest, ScanMachineAgreesWithQueryEngine) {
  dataflow::ClusterConfig cfg;
  cfg.num_nodes = 6;
  dataflow::ClusterSim cluster(cfg);
  ASSERT_TRUE(cluster.LoadPartitioned(*store_).ok());
  dataflow::ScanMachine machine(&cluster);
  machine.Admit([](const PhotoObj& o) { return o.mag[2] < 18.5f; }, 0.0);
  auto completions = machine.RunUntilDrained();
  ASSERT_EQ(completions.size(), 1u);

  query::FederatedQueryEngine engine({query::Shard{0, store_, nullptr}});
  auto result = engine.Execute("SELECT COUNT(*) FROM photo WHERE r < 18.5");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(static_cast<double>(completions[0].matches),
            result->aggregate_value);
}

TEST_F(EndToEndTest, RiverAgreesWithQueryEngine) {
  dataflow::ClusterConfig cfg;
  cfg.num_nodes = 6;
  dataflow::ClusterSim cluster(cfg);
  ASSERT_TRUE(cluster.LoadPartitioned(*store_).ok());
  dataflow::River river(&cluster);
  river.Filter([](const PhotoObj& o) {
    return o.obj_class == ObjClass::kGalaxy && o.mag[2] < 19.0f;
  });
  uint64_t river_count = 0;
  river.Run([&](const PhotoObj&) { ++river_count; });

  query::FederatedQueryEngine engine({query::Shard{0, store_, nullptr}});
  auto result = engine.Execute(
      "SELECT COUNT(*) FROM photo WHERE class = 'GALAXY' AND r < 19");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(static_cast<double>(river_count), result->aggregate_value);
}

TEST_F(EndToEndTest, ReplicationCoversEveryLoadedContainer) {
  archive::ReplicationManager mgr(archive::ReplicationOptions{8, 2});
  ASSERT_TRUE(mgr.AssignFrom(*store_).ok());
  EXPECT_EQ(mgr.containers(), store_->container_count());
  ASSERT_TRUE(mgr.MarkServerDown(2).ok());
  for (const auto& [raw, c] : store_->containers()) {
    EXPECT_TRUE(mgr.RouteRead(raw).ok()) << raw;
  }
}

TEST_F(EndToEndTest, TilingCoversSpectroTargetsSelectedFromStore) {
  auto targets = catalog::SelectTargets(*store_);
  ASSERT_FALSE(targets.empty());
  auto tiling = catalog::PlaceTiles(targets);
  ASSERT_TRUE(tiling.ok());
  EXPECT_GE(tiling->CoverageFraction(), 0.9);

  // Every tiled target exists in the store.
  std::set<uint64_t> ids;
  store_->ForEachObject([&](const PhotoObj& o) { ids.insert(o.obj_id); });
  for (const auto& tile : tiling->tiles) {
    for (uint64_t id : tile.assigned) {
      EXPECT_TRUE(ids.count(id) > 0) << id;
    }
  }
}

TEST_F(EndToEndTest, SpectraLinkBackToPhotometry) {
  auto photo = generator_->Generate();
  auto spectra = generator_->GenerateSpectra(photo);
  std::set<uint64_t> photo_ids;
  for (const auto& o : photo) photo_ids.insert(o.obj_id);
  for (const auto& s : spectra) {
    EXPECT_TRUE(photo_ids.count(s.photo_obj_id) > 0);
  }
  // The spectroscopic catalog is ~1% of the photometric one (the
  // survey's 10^6 of 2x10^8 proportion, scaled).
  EXPECT_GT(spectra.size(), photo.size() / 500);
  EXPECT_LT(spectra.size(), photo.size() / 5);
}

TEST_F(EndToEndTest, HashMachineFindsQueryEngineVerifiablePairs) {
  dataflow::ClusterConfig cfg;
  cfg.num_nodes = 4;
  dataflow::ClusterSim cluster(cfg);
  ASSERT_TRUE(cluster.LoadPartitioned(*store_).ok());
  dataflow::HashMachine machine(&cluster);
  auto pairs = machine.FindPairs(
      [](const PhotoObj& o) { return o.mag[2] < 21.0f; },
      /*max_sep_arcsec=*/30.0,
      [](const PhotoObj&, const PhotoObj&) { return true; },
      dataflow::PairSearchOptions{});
  // Verify each reported pair's separation via the catalog positions.
  std::map<uint64_t, Vec3> pos;
  store_->ForEachObject(
      [&](const PhotoObj& o) { pos[o.obj_id] = o.pos; });
  for (const auto& p : pairs) {
    ASSERT_TRUE(pos.count(p.obj_id_a) && pos.count(p.obj_id_b));
    double sep = RadToArcsec(pos[p.obj_id_a].AngleTo(pos[p.obj_id_b]));
    EXPECT_NEAR(sep, p.separation_arcsec, 1e-6);
    EXPECT_LE(sep, 30.0 + 1e-9);
  }
}

}  // namespace
}  // namespace sdss
