// Federated engine behaviors added for the batch workbench: personal
// mydb stores execute locally (no fan-out duplication), a table no live
// shard can serve is a clean error instead of a silently empty result,
// job-scoped cancellation aborts a fan-out, and EstimateCost prices
// queries for lane admission.

#include <atomic>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "archive/mydb.h"
#include "archive/sharded_store.h"
#include "federation/federation_test_util.h"
#include "query/federated_engine.h"

namespace sdss::federation_test {
namespace {

using archive::MyDb;
using archive::ReplicationOptions;
using archive::ShardedStore;
using query::ExecContext;
using query::FederatedQueryEngine;

ReplicationOptions FourServers() {
  ReplicationOptions repl;
  repl.num_servers = 4;
  repl.base_replicas = 2;
  return repl;
}

TEST(FederationMyDbTest, TaglessFleetRefusesTagTableCleanly) {
  catalog::StoreOptions so;
  so.build_tags = false;
  catalog::ObjectStore tagless(so);
  {
    catalog::SkyModel m;
    m.seed = 901;
    m.num_galaxies = 1500;
    m.num_stars = 1000;
    m.num_quasars = 30;
    ASSERT_TRUE(
        tagless.BulkLoad(catalog::SkyGenerator(m).Generate()).ok());
  }
  ShardedStore sharded(tagless, FourServers());
  auto shards = sharded.LiveShards();
  ASSERT_TRUE(shards.ok());
  FederatedQueryEngine fed(*shards);

  // Regression: this used to stream zero rows and report success.
  auto res = fed.Execute("SELECT obj_id, r FROM tag WHERE r < 20");
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kNotFound);
  EXPECT_NE(res.status().message().find("no live shard"),
            std::string::npos);

  // A photo query whose attributes all fit the tag must still answer
  // (from the full objects) rather than auto-select the absent tag.
  auto photo = fed.Execute("SELECT obj_id, r FROM photo WHERE r < 20");
  ASSERT_TRUE(photo.ok());
  EXPECT_FALSE(photo->used_tag_store);
  EXPECT_GT(photo->rows.size(), 0u);
}

class FederationMyDbFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    store_ = new catalog::ObjectStore(MakeSky(902, 3000, 2500, 80));
    sharded_ = new ShardedStore(*store_, FourServers());
    auto shards = sharded_->LiveShards();
    ASSERT_TRUE(shards.ok());
    fed_ = new FederatedQueryEngine(*shards);
    mydb_ = new MyDb();

    // Materialize "bright" (r < 20.5) for user "miner" by hand -- the
    // scheduler's INTO path is exercised in the workbench suite.
    std::vector<catalog::PhotoObj> bright;
    store_->ForEachObject([&bright](const catalog::PhotoObj& o) {
      if (o.mag[catalog::kR] < 20.5f) bright.push_back(o);
    });
    ASSERT_FALSE(bright.empty());
    bright_count_ = bright.size();
    ASSERT_TRUE(mydb_->Put("miner", "bright", std::move(bright)).ok());
  }
  static void TearDownTestSuite() {
    delete fed_;
    delete mydb_;
    delete sharded_;
    delete store_;
    fed_ = nullptr;
    mydb_ = nullptr;
    sharded_ = nullptr;
    store_ = nullptr;
  }

  static ExecContext Miner() {
    ExecContext ctx;
    ctx.mydb = mydb_->ResolverFor("miner");
    return ctx;
  }

  static catalog::ObjectStore* store_;
  static ShardedStore* sharded_;
  static FederatedQueryEngine* fed_;
  static MyDb* mydb_;
  static size_t bright_count_;
};

catalog::ObjectStore* FederationMyDbFixture::store_ = nullptr;
ShardedStore* FederationMyDbFixture::sharded_ = nullptr;
FederatedQueryEngine* FederationMyDbFixture::fed_ = nullptr;
MyDb* FederationMyDbFixture::mydb_ = nullptr;
size_t FederationMyDbFixture::bright_count_ = 0;

TEST_F(FederationMyDbFixture, MyDbQueriesMatchFleetGroundTruth) {
  // COUNT over the personal store = the materialized predicate's count.
  auto count = fed_->Execute("SELECT COUNT(*) FROM mydb.bright", Miner());
  ASSERT_TRUE(count.ok());
  EXPECT_DOUBLE_EQ(count->aggregate_value,
                   static_cast<double>(bright_count_));

  // A refinement over mydb equals the conjoined predicate on the fleet.
  auto refined = fed_->Execute(
      "SELECT obj_id FROM mydb.bright WHERE g - r < 0.6", Miner());
  auto truth = fed_->Execute(
      "SELECT obj_id FROM photo WHERE r < 20.5 AND g - r < 0.6");
  ASSERT_TRUE(refined.ok());
  ASSERT_TRUE(truth.ok());
  ExpectEquivalent(*truth, *refined, CompareMode::kMultiset,
                   "mydb refinement");

  // ORDER/LIMIT on the personal store behaves like a single store.
  auto ordered = fed_->Execute(
      "SELECT obj_id, r FROM mydb.bright ORDER BY r LIMIT 20", Miner());
  ASSERT_TRUE(ordered.ok());
  ASSERT_EQ(ordered->rows.size(), 20u);
  for (size_t i = 1; i < ordered->rows.size(); ++i) {
    EXPECT_LE(ordered->rows[i - 1].values[1], ordered->rows[i].values[1]);
  }
}

TEST_F(FederationMyDbFixture, EngineRefusesIntoWithoutASink) {
  // Only the workbench owns an INTO materialization sink; the bare
  // engine must refuse rather than run the select and store nothing.
  auto direct = fed_->Execute("SELECT * INTO mydb.x FROM photo", Miner());
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.status().code(), StatusCode::kInvalidArgument);
  auto streaming = fed_->ExecuteStreaming(
      "SELECT * INTO mydb.x FROM photo",
      [](const query::RowBatch&) { return true; }, Miner());
  EXPECT_FALSE(streaming.ok());
  // Pricing an INTO for admission stays legal.
  EXPECT_TRUE(
      fed_->EstimateCost("SELECT * INTO mydb.x FROM photo", Miner()).ok());

  FederatedQueryEngine single = SingleStore(store_);
  EXPECT_FALSE(single.Execute("SELECT * INTO mydb.x FROM photo").ok());
}

TEST_F(FederationMyDbFixture, MyDbNamespaceIsPerUser) {
  ExecContext stranger;
  stranger.mydb = mydb_->ResolverFor("stranger");
  auto res = fed_->Execute("SELECT COUNT(*) FROM mydb.bright", stranger);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kNotFound);
}

TEST_F(FederationMyDbFixture, CancelFlagAbortsFanOutDeterministically) {
  // Tiny batches keep the scan producers alive (blocked on channel
  // backpressure) long past the first delivered batch, so the raised
  // flag is ALWAYS observed mid-scan -- no timing dependence.
  FederatedQueryEngine::Options opt;
  opt.executor.batch_size = 8;
  auto shards = sharded_->LiveShards();
  ASSERT_TRUE(shards.ok());
  FederatedQueryEngine fed(*shards, opt);

  std::atomic<bool> cancel{false};
  ExecContext ctx;
  ctx.cancel = &cancel;
  size_t batches = 0;
  auto res = fed.ExecuteStreaming(
      "SELECT obj_id, r FROM photo",
      [&](const query::RowBatch& batch) {
        (void)batch;
        // Raise the job's flag mid-stream: the shard executors must
        // notice at their next per-object cancellation point.
        ++batches;
        cancel.store(true);
        return true;
      },
      ctx);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kCancelled);
  EXPECT_GE(batches, 1u);
}

TEST_F(FederationMyDbFixture, EstimateCostPricesLanes) {
  auto full = fed_->EstimateCost("SELECT COUNT(*) FROM photo");
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full->personal_store);
  EXPECT_EQ(full->bytes_to_scan,
            store_->object_count() * sizeof(catalog::PhotoObj));

  auto pruned = fed_->EstimateCost(
      "SELECT COUNT(*) FROM photo WHERE CIRCLE('GAL', 30, 70, 3)");
  ASSERT_TRUE(pruned.ok());
  EXPECT_LT(pruned->bytes_to_scan, full->bytes_to_scan);

  auto join = fed_->EstimateCost(
      "SELECT COUNT(*) FROM photo AS a JOIN photoobj AS b "
      "WITHIN 30 ARCSEC");
  ASSERT_TRUE(join.ok());
  EXPECT_GT(join->bytes_shipped, 0u);

  auto personal =
      fed_->EstimateCost("SELECT COUNT(*) FROM mydb.bright", Miner());
  ASSERT_TRUE(personal.ok());
  EXPECT_TRUE(personal->personal_store);
  EXPECT_EQ(personal->bytes_shipped, 0u);
  EXPECT_LT(personal->bytes_to_scan, full->bytes_to_scan);
}

}  // namespace
}  // namespace sdss::federation_test
