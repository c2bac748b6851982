// EXPLAIN shows where a fleet plan is split: every multi-shard plan runs
// as one coordinator tree over GATHER nodes, each gather carrying the
// merge it performs (ordered on the sort key or ASAP, ghost exchange and
// pair dedupe for a neighbor join), while a one-shard fleet and a
// personal (mydb) read run their logical tree whole, with no gather.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "archive/mydb.h"
#include "archive/sharded_store.h"
#include "federation/federation_test_util.h"
#include "query/federated_engine.h"

namespace sdss::query {
namespace {

using archive::ShardedStore;

const char kLens[] =
    "FROM photo AS a JOIN photo AS b WITHIN 60 ARCSEC "
    "WHERE a.g - a.r - b.g + b.r < 0.05 AND b.g - b.r - a.g + a.r < 0.05";

/// The plan tree of an EXPLAIN (the lines above "store:"), with SCAN and
/// PAIR_JOIN lines cut to their node name: their predicates are not what
/// these tests pin.
std::string TreeShape(const std::string& explain) {
  std::istringstream in(explain);
  std::string line, out;
  while (std::getline(in, line) && line.rfind("store:", 0) != 0) {
    const size_t name = line.find_first_not_of(' ');
    const bool leaf = line.compare(name, 4, "SCAN") == 0 ||
                      line.compare(name, 9, "PAIR_JOIN") == 0;
    out += leaf ? line.substr(0, line.find(' ', name)) : line;
    out += '\n';
  }
  return out;
}

class DistributedPlanTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    store_ = new catalog::ObjectStore(
        federation_test::MakeSky(2701, 2500, 2000, 60));
    sharded_ = new ShardedStore(*store_, {4, 2});
  }
  static void TearDownTestSuite() {
    delete sharded_;
    delete store_;
    sharded_ = nullptr;
    store_ = nullptr;
  }

  /// The tree a 4-shard fleet's EXPLAIN shows for `sql`.
  static std::string FleetShape(const std::string& sql) {
    auto shards = sharded_->LiveShards();
    EXPECT_TRUE(shards.ok());
    if (!shards.ok()) return "";
    FederatedQueryEngine fed(*shards);
    auto explain = fed.Explain(sql);
    EXPECT_TRUE(explain.ok()) << explain.status().ToString();
    if (!explain.ok()) return "";
    EXPECT_NE(explain->find("federation: 4 live shards"), std::string::npos)
        << *explain;
    return TreeShape(*explain);
  }

  static catalog::ObjectStore* store_;
  static ShardedStore* sharded_;
};

catalog::ObjectStore* DistributedPlanTest::store_ = nullptr;
ShardedStore* DistributedPlanTest::sharded_ = nullptr;

TEST_F(DistributedPlanTest, OrderedLimitTrimsAboveAnOrderedGather) {
  EXPECT_EQ(FleetShape("SELECT obj_id, r FROM photo WHERE r < 21 "
                       "ORDER BY r LIMIT 50"),
            "LIMIT 50\n"
            "  GATHER ordered by column 1 asc\n"
            "    LIMIT 50\n"
            "      SORT by column 1 asc\n"
            "        SCAN\n");
}

TEST_F(DistributedPlanTest, DecomposableAggregateCombinesShardPartials) {
  EXPECT_EQ(FleetShape("SELECT AVG(g) FROM photo WHERE class = 'GALAXY'"),
            "AGGREGATE AVG\n"
            "  GATHER asap\n"
            "    AGGREGATE AVG [partial]\n"
            "      SCAN\n");
}

TEST_F(DistributedPlanTest, LimitCappedAggregateFoldsTheTrimmedRows) {
  EXPECT_EQ(FleetShape("SELECT COUNT(*) FROM photo WHERE r < 21 LIMIT 50"),
            "AGGREGATE COUNT\n"
            "  LIMIT 50\n"
            "    GATHER asap\n"
            "      LIMIT 50\n"
            "        SCAN\n");
}

TEST_F(DistributedPlanTest, JoinGathersWithGhostsAndPairDedupe) {
  EXPECT_EQ(FleetShape(std::string("SELECT a.obj_id, b.obj_id, sep ") +
                       kLens),
            "GATHER asap [ghost exchange, pair dedupe]\n"
            "  PAIR_JOIN\n");
  // Pairs only exist after the merge: an aggregate over them folds the
  // gathered rows instead of shard partials.
  EXPECT_EQ(FleetShape(std::string("SELECT COUNT(*) ") + kLens),
            "AGGREGATE COUNT\n"
            "  GATHER asap [ghost exchange, pair dedupe]\n"
            "    PAIR_JOIN\n");
}

TEST_F(DistributedPlanTest, BranchLimitedSetGathersEachBranch) {
  EXPECT_EQ(FleetShape("SELECT obj_id, r FROM photo WHERE r < 21 "
                       "ORDER BY r LIMIT 30 UNION SELECT obj_id, r FROM "
                       "photo WHERE class = 'QSO'"),
            "UNION\n"
            "  LIMIT 30\n"
            "    GATHER ordered by column 1 asc\n"
            "      LIMIT 30\n"
            "        SORT by column 1 asc\n"
            "          SCAN\n"
            "  GATHER asap\n"
            "    SCAN\n");
}

TEST_F(DistributedPlanTest, ShardLocalSetRunsWholeUnderOneGather) {
  EXPECT_EQ(FleetShape("SELECT obj_id, r FROM photo WHERE class = 'QSO' "
                       "UNION SELECT obj_id, r FROM photo WHERE r < 18.5"),
            "GATHER asap\n"
            "  UNION\n"
            "    SCAN\n"
            "    SCAN\n");
}

TEST_F(DistributedPlanTest, OneShardFleetAndMyDbReadHaveNoGather) {
  FederatedQueryEngine single({Shard{0, store_, nullptr}});
  auto one = single.Explain(
      "SELECT obj_id, r FROM photo WHERE r < 21 ORDER BY r LIMIT 50");
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_EQ(TreeShape(*one),
            "LIMIT 50\n"
            "  SORT by column 1 asc\n"
            "    SCAN\n");

  archive::MyDb mydb;
  std::vector<catalog::PhotoObj> bright;
  store_->ForEachObject([&bright](const catalog::PhotoObj& o) {
    if (o.mag[catalog::kR] < 20.0f) bright.push_back(o);
  });
  ASSERT_TRUE(mydb.Put("alice", "bright", std::move(bright)).ok());
  auto shards = sharded_->LiveShards();
  ASSERT_TRUE(shards.ok());
  FederatedQueryEngine fed(*shards);
  ExecContext ctx;
  ctx.mydb = mydb.ResolverFor("alice");
  auto personal = fed.Explain("SELECT AVG(r) FROM mydb.bright", ctx);
  ASSERT_TRUE(personal.ok()) << personal.status().ToString();
  EXPECT_EQ(TreeShape(*personal),
            "AGGREGATE AVG\n"
            "  MYDB_SCAN mydb.bright\n");
}

}  // namespace
}  // namespace sdss::query
