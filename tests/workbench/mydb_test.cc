// MyDb: per-user named stores, byte quotas (all-or-nothing Put), and
// query-engine integration through the planner resolver.

#include "archive/mydb.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "catalog/sky_generator.h"
#include "query/federated_engine.h"

namespace sdss::archive {
namespace {

std::vector<catalog::PhotoObj> MakeObjects(uint64_t seed, uint64_t count) {
  catalog::SkyModel m;
  m.seed = seed;
  m.num_galaxies = count;
  m.num_stars = 0;
  m.num_quasars = 0;
  return catalog::SkyGenerator(m).Generate();
}

TEST(MyDbTest, PutFindListDropWithByteAccounting) {
  MyDb mydb;
  auto objects = MakeObjects(5, 500);
  const uint64_t bytes = objects.size() * sizeof(catalog::PhotoObj);
  ASSERT_TRUE(mydb.Put("alice", "t1", objects).ok());
  EXPECT_EQ(mydb.UsedBytes("alice"), bytes);

  auto found = mydb.Find("alice", "t1");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ((*found)->object_count(), objects.size());
  EXPECT_EQ(mydb.List("alice"), std::vector<std::string>{"t1"});

  // Names are already taken per user, not globally.
  EXPECT_EQ(mydb.Put("alice", "t1", objects).code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(mydb.Put("bob", "t1", objects).ok());

  ASSERT_TRUE(mydb.Drop("alice", "t1").ok());
  EXPECT_EQ(mydb.UsedBytes("alice"), 0u);
  EXPECT_FALSE(mydb.Find("alice", "t1").ok());
  EXPECT_EQ(mydb.Drop("alice", "t1").code(), StatusCode::kNotFound);
  EXPECT_TRUE(mydb.Find("bob", "t1").ok());
}

TEST(MyDbTest, RejectsNamesThatAreUnsafeOnDisk) {
  MyDb mydb;
  auto objects = MakeObjects(7, 10);
  // Same rule as the parser (core ValidatePathComponent): a table or
  // user name is one safe path component or the Put is refused whole
  // with InvalidArgument.
  for (const char* bad : {"", "a/b", "..", "a..b", ".hidden", "a\\b"}) {
    auto s = mydb.Put("alice", bad, objects);
    ASSERT_FALSE(s.ok()) << "name '" << bad << "' accepted";
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  }
  std::string long_name(65, 'x');
  EXPECT_EQ(mydb.Put("alice", long_name, objects).code(),
            StatusCode::kInvalidArgument);
  // The user name is a path component too.
  EXPECT_EQ(mydb.Put("../alice", "t", objects).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(mydb.List("alice").empty());
  ASSERT_TRUE(mydb.Put("alice", std::string(64, 'x'), objects).ok());
}

TEST(MyDbTest, PerUserQuotaOverrides) {
  MyDb mydb;
  auto objects = MakeObjects(8, 100);
  const uint64_t bytes = objects.size() * sizeof(catalog::PhotoObj);
  // Shrink alice below the payload: refused; raise it back: accepted.
  ASSERT_TRUE(mydb.SetQuota("alice", bytes - 1).ok());
  EXPECT_EQ(mydb.QuotaBytes("alice"), bytes - 1);
  EXPECT_EQ(mydb.Put("alice", "t", objects).code(),
            StatusCode::kResourceExhausted);
  ASSERT_TRUE(mydb.SetQuota("alice", 2 * bytes).ok());
  EXPECT_TRUE(mydb.Put("alice", "t", objects).ok());
  EXPECT_EQ(mydb.RemainingBytes("alice"), bytes);
  // Other users keep the configured default.
  EXPECT_EQ(mydb.QuotaBytes("bob"), mydb.options().per_user_quota_bytes);
}

TEST(MyDbTest, QuotaRefusesWholePutNeverPartial) {
  MyDb::Options opt;
  opt.per_user_quota_bytes = 100 * sizeof(catalog::PhotoObj);
  MyDb mydb(opt);

  ASSERT_TRUE(mydb.Put("alice", "small", MakeObjects(6, 60)).ok());
  Status refused = mydb.Put("alice", "big", MakeObjects(7, 80));
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted);
  // Nothing of the refused table exists; the accepted one is intact.
  EXPECT_FALSE(mydb.Find("alice", "big").ok());
  EXPECT_EQ(mydb.List("alice"), std::vector<std::string>{"small"});
  EXPECT_EQ(mydb.RemainingBytes("alice"),
            40 * sizeof(catalog::PhotoObj));

  // Dropping frees quota for a retry.
  ASSERT_TRUE(mydb.Drop("alice", "small").ok());
  EXPECT_TRUE(mydb.Put("alice", "big", MakeObjects(7, 80)).ok());
}

TEST(MyDbTest, ResolverScopesToOneUser) {
  MyDb mydb;
  ASSERT_TRUE(mydb.Put("alice", "mine", MakeObjects(8, 50)).ok());
  query::MyDbResolver alice = mydb.ResolverFor("alice");
  query::MyDbResolver bob = mydb.ResolverFor("bob");
  EXPECT_NE(alice("mine"), nullptr);
  EXPECT_EQ(alice("other"), nullptr);
  EXPECT_EQ(bob("mine"), nullptr);
}

TEST(MyDbTest, StoresAnswerSpatialQueriesLikeTheArchive) {
  MyDb mydb;
  auto objects = MakeObjects(9, 2000);
  ASSERT_TRUE(mydb.Put("alice", "sky", objects).ok());

  // The materialized store is HTM-clustered: a spatial query through
  // the engine prunes containers and matches a brute-force filter.
  catalog::ObjectStore unused;  // Engine needs a base store; mydb scans
                                // carry their own.
  query::FederatedQueryEngine::Options opt;
  opt.planner.mydb = mydb.ResolverFor("alice");
  query::FederatedQueryEngine engine({query::Shard{0, &unused, nullptr}}, opt);

  auto res = engine.Execute(
      "SELECT COUNT(*) FROM mydb.sky WHERE CIRCLE('GAL', 40, 70, 8)");
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->used_spatial_index);

  auto all = engine.Execute("SELECT COUNT(*) FROM mydb.sky");
  ASSERT_TRUE(all.ok());
  EXPECT_DOUBLE_EQ(all->aggregate_value,
                   static_cast<double>(objects.size()));
  EXPECT_LT(res->aggregate_value, all->aggregate_value);
  EXPECT_GT(res->aggregate_value, 0.0);
}

}  // namespace
}  // namespace sdss::archive
