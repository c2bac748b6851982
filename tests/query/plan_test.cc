// Planner tests: the QET shapes BuildPlan produces, planner flags,
// validation errors, and the plan explanation format.

#include <gtest/gtest.h>

#include <memory>

#include "catalog/sky_generator.h"
#include "query/qet.h"

namespace sdss::query {
namespace {

using catalog::ObjectStore;
using catalog::SkyGenerator;
using catalog::SkyModel;

class PlanTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SkyModel m;
    m.seed = 61;
    m.num_galaxies = 1000;
    m.num_stars = 500;
    m.num_quasars = 20;
    store_ = new ObjectStore();
    ASSERT_TRUE(store_->BulkLoad(SkyGenerator(m).Generate()).ok());
  }
  static void TearDownTestSuite() {
    delete store_;
    store_ = nullptr;
  }

  static Result<Plan> PlanFor(const std::string& sql,
                              PlannerOptions opt = {}) {
    auto parsed = Parse(sql);
    if (!parsed.ok()) return parsed.status();
    return BuildPlan(*parsed, *store_, opt);
  }

  static ObjectStore* store_;
};

ObjectStore* PlanTest::store_ = nullptr;

TEST_F(PlanTest, SimpleSelectIsAScanLeaf) {
  auto plan = PlanFor("SELECT obj_id, r FROM photo WHERE r < 20");
  ASSERT_TRUE(plan.ok());
  ASSERT_NE(plan->root, nullptr);
  EXPECT_EQ(plan->root->type, PlanNodeType::kScan);
  EXPECT_TRUE(plan->root->children.empty());
  EXPECT_EQ(plan->columns, (std::vector<std::string>{"obj_id", "r"}));
  EXPECT_FALSE(plan->is_aggregate);
}

TEST_F(PlanTest, OrderLimitStackOnTopOfScan) {
  auto plan =
      PlanFor("SELECT obj_id, r FROM photo ORDER BY r DESC LIMIT 7");
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->root->type, PlanNodeType::kLimit);
  EXPECT_EQ(plan->root->limit, 7);
  ASSERT_EQ(plan->root->children.size(), 1u);
  const PlanNode* sort = plan->root->children[0].get();
  EXPECT_EQ(sort->type, PlanNodeType::kSort);
  EXPECT_TRUE(sort->sort_desc);
  EXPECT_EQ(sort->sort_column, 1u);  // "r" is the second projection.
  ASSERT_EQ(sort->children.size(), 1u);
  EXPECT_EQ(sort->children[0]->type, PlanNodeType::kScan);
}

TEST_F(PlanTest, AggregateWrapsScan) {
  auto plan = PlanFor("SELECT AVG(r) FROM photo WHERE r < 20");
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->is_aggregate);
  ASSERT_EQ(plan->root->type, PlanNodeType::kAggregate);
  EXPECT_EQ(plan->root->agg, AggFunc::kAvg);
  EXPECT_EQ(plan->columns, (std::vector<std::string>{"AVG(r)"}));
}

TEST_F(PlanTest, SetQueryBuildsLeftDeepTree) {
  auto plan = PlanFor(
      "SELECT obj_id FROM photo WHERE r < 20 "
      "UNION SELECT obj_id FROM photo WHERE g < 20 "
      "EXCEPT SELECT obj_id FROM photo WHERE i < 15");
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->root->type, PlanNodeType::kDifference);
  ASSERT_EQ(plan->root->children.size(), 2u);
  EXPECT_EQ(plan->root->children[0]->type, PlanNodeType::kUnion);
  EXPECT_EQ(plan->root->children[1]->type, PlanNodeType::kScan);
}

TEST_F(PlanTest, SetQueryPredictionSumsEveryBranch) {
  // A cone joined to a full sweep reads both: pricing the set by its
  // first branch alone would call a sweep cheap.
  auto cone = PlanFor(
      "SELECT obj_id, r FROM photo WHERE CIRCLE('GAL', 30, 70, 2)");
  auto sweep = PlanFor("SELECT obj_id, r FROM photo WHERE class = 'QSO'");
  auto both = PlanFor(
      "SELECT obj_id, r FROM photo WHERE CIRCLE('GAL', 30, 70, 2) UNION "
      "SELECT obj_id, r FROM photo WHERE class = 'QSO'");
  ASSERT_TRUE(cone.ok() && sweep.ok() && both.ok());
  EXPECT_EQ(both->prediction.bytes_to_scan,
            cone->prediction.bytes_to_scan + sweep->prediction.bytes_to_scan);
  EXPECT_EQ(both->prediction.max_objects,
            cone->prediction.max_objects + sweep->prediction.max_objects);
}

TEST_F(PlanTest, SetQueryColumnCountMismatchRejected) {
  auto plan = PlanFor(
      "SELECT obj_id FROM photo UNION SELECT obj_id, r FROM photo");
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PlanTest, TagSelectionFlagTracksAttributes) {
  auto tag_plan = PlanFor("SELECT obj_id, r FROM photo WHERE g < 20");
  ASSERT_TRUE(tag_plan.ok());
  EXPECT_TRUE(tag_plan->used_tag_store);

  auto full_plan =
      PlanFor("SELECT obj_id, redshift FROM photo WHERE g < 20");
  ASSERT_TRUE(full_plan.ok());
  EXPECT_FALSE(full_plan->used_tag_store);

  PlannerOptions no_auto;
  no_auto.auto_tag_selection = false;
  auto manual = PlanFor("SELECT obj_id, r FROM photo", no_auto);
  ASSERT_TRUE(manual.ok());
  EXPECT_FALSE(manual->used_tag_store);
}

TEST_F(PlanTest, SpatialIndexFlagTracksRegionExtraction) {
  auto spatial = PlanFor(
      "SELECT obj_id FROM photo WHERE CIRCLE(10, 10, 1) AND r < 20");
  ASSERT_TRUE(spatial.ok());
  EXPECT_TRUE(spatial->used_spatial_index);

  auto plain = PlanFor("SELECT obj_id FROM photo WHERE r < 20");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->used_spatial_index);

  PlannerOptions no_index;
  no_index.use_spatial_index = false;
  auto disabled =
      PlanFor("SELECT obj_id FROM photo WHERE CIRCLE(10, 10, 1)", no_index);
  ASSERT_TRUE(disabled.ok());
  EXPECT_FALSE(disabled->used_spatial_index);
}

TEST_F(PlanTest, PredictionFilledForSpatialAndFullScans) {
  auto spatial =
      PlanFor("SELECT obj_id FROM photo WHERE CIRCLE(180, 40, 5)");
  ASSERT_TRUE(spatial.ok());
  EXPECT_LE(spatial->prediction.min_objects,
            spatial->prediction.max_objects);

  auto full = PlanFor("SELECT obj_id FROM photo");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->prediction.max_objects, store_->object_count());
  EXPECT_EQ(full->prediction.bytes_to_scan, store_->Stats().full_bytes);
}

TEST_F(PlanTest, SelectStarProjectsEverything) {
  PlannerOptions no_auto;
  no_auto.auto_tag_selection = false;
  auto plan = PlanFor("SELECT * FROM photo", no_auto);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->columns.size(), catalog::PhotoAttributeNames().size());

  auto tag_star = PlanFor("SELECT * FROM tag");
  ASSERT_TRUE(tag_star.ok());
  EXPECT_EQ(tag_star->columns.size(), 10u);  // The ten tag attributes.
}

TEST_F(PlanTest, ExplainNamesAllNodes) {
  auto plan = PlanFor(
      "SELECT obj_id FROM photo WHERE CIRCLE(10, 10, 1) AND r < 20 "
      "ORDER BY r LIMIT 3");
  ASSERT_TRUE(plan.ok());
  std::string text = plan->Explain();
  EXPECT_NE(text.find("LIMIT 3"), std::string::npos);
  EXPECT_NE(text.find("SORT"), std::string::npos);
  EXPECT_NE(text.find("SCAN"), std::string::npos);
  EXPECT_NE(text.find("spatially pruned"), std::string::npos);
  EXPECT_NE(text.find("store: tag partition"), std::string::npos);
}

TEST_F(PlanTest, SampleCarriedIntoScanNode) {
  auto plan = PlanFor("SELECT obj_id FROM photo SAMPLE 0.25");
  ASSERT_TRUE(plan.ok());
  EXPECT_DOUBLE_EQ(plan->root->sample, 0.25);
}

class MyDbPlanTest : public PlanTest {
 protected:
  static PlannerOptions WithResolver() {
    PlannerOptions opt;
    opt.mydb = [](const std::string& name)
        -> std::shared_ptr<const ObjectStore> {
      return name == "bright" ? personal_ : nullptr;
    };
    return opt;
  }

  static void SetUpTestSuite() {
    PlanTest::SetUpTestSuite();
    catalog::StoreOptions so;
    so.build_tags = false;
    personal_ = std::make_shared<ObjectStore>(so);
    ASSERT_TRUE(personal_->BulkLoad(store_->Sample(0.2, 9)
                                        .containers()
                                        .begin()
                                        ->second.columnar.Materialize())
                    .ok());
  }
  static void TearDownTestSuite() {
    personal_.reset();
    PlanTest::TearDownTestSuite();
  }

  static std::shared_ptr<ObjectStore> personal_;
};

std::shared_ptr<ObjectStore> MyDbPlanTest::personal_;

TEST_F(MyDbPlanTest, MyDbSelectLowersToMyDbScanLeaf) {
  auto plan = PlanFor("SELECT obj_id, r FROM mydb.bright WHERE r < 20",
                      WithResolver());
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root->type, PlanNodeType::kMyDbScan);
  EXPECT_EQ(plan->root->mydb_store, personal_);
  EXPECT_EQ(plan->root->mydb_name, "bright");
  // The density-map prediction prices the personal store, not the fleet.
  EXPECT_EQ(plan->prediction.bytes_to_scan,
            personal_->Stats().full_bytes);
  EXPECT_NE(plan->Explain().find("MYDB_SCAN mydb.bright"),
            std::string::npos);
}

TEST_F(MyDbPlanTest, MyDbAggregateKeepsPushdownShape) {
  auto plan = PlanFor("SELECT COUNT(*) FROM mydb.bright", WithResolver());
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->root->type, PlanNodeType::kAggregate);
  EXPECT_EQ(plan->root->children[0]->type, PlanNodeType::kMyDbScan);
}

TEST_F(MyDbPlanTest, MyDbErrors) {
  // Unknown table, missing resolver, and fleet/mydb set-op mixing are
  // all plan-time refusals.
  EXPECT_EQ(PlanFor("SELECT * FROM mydb.nope", WithResolver())
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(PlanFor("SELECT * FROM mydb.bright").ok());
  EXPECT_FALSE(PlanFor("SELECT obj_id FROM mydb.bright UNION "
                       "SELECT obj_id FROM photo",
                       WithResolver())
                   .ok());
  EXPECT_FALSE(PlanFor("SELECT nonsense FROM mydb.bright",
                       WithResolver())
                   .ok());
}

TEST_F(MyDbPlanTest, MyDbSetQueryOverOnePersonalStoreIsAllowed) {
  auto plan = PlanFor("SELECT obj_id FROM mydb.bright WHERE r < 19 UNION "
                      "SELECT obj_id FROM mydb.bright WHERE r > 21",
                      WithResolver());
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root->type, PlanNodeType::kUnion);
}

TEST_F(PlanTest, TagAutoSelectionRequiresTagPartition) {
  catalog::StoreOptions so;
  so.build_tags = false;
  ObjectStore tagless(so);
  SkyModel m;
  m.seed = 62;
  m.num_galaxies = 200;
  m.num_stars = 100;
  m.num_quasars = 5;
  ASSERT_TRUE(tagless.BulkLoad(SkyGenerator(m).Generate()).ok());

  auto parsed = Parse("SELECT obj_id, r FROM photo WHERE r < 20");
  ASSERT_TRUE(parsed.ok());
  auto plan = BuildPlan(*parsed, tagless, PlannerOptions{});
  ASSERT_TRUE(plan.ok());
  // All referenced attributes live in the tag, but the store has no tag
  // partition: the rewrite would scan nothing, so it must not fire.
  EXPECT_FALSE(plan->used_tag_store);
  EXPECT_EQ(plan->root->table, TableRef::kPhoto);
}

}  // namespace
}  // namespace sdss::query
