// Build-graph smoke test: links every module library and exercises one
// symbol *defined in a .cc file* of each, so a broken inter-module link
// dependency fails here rather than deep inside a feature test.

#include <gtest/gtest.h>

#include <string>

#include "archive/archive.h"
#include "catalog/photo_obj.h"
#include "core/status.h"
#include "dataflow/cluster.h"
#include "fits/card.h"
#include "htm/htm_id.h"
#include "persist/journal.h"
#include "query/parser.h"
#include "server/protocol.h"
#include "workbench/scheduler.h"

namespace {

TEST(LinkSanityTest, CoreStatusCodeName) {
  EXPECT_STREQ(sdss::StatusCodeName(sdss::StatusCode::kOk), "OK");
}

TEST(LinkSanityTest, HtmBaseTrixel) {
  sdss::htm::HtmId id = sdss::htm::HtmId::Base(0);
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.level(), 0);
}

TEST(LinkSanityTest, FitsCardSerializesTo80Chars) {
  sdss::fits::Card card("SIMPLE", true, "conforms to FITS standard");
  EXPECT_EQ(card.Serialize().size(), 80u);
}

TEST(LinkSanityTest, CatalogObjClassRoundTrip) {
  const char* name =
      sdss::catalog::ObjClassName(sdss::catalog::ObjClass::kGalaxy);
  auto parsed = sdss::catalog::ObjClassFromName(name);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), sdss::catalog::ObjClass::kGalaxy);
}

TEST(LinkSanityTest, DataflowClusterConstructs) {
  sdss::dataflow::ClusterSim cluster{sdss::dataflow::ClusterConfig{}};
  EXPECT_EQ(cluster.num_nodes(), 20u);
}

TEST(LinkSanityTest, PersistListsNoSegmentsOfAMissingDir) {
  EXPECT_TRUE(sdss::persist::ListJournalSegments("no_such_dir").empty());
}

TEST(LinkSanityTest, QueryParserAccepts) {
  auto parsed = sdss::query::Parse("SELECT COUNT(*) FROM PHOTO WHERE r < 22");
  EXPECT_TRUE(parsed.ok());
}

TEST(LinkSanityTest, ArchiveTierName) {
  EXPECT_NE(sdss::archive::TierName(sdss::archive::Tier::kTelescope),
            std::string());
}

TEST(LinkSanityTest, WorkbenchLaneName) {
  EXPECT_STREQ(sdss::workbench::LaneName(sdss::workbench::Lane::kLong),
               "LONG");
}

TEST(LinkSanityTest, ServerMsgTypeName) {
  EXPECT_STREQ(sdss::server::MsgTypeName(sdss::server::MsgType::kBusy),
               "BUSY");
}

}  // namespace
