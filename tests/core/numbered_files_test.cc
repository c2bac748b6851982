// NumberedFiles: the `<prefix>NNNNNN<suffix>` naming, listing and
// pruning the journal's segments and the event log's files share.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/io.h"

namespace sdss {
namespace {

namespace fs = std::filesystem;

constexpr NumberedFiles kFiles("seg-", ".log");

class NumberedFilesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("numbered_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  void Touch(const std::string& name) { std::ofstream(dir_ / name) << "x"; }
  std::string dir() const { return dir_.string(); }

  fs::path dir_;
};

TEST(NumberedFilesNameTest, NameAndParseRoundTrip) {
  EXPECT_EQ(kFiles.Name(1), "seg-000001.log");
  EXPECT_EQ(kFiles.Name(42), "seg-000042.log");
  EXPECT_EQ(kFiles.Name(999999), "seg-999999.log");
  EXPECT_EQ(kFiles.Name(1000000), "seg-1000000.log");  // Widens.
  for (uint64_t n : {1ull, 7ull, 999999ull, 1000000ull, 123456789ull}) {
    EXPECT_EQ(kFiles.Parse(kFiles.Name(n)), n) << n;
  }
  EXPECT_EQ(kFiles.Parse("seg-12.log"), 12u);  // Unpadded still parses.
}

TEST(NumberedFilesNameTest, ParseRejectsNonMembers) {
  // Wrong prefix or suffix.
  EXPECT_EQ(kFiles.Parse("log-000001.log"), 0u);
  EXPECT_EQ(kFiles.Parse("seg-000001.txt"), 0u);
  EXPECT_EQ(kFiles.Parse("seg-000001.log.tmp"), 0u);
  // Non-digits.
  EXPECT_EQ(kFiles.Parse("seg-00a001.log"), 0u);
  EXPECT_EQ(kFiles.Parse("seg--00001.log"), 0u);
  // An empty number.
  EXPECT_EQ(kFiles.Parse("seg-.log"), 0u);
  EXPECT_EQ(kFiles.Parse("seg-"), 0u);
  EXPECT_EQ(kFiles.Parse(""), 0u);
  // Numbers start at 1 and fit 64 bits.
  EXPECT_EQ(kFiles.Parse("seg-000000.log"), 0u);
  EXPECT_EQ(kFiles.Parse("seg-99999999999999999999.log"), 0u);
}

TEST_F(NumberedFilesTest, ListIsNumericPastTheSixDigitWidth) {
  Touch(kFiles.Name(1000000));
  Touch(kFiles.Name(999999));
  Touch(kFiles.Name(2));
  Touch("seg-notes.log");  // Not a member.
  Touch("other-000001.log");
  EXPECT_EQ(kFiles.List(dir()),
            (std::vector<std::string>{"seg-000002.log", "seg-999999.log",
                                      "seg-1000000.log"}));
  EXPECT_EQ(kFiles.Next(dir()), 1000001u);
}

TEST_F(NumberedFilesTest, ListOfMissingDirectoryIsEmpty) {
  EXPECT_TRUE(kFiles.List((dir_ / "missing").string()).empty());
  EXPECT_EQ(kFiles.Next((dir_ / "missing").string()), 1u);
}

TEST_F(NumberedFilesTest, NextOnEmptyDirectoryIsOne) {
  EXPECT_EQ(kFiles.Next(dir()), 1u);
  Touch("unrelated.txt");
  EXPECT_EQ(kFiles.Next(dir()), 1u);
}

TEST_F(NumberedFilesTest, NextIsMaxPlusOneAcrossGaps) {
  Touch(kFiles.Name(3));
  Touch(kFiles.Name(9));
  Touch(kFiles.Name(5));
  EXPECT_EQ(kFiles.Next(dir()), 10u);
}

TEST_F(NumberedFilesTest, PruneOldestKeepsTheNewestN) {
  for (uint64_t n : {1, 2, 4, 7, 8}) Touch(kFiles.Name(n));
  Touch("unrelated.txt");
  kFiles.PruneOldest(dir(), 2);
  EXPECT_EQ(kFiles.List(dir()),
            (std::vector<std::string>{"seg-000007.log", "seg-000008.log"}));
  EXPECT_TRUE(fs::exists(dir_ / "unrelated.txt"));  // Non-members stay.

  // Fewer members than `keep`: nothing to do.
  kFiles.PruneOldest(dir(), 5);
  EXPECT_EQ(kFiles.List(dir()).size(), 2u);
  kFiles.PruneOldest(dir(), 0);
  EXPECT_TRUE(kFiles.List(dir()).empty());
}

}  // namespace
}  // namespace sdss
