#include "core/status.h"

#include <gtest/gtest.h>

namespace sdss {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad radius");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad radius");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad radius");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::Corruption("x").code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::NotSupported("x").code(), StatusCode::kNotSupported);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, FromCodeRebuildsADecodedStatus) {
  EXPECT_EQ(Status::FromCode(StatusCode::kAborted, "crash"),
            Status::Aborted("crash"));
  EXPECT_EQ(Status::FromCode(StatusCode::kUnavailable, "busy"),
            Status::Unavailable("busy"));
  EXPECT_EQ(Status::FromCode(StatusCode::kOk, "ignored"), Status::OK());
  // A code past the last known one (a newer writer, a flipped byte).
  EXPECT_EQ(Status::FromCode(static_cast<StatusCode>(200), "odd"),
            Status::Internal("odd"));
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::IOError("a"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOnlyValueWorks) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

TEST(ResultTest, ArrowOperatorReachesMembers) {
  Result<std::string> r = std::string("hello");
  EXPECT_EQ(r->size(), 5u);
}

Status Fails() { return Status::IOError("disk"); }
Status Propagate() {
  SDSS_RETURN_IF_ERROR(Fails());
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorMacroPropagates) {
  EXPECT_EQ(Propagate().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace sdss
