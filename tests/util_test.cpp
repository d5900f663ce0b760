#include <gtest/gtest.h>

#include <vector>

#include "util/random.h"
#include "util/status.h"
#include "util/stringutil.h"

namespace regal {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad thing");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad thing");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kFailedPrecondition,
        StatusCode::kOutOfRange, StatusCode::kUnimplemented,
        StatusCode::kResourceExhausted, StatusCode::kInternal,
        StatusCode::kDeadlineExceeded, StatusCode::kCancelled}) {
    EXPECT_STRNE(StatusCodeToString(code), "UNKNOWN");
  }
}

TEST(StatusTest, GovernanceFactories) {
  EXPECT_EQ(Status::DeadlineExceeded("late").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Status::Cancelled("stop").ToString(), "CANCELLED: stop");
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Result<int> DoublePositive(int x) {
  REGAL_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, ValuePath) {
  Result<int> r = DoublePositive(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, ErrorPath) {
  Result<int> r = DoublePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r = std::vector<int>{1, 2, 3};
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

TEST(ResultTest, StatusOnRvalue) {
  EXPECT_EQ(DoublePositive(-5).status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(DoublePositive(5).status().ok());
}

TEST(ResultTest, ValueOrDieReturnsValue) {
  Result<int> r = ParsePositive(7);
  EXPECT_EQ(r.ValueOrDie(), 7);
  EXPECT_EQ(ParsePositive(9).ValueOrDie(), 9);  // Rvalue overload.
}

// Error access must abort with the carried code and message on stderr —
// not an opaque std::bad_variant_access.
TEST(ResultDeathTest, ValueOnErrorAbortsWithStatus) {
  Result<int> r = ParsePositive(-1);
  EXPECT_DEATH(r.value(), "INVALID_ARGUMENT: not positive");
}

TEST(ResultDeathTest, ValueOrDieOnErrorAbortsWithStatus) {
  EXPECT_DEATH(ParsePositive(0).ValueOrDie(),
               "Result<T> accessed without a value");
}

TEST(ResultDeathTest, DerefOnErrorAbortsWithStatus) {
  Result<std::vector<int>> r = Status::NotFound("no rows");
  EXPECT_DEATH((void)r->size(), "NOT_FOUND: no rows");
}

TEST(RngTest, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, BelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Below(13), 13u);
}

TEST(RngTest, BetweenInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.Between(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(9);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

TEST(StringUtilTest, Split) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, ToLowerAscii) {
  EXPECT_EQ(ToLowerAscii("AbC_1"), "abc_1");
}

TEST(StringUtilTest, Affixes) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_FALSE(StartsWith("hello", "el"));
  EXPECT_TRUE(EndsWith("hello", "lo"));
  EXPECT_FALSE(EndsWith("hello", "he"));
}

TEST(StringUtilTest, StripAscii) {
  EXPECT_EQ(StripAscii("  x \t\n"), "x");
  EXPECT_EQ(StripAscii(""), "");
  EXPECT_EQ(StripAscii(" \t "), "");
}

}  // namespace
}  // namespace regal
