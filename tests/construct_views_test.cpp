#include <gtest/gtest.h>

#include <limits>

#include "core/construct.h"
#include "query/engine.h"

namespace regal {
namespace {

TEST(SpanJoinTest, NearestFollowingEnd) {
  RegionSet starts{Region{0, 1}, Region{10, 11}};
  RegionSet ends{Region{4, 5}, Region{6, 7}, Region{14, 15}};
  RegionSet spans = SpanJoin(starts, ends);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0], (Region{0, 5}));    // Nearest end, not [0,7].
  EXPECT_EQ(spans[1], (Region{10, 15}));
}

TEST(SpanJoinTest, StartWithoutEndDropped) {
  RegionSet starts{Region{0, 1}, Region{20, 21}};
  RegionSet ends{Region{4, 5}};
  RegionSet spans = SpanJoin(starts, ends);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0], (Region{0, 5}));
}

TEST(SpanJoinTest, EndMustStrictlyFollow) {
  // An end overlapping the start does not qualify (needs right(a) < left(b)).
  RegionSet starts{Region{0, 5}};
  RegionSet ends{Region{3, 8}, Region{9, 10}};
  RegionSet spans = SpanJoin(starts, ends);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0], (Region{0, 10}));
}

TEST(SpanJoinTest, NestedEndsPickShortest) {
  RegionSet starts{Region{0, 1}};
  RegionSet ends{Region{4, 9}, Region{4, 5}};  // Same left, nested.
  RegionSet spans = SpanJoin(starts, ends);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0], (Region{0, 5}));
}

TEST(SpanJoinTest, EmptyInputs) {
  EXPECT_TRUE(SpanJoin(RegionSet(), RegionSet{Region{0, 1}}).empty());
  EXPECT_TRUE(SpanJoin(RegionSet{Region{0, 1}}, RegionSet()).empty());
}

TEST(WindowsTest, GrowAndClip) {
  std::vector<Token> tokens{Token{1, 3}, Token{10, 12}};
  RegionSet windows = Windows(tokens, 2, 3, 14);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0], (Region{0, 6}));    // Clipped at 0.
  EXPECT_EQ(windows[1], (Region{8, 13}));   // Clipped at 13.
}

TEST(WindowsTest, ZeroPaddingIsTokenItself) {
  std::vector<Token> tokens{Token{5, 7}};
  RegionSet windows = Windows(tokens, 0, 0, 100);
  EXPECT_EQ(windows[0], (Region{5, 7}));
}

// right + after exceeds the Offset range; the window still ends at the
// text's last byte.
TEST(WindowsTest, HugeAfterClipsWithoutOverflow) {
  std::vector<Token> tokens{Token{2, 4}, Token{8, 10}};
  RegionSet windows =
      Windows(tokens, 0, std::numeric_limits<Offset>::max(), 14);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0], (Region{2, 13}));
  EXPECT_EQ(windows[1], (Region{8, 13}));
}

constexpr char kDoc[] =
    "<doc>"
    "<h>intro</h><p>alpha beta</p>"
    "<h>body</h><p>gamma delta</p><p>epsilon</p>"
    "</doc>";

TEST(ViewsTest, ExpressionViewSplices) {
  auto engine = QueryEngine::FromSgmlSource(kDoc);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->DefineView("greekp", "p matching \"*a*\"").ok());
  auto answer = engine->Run("greekp within doc");
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->regions.size(), 2u);  // alpha/beta and gamma/delta.
  // Views can build on views.
  ASSERT_TRUE(engine->DefineView("first_greek", "greekp - (greekp after greekp)").ok());
  auto first = engine->Run("first_greek");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->regions.size(), 1u);
}

TEST(ViewsTest, NameCollisionsRejected) {
  auto engine = QueryEngine::FromSgmlSource(kDoc);
  ASSERT_TRUE(engine.ok());
  EXPECT_FALSE(engine->DefineView("p", "h").ok());  // Region name.
  ASSERT_TRUE(engine->DefineView("v", "h").ok());
  EXPECT_FALSE(engine->DefineView("v", "p").ok());  // Redefinition.
  EXPECT_FALSE(engine->DefineView("w", "nonexistent").ok());
}

TEST(ViewsTest, SpanViewSectionsFromHeadings) {
  auto engine = QueryEngine::FromSgmlSource(kDoc);
  ASSERT_TRUE(engine.ok());
  // A "section" spans from a heading to the nearest following paragraph —
  // the PAT `A .. B` constructor as a materialized view.
  ASSERT_TRUE(engine->DefineSpanView("section", "h", "p").ok());
  auto sections = engine->Run("section");
  ASSERT_TRUE(sections.ok()) << sections.status();
  EXPECT_EQ(sections->regions.size(), 2u);
  // The view composes with the base algebra.
  auto with_alpha = engine->Run("section including (p matching \"alpha\")");
  ASSERT_TRUE(with_alpha.ok());
  EXPECT_EQ(with_alpha->regions.size(), 1u);
}

TEST(ViewsTest, WindowViewKeywordInContext) {
  auto engine = QueryEngine::FromSgmlSource(kDoc);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(
      engine->DefineWindowView("ctx", *Pattern::Parse("gamma"), 4, 4).ok());
  auto answer = engine->Run("ctx");
  ASSERT_TRUE(answer.ok());
  ASSERT_EQ(answer->regions.size(), 1u);
  // The window extends beyond the token on both sides.
  const Region& w = answer->regions[0];
  EXPECT_EQ(w.right - w.left + 1, 5 + 8);
}

TEST(ViewsTest, WindowViewNeedsText) {
  Instance synthetic;
  ASSERT_TRUE(synthetic.AddRegionSet("A", RegionSet{Region{0, 1}}).ok());
  QueryEngine engine(std::move(synthetic));
  EXPECT_FALSE(
      engine.DefineWindowView("w", *Pattern::Parse("x"), 1, 1).ok());
}

TEST(ViewsTest, WindowViewRejectsNegativePadding) {
  auto engine = QueryEngine::FromSgmlSource(kDoc);
  ASSERT_TRUE(engine.ok());
  const Pattern gamma = *Pattern::Parse("gamma");
  EXPECT_EQ(engine->DefineWindowView("ctx", gamma, -1, 4).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine->DefineWindowView("ctx", gamma, 4, -1).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(engine->Run("ctx").ok());  // Nothing was bound.
}

TEST(ViewsTest, MaterializedViewUsableInStructuralOps) {
  auto engine = QueryEngine::FromSgmlSource(kDoc);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->DefineSpanView("section", "h", "p").ok());
  // Paragraphs inside spans: sections end at their paragraph's '>', so the
  // paragraph is included (non-strictly at the right edge — strictness
  // comes from the differing left endpoints).
  auto inner = engine->Run("p within section");
  ASSERT_TRUE(inner.ok());
  EXPECT_EQ(inner->regions.size(), 2u);
}

}  // namespace
}  // namespace regal
