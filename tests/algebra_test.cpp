#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "core/algebra.h"
#include "core/extended.h"
#include "util/random.h"

namespace regal {
namespace {

// A random endpoint in [0, universe). With `edges`, draws in the upper half
// of that range move to the top of the Offset range instead, so regions
// start at 0 and end at the largest Offset.
Offset RandomEndpoint(Rng& rng, Offset universe, bool edges) {
  const Offset v = static_cast<Offset>(rng.Below(static_cast<uint64_t>(universe)));
  if (!edges || v < universe / 2) return v;
  return std::numeric_limits<Offset>::max() - (v - universe / 2);
}

// A random (not necessarily laminar) region set over a small coordinate
// universe, to stress duplicates-of-endpoints cases.
RegionSet RandomSet(Rng& rng, int max_size, Offset universe,
                    bool edges = false) {
  std::vector<Region> regions;
  int n = static_cast<int>(rng.Below(static_cast<uint64_t>(max_size + 1)));
  for (int i = 0; i < n; ++i) {
    Offset a = RandomEndpoint(rng, universe, edges);
    Offset b = RandomEndpoint(rng, universe, edges);
    regions.push_back(Region{std::min(a, b), std::max(a, b)});
  }
  return RegionSet::FromUnsorted(std::move(regions));
}

TEST(AlgebraTest, UnionBasics) {
  RegionSet a{Region{0, 1}, Region{4, 9}};
  RegionSet b{Region{4, 9}, Region{2, 3}};
  RegionSet u = Union(a, b);
  EXPECT_EQ(u, (RegionSet{Region{0, 1}, Region{2, 3}, Region{4, 9}}));
}

TEST(AlgebraTest, IntersectBasics) {
  RegionSet a{Region{0, 1}, Region{4, 9}};
  RegionSet b{Region{4, 9}, Region{2, 3}};
  EXPECT_EQ(Intersect(a, b), (RegionSet{Region{4, 9}}));
}

TEST(AlgebraTest, DifferenceBasics) {
  RegionSet a{Region{0, 1}, Region{4, 9}};
  RegionSet b{Region{4, 9}};
  EXPECT_EQ(Difference(a, b), (RegionSet{Region{0, 1}}));
  EXPECT_EQ(Difference(a, a), RegionSet());
}

TEST(AlgebraTest, IncludingSelectsContainers) {
  RegionSet outer{Region{0, 10}, Region{20, 30}};
  RegionSet inner{Region{2, 4}};
  EXPECT_EQ(Including(outer, inner), (RegionSet{Region{0, 10}}));
  EXPECT_EQ(Included(inner, outer), inner);
}

TEST(AlgebraTest, InclusionIsStrict) {
  RegionSet a{Region{0, 10}};
  EXPECT_TRUE(Including(a, a).empty());
  EXPECT_TRUE(Included(a, a).empty());
}

TEST(AlgebraTest, SharedEndpointInclusion) {
  RegionSet outer{Region{0, 10}};
  RegionSet left_aligned{Region{0, 5}};
  RegionSet right_aligned{Region{5, 10}};
  EXPECT_EQ(Including(outer, left_aligned), outer);
  EXPECT_EQ(Including(outer, right_aligned), outer);
}

TEST(AlgebraTest, PrecedesFollows) {
  RegionSet a{Region{0, 2}, Region{10, 12}};
  RegionSet b{Region{5, 6}};
  EXPECT_EQ(Precedes(a, b), (RegionSet{Region{0, 2}}));
  EXPECT_EQ(Follows(a, b), (RegionSet{Region{10, 12}}));
}

TEST(AlgebraTest, TouchingRegionsDoNotPrecede) {
  RegionSet a{Region{0, 5}};
  RegionSet b{Region{5, 8}};
  EXPECT_TRUE(Precedes(a, b).empty());
}

TEST(AlgebraTest, EmptyOperands) {
  RegionSet a{Region{0, 5}};
  RegionSet e;
  EXPECT_TRUE(Including(a, e).empty());
  EXPECT_TRUE(Included(a, e).empty());
  EXPECT_TRUE(Precedes(a, e).empty());
  EXPECT_TRUE(Follows(a, e).empty());
  EXPECT_EQ(Union(a, e), a);
  EXPECT_TRUE(Intersect(a, e).empty());
  EXPECT_EQ(Difference(a, e), a);
  EXPECT_TRUE(Including(e, a).empty());
  // An empty operand has no extreme endpoint, not one at the largest Offset.
  const Offset max = std::numeric_limits<Offset>::max();
  RegionSet top{Region{0, max}, Region{max, max}};
  EXPECT_TRUE(Including(top, e).empty());
  EXPECT_TRUE(Included(top, e).empty());
  EXPECT_TRUE(SelectByTokens(top, {}).empty());
  EXPECT_TRUE(BothIncluded(top, e, e).empty());
  EXPECT_TRUE(BothIncluded(top, RegionSet{Region{1, 2}}, e).empty());
}

TEST(AlgebraTest, SelectByTokensContainment) {
  RegionSet r{Region{0, 10}, Region{12, 20}, Region{14, 16}};
  std::vector<Token> tokens{Token{14, 16}};
  // Both [12,20] and [14,16] contain the token ([14,16] non-strictly).
  EXPECT_EQ(SelectByTokens(r, tokens),
            (RegionSet{Region{12, 20}, Region{14, 16}}));
}

// Property tests: the efficient operators agree with the O(n*m) reference
// implementations on random (arbitrary, not only laminar) region sets.
class AlgebraPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// Each trial also runs on sets whose endpoints sit at 0 and next to the
// largest Offset, where an empty running extreme must not match.
TEST_P(AlgebraPropertyTest, EfficientMatchesNaive) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    for (bool edges : {false, true}) {
      RegionSet r = RandomSet(rng, 30, 25, edges);
      RegionSet s = RandomSet(rng, 30, 25, edges);
      RegionSet t = RandomSet(rng, 30, 25, edges);
      EXPECT_EQ(Including(r, s), naive::Including(r, s))
          << "R=" << r.ToString() << " S=" << s.ToString();
      EXPECT_EQ(Included(r, s), naive::Included(r, s))
          << "R=" << r.ToString() << " S=" << s.ToString();
      EXPECT_EQ(Precedes(r, s), naive::Precedes(r, s));
      EXPECT_EQ(Follows(r, s), naive::Follows(r, s));
      EXPECT_EQ(Union(r, s), naive::Union(r, s));
      EXPECT_EQ(Intersect(r, s), naive::Intersect(r, s));
      EXPECT_EQ(Difference(r, s), naive::Difference(r, s));
      EXPECT_EQ(BothIncluded(r, s, t), naive::BothIncluded(r, s, t))
          << "R=" << r.ToString() << " S=" << s.ToString()
          << " T=" << t.ToString();
    }
  }
}

TEST_P(AlgebraPropertyTest, SelectMatchesNaive) {
  Rng rng(GetParam() * 31 + 7);
  for (int trial = 0; trial < 80; ++trial) {
    const bool edges = trial % 2 == 1;
    RegionSet r = RandomSet(rng, 30, 25, edges);
    std::vector<Token> tokens;
    int n = static_cast<int>(rng.Below(10));
    for (int i = 0; i < n; ++i) {
      const Offset a = RandomEndpoint(rng, 25, edges);
      const int64_t b = std::min<int64_t>(
          int64_t{a} + static_cast<int64_t>(rng.Below(3)),
          std::numeric_limits<Offset>::max());
      tokens.push_back(Token{a, static_cast<Offset>(b)});
    }
    std::sort(tokens.begin(), tokens.end(), [](const Token& x, const Token& y) {
      return x.left != y.left ? x.left < y.left : x.right < y.right;
    });
    EXPECT_EQ(SelectByTokens(r, tokens), naive::SelectByTokens(r, tokens));
  }
}

// Algebraic identities that hold for all sets.
TEST_P(AlgebraPropertyTest, SetIdentities) {
  Rng rng(GetParam() * 101 + 13);
  for (int trial = 0; trial < 20; ++trial) {
    RegionSet r = RandomSet(rng, 20, 20);
    RegionSet s = RandomSet(rng, 20, 20);
    RegionSet t = RandomSet(rng, 20, 20);
    EXPECT_EQ(Union(r, s), Union(s, r));
    EXPECT_EQ(Intersect(r, s), Intersect(s, r));
    EXPECT_EQ(Union(r, Union(s, t)), Union(Union(r, s), t));
    EXPECT_EQ(Difference(r, Union(s, t)),
              Difference(Difference(r, s), t));
    // Semi-join results are subsets of the left operand.
    EXPECT_EQ(Intersect(Including(r, s), r), Including(r, s));
    EXPECT_EQ(Intersect(Included(r, s), r), Included(r, s));
    // ⊃ distributes over ∪ in the right argument.
    EXPECT_EQ(Including(r, Union(s, t)),
              Union(Including(r, s), Including(r, t)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgebraPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace regal
