#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/algorithms.h"
#include "graph/digraph.h"
#include "graph/maxflow.h"
#include "util/random.h"
#include "util/stringutil.h"

namespace regal {
namespace {

Digraph Diamond() {
  // s -> a -> t, s -> b -> t.
  Digraph g;
  g.AddEdge("s", "a");
  g.AddEdge("s", "b");
  g.AddEdge("a", "t");
  g.AddEdge("b", "t");
  return g;
}

TEST(DigraphTest, AddNodeIdempotent) {
  Digraph g;
  auto a1 = g.AddNode("a");
  auto a2 = g.AddNode("a");
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(g.NumNodes(), 1);
}

TEST(DigraphTest, EdgesDeduplicated) {
  Digraph g;
  g.AddEdge("a", "b");
  g.AddEdge("a", "b");
  EXPECT_EQ(g.NumEdges(), 1);
  EXPECT_TRUE(g.HasEdge(*g.FindNode("a"), *g.FindNode("b")));
}

TEST(DigraphTest, FindNodeMissing) {
  Digraph g;
  EXPECT_FALSE(g.FindNode("zzz").ok());
  EXPECT_FALSE(g.HasNode("zzz"));
}

TEST(DigraphTest, InNeighbors) {
  Digraph g = Diamond();
  auto t = *g.FindNode("t");
  EXPECT_EQ(g.InNeighbors(t).size(), 2u);
}

TEST(ReachabilityTest, Basic) {
  Digraph g = Diamond();
  auto s = *g.FindNode("s");
  auto seen = Reachable(g, s);
  EXPECT_EQ(std::count(seen.begin(), seen.end(), true), 4);
  auto t = *g.FindNode("t");
  auto from_t = Reachable(g, t);
  EXPECT_EQ(std::count(from_t.begin(), from_t.end(), true), 1);
}

TEST(SeparatorTest, SingleNodeNotSeparatorInDiamond) {
  Digraph g = Diamond();
  EXPECT_FALSE(IsVertexSeparator(g, *g.FindNode("s"), *g.FindNode("t"),
                                 *g.FindNode("a")));
}

TEST(SeparatorTest, MiddleOfPathIsSeparator) {
  Digraph g;
  g.AddEdge("s", "m");
  g.AddEdge("m", "t");
  EXPECT_TRUE(IsVertexSeparator(g, *g.FindNode("s"), *g.FindNode("t"),
                                *g.FindNode("m")));
}

TEST(SeparatorTest, PairSeparatesDiamond) {
  Digraph g = Diamond();
  std::vector<bool> blocked(static_cast<size_t>(g.NumNodes()), false);
  blocked[static_cast<size_t>(*g.FindNode("a"))] = true;
  blocked[static_cast<size_t>(*g.FindNode("b"))] = true;
  EXPECT_TRUE(SeparatesAll(g, *g.FindNode("s"), *g.FindNode("t"), blocked));
}

TEST(SeparatorTest, VacuousWhenUnreachable) {
  Digraph g;
  g.AddNode("s");
  g.AddNode("t");
  g.AddNode("v");
  EXPECT_TRUE(IsVertexSeparator(g, *g.FindNode("s"), *g.FindNode("t"),
                                *g.FindNode("v")));
}

TEST(CycleTest, DetectsCycle) {
  Digraph g;
  g.AddEdge("a", "b");
  g.AddEdge("b", "c");
  EXPECT_FALSE(HasCycle(g));
  g.AddEdge("c", "a");
  EXPECT_TRUE(HasCycle(g));
}

TEST(CycleTest, SelfLoopIsCycle) {
  Digraph g;
  g.AddEdge("a", "a");
  EXPECT_TRUE(HasCycle(g));
}

TEST(SccTest, TwoComponents) {
  Digraph g;
  g.AddEdge("a", "b");
  g.AddEdge("b", "a");
  g.AddEdge("b", "c");
  auto comp = StronglyConnectedComponents(g);
  auto a = static_cast<size_t>(*g.FindNode("a"));
  auto b = static_cast<size_t>(*g.FindNode("b"));
  auto c = static_cast<size_t>(*g.FindNode("c"));
  EXPECT_EQ(comp[a], comp[b]);
  EXPECT_NE(comp[a], comp[c]);
}

TEST(TopoTest, RespectsEdges) {
  Digraph g;
  g.AddEdge("a", "b");
  g.AddEdge("b", "c");
  g.AddEdge("a", "c");
  auto order = TopologicalOrder(g);
  ASSERT_TRUE(order.ok());
  std::vector<int> position(3);
  for (size_t i = 0; i < order->size(); ++i) {
    position[static_cast<size_t>((*order)[i])] = static_cast<int>(i);
  }
  for (Digraph::NodeId v = 0; v < g.NumNodes(); ++v) {
    for (Digraph::NodeId w : g.OutNeighbors(v)) {
      EXPECT_LT(position[static_cast<size_t>(v)], position[static_cast<size_t>(w)]);
    }
  }
}

TEST(TopoTest, CycleIsError) {
  Digraph g;
  g.AddEdge("a", "b");
  g.AddEdge("b", "a");
  EXPECT_FALSE(TopologicalOrder(g).ok());
  EXPECT_FALSE(LongestPathLength(g).ok());
}

TEST(LongestPathTest, ChainLength) {
  Digraph g;
  g.AddEdge("a", "b");
  g.AddEdge("b", "c");
  g.AddEdge("c", "d");
  auto len = LongestPathLength(g);
  ASSERT_TRUE(len.ok());
  EXPECT_EQ(*len, 3);
}

TEST(LongestPathTest, SingleNodeIsZero) {
  Digraph g;
  g.AddNode("a");
  EXPECT_EQ(*LongestPathLength(g), 0);
}

TEST(MaxFlowTest, Diamond) {
  MaxFlow f(4);
  f.AddEdge(0, 1, 1);
  f.AddEdge(0, 2, 1);
  f.AddEdge(1, 3, 1);
  f.AddEdge(2, 3, 1);
  EXPECT_EQ(f.Compute(0, 3), 2);
}

TEST(MaxFlowTest, Bottleneck) {
  MaxFlow f(4);
  f.AddEdge(0, 1, 10);
  int mid = f.AddEdge(1, 2, 3);
  f.AddEdge(2, 3, 10);
  EXPECT_EQ(f.Compute(0, 3), 3);
  EXPECT_EQ(f.Flow(mid), 3);
}

TEST(MaxFlowTest, MinCutSideContainsSource) {
  MaxFlow f(3);
  f.AddEdge(0, 1, 1);
  f.AddEdge(1, 2, 1);
  f.Compute(0, 2);
  auto side = f.MinCutSourceSide(0);
  EXPECT_TRUE(side[0]);
  EXPECT_FALSE(side[2]);
}

TEST(MinVertexCutTest, DiamondNeedsTwo) {
  Digraph g = Diamond();
  auto cut = MinVertexCut(g, *g.FindNode("s"), *g.FindNode("t"));
  ASSERT_TRUE(cut.ok());
  EXPECT_EQ(cut->size(), 2u);
}

TEST(MinVertexCutTest, ChainNeedsOne) {
  Digraph g;
  g.AddEdge("s", "m");
  g.AddEdge("m", "t");
  auto cut = MinVertexCut(g, *g.FindNode("s"), *g.FindNode("t"));
  ASSERT_TRUE(cut.ok());
  ASSERT_EQ(cut->size(), 1u);
  EXPECT_EQ(g.Label((*cut)[0]), "m");
}

TEST(MinVertexCutTest, DirectEdgeIsError) {
  Digraph g;
  g.AddEdge("s", "t");
  EXPECT_FALSE(MinVertexCut(g, *g.FindNode("s"), *g.FindNode("t")).ok());
}

TEST(MinVertexCutTest, DisconnectedIsEmptyCut) {
  Digraph g;
  g.AddNode("s");
  g.AddNode("t");
  auto cut = MinVertexCut(g, *g.FindNode("s"), *g.FindNode("t"));
  ASSERT_TRUE(cut.ok());
  EXPECT_TRUE(cut->empty());
}

// Property: the min vertex cut actually separates, and no single node
// removal from the cut still separates (minimality on random DAGs).
TEST(MinVertexCutTest, RandomGraphsCutSeparates) {
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 8;
    Digraph g;
    for (int i = 0; i < n; ++i) g.AddNode(StrCat({"n", std::to_string(i)}));
    // Random forward edges excluding the direct s->t edge.
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        if (i == 0 && j == n - 1) continue;
        if (rng.Chance(0.35)) {
          g.AddEdge(static_cast<Digraph::NodeId>(i),
                    static_cast<Digraph::NodeId>(j));
        }
      }
    }
    auto cut = MinVertexCut(g, 0, n - 1);
    ASSERT_TRUE(cut.ok());
    std::vector<bool> blocked(static_cast<size_t>(n), false);
    for (auto v : *cut) blocked[static_cast<size_t>(v)] = true;
    EXPECT_TRUE(SeparatesAll(g, 0, n - 1, blocked));
  }
}

}  // namespace
}  // namespace regal
