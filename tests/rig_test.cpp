#include <gtest/gtest.h>

#include <algorithm>

#include "doc/srccode.h"
#include "doc/synthetic.h"
#include "graph/algorithms.h"
#include "rig/grammar.h"
#include "rig/minimal_set.h"
#include "rig/rig.h"
#include "util/random.h"
#include "util/stringutil.h"

namespace regal {
namespace {

Grammar SourceGrammar() {
  // The Figure 1 structure as a grammar.
  Grammar g;
  g.AddRule("Program", {"Prog_header", "Prog_body"});
  g.AddRule("Prog_header", {"program", "Name"});
  g.AddRule("Prog_body", {"Var", "Proc", "stmts"});
  g.AddRule("Proc", {"Proc_header", "Proc_body"});
  g.AddRule("Proc_header", {"proc", "Name"});
  g.AddRule("Proc_body", {"Var", "Proc", "stmts"});
  g.AddRule("Var", {"var", "ident"});
  g.AddRule("Name", {"ident"});
  return g;
}

TEST(GrammarTest, DeriveRigMatchesFigure1) {
  Digraph derived = SourceGrammar().DeriveRig();
  Digraph figure1 = SourceCodeRig();
  // Every Figure 1 edge is derived and vice versa.
  for (const Digraph* a : {&derived, &figure1}) {
    const Digraph* b = (a == &derived) ? &figure1 : &derived;
    for (Digraph::NodeId v = 0; v < a->NumNodes(); ++v) {
      for (Digraph::NodeId w : a->OutNeighbors(v)) {
        auto bv = b->FindNode(a->Label(v));
        auto bw = b->FindNode(a->Label(w));
        ASSERT_TRUE(bv.ok() && bw.ok()) << a->Label(v) << "->" << a->Label(w);
        EXPECT_TRUE(b->HasEdge(*bv, *bw))
            << a->Label(v) << " -> " << a->Label(w);
      }
    }
  }
}

TEST(GrammarTest, DeriveRogAdjacency) {
  Grammar g;
  g.AddRule("Doc", {"Head", "Body"});
  g.AddRule("Head", {"title"});
  g.AddRule("Body", {"Par", "Par"});
  g.AddRule("Par", {"words"});
  Digraph rog = g.DeriveRog();
  auto edge = [&](const char* x, const char* y) {
    return rog.HasEdge(*rog.FindNode(x), *rog.FindNode(y));
  };
  EXPECT_TRUE(edge("Head", "Body"));  // Adjacent in Doc's rule.
  EXPECT_TRUE(edge("Head", "Par"));   // Head precedes Body's first Par.
  EXPECT_TRUE(edge("Par", "Par"));    // Two Pars in Body.
  EXPECT_FALSE(edge("Doc", "Head"));
  EXPECT_FALSE(edge("Body", "Head"));
}

TEST(GrammarTest, RogClosesThroughLastDescendants) {
  Grammar g;
  g.AddRule("S", {"A", "B"});
  g.AddRule("A", {"X", "Y"});  // Y ends A.
  g.AddRule("B", {"Z"});       // Z starts B.
  g.AddRule("X", {"t"});
  g.AddRule("Y", {"t"});
  g.AddRule("Z", {"t"});
  Digraph rog = g.DeriveRog();
  auto edge = [&](const char* x, const char* y) {
    return rog.HasEdge(*rog.FindNode(x), *rog.FindNode(y));
  };
  EXPECT_TRUE(edge("A", "B"));
  EXPECT_TRUE(edge("Y", "B"));
  EXPECT_TRUE(edge("Y", "Z"));
  EXPECT_TRUE(edge("A", "Z"));
  EXPECT_FALSE(edge("X", "B"));  // X is not last in A.
}

TEST(RigTest, InstanceSatisfiesOwnDerivedRig) {
  Rng rng(41);
  RandomInstanceOptions options;
  options.num_regions = 50;
  Instance instance = RandomLaminarInstance(rng, options);
  EXPECT_TRUE(InstanceSatisfiesRig(instance, instance.DeriveRig()).ok());
  EXPECT_TRUE(InstanceSatisfiesRog(instance, instance.DeriveRog()).ok());
}

TEST(RigTest, ViolationDetected) {
  Digraph rig;
  rig.AddEdge("Doc", "Par");
  Instance instance;
  ASSERT_TRUE(instance.AddRegionSet("Doc", RegionSet{Region{0, 9}}).ok());
  ASSERT_TRUE(instance.AddRegionSet("Par", RegionSet{Region{1, 8}}).ok());
  EXPECT_TRUE(InstanceSatisfiesRig(instance, rig).ok());
  // Par directly including Doc is not allowed.
  Instance bad;
  ASSERT_TRUE(bad.AddRegionSet("Doc", RegionSet{Region{1, 8}}).ok());
  ASSERT_TRUE(bad.AddRegionSet("Par", RegionSet{Region{0, 9}}).ok());
  EXPECT_FALSE(InstanceSatisfiesRig(bad, rig).ok());
}

TEST(RigTest, UnknownNameRejected) {
  Digraph rig;
  rig.AddNode("Doc");
  Instance instance;
  ASSERT_TRUE(instance.AddRegionSet("Mystery", RegionSet{Region{0, 1}}).ok());
  EXPECT_FALSE(InstanceSatisfiesRig(instance, rig).ok());
}

TEST(RigTest, NestingBound) {
  Digraph rig = SourceCodeRig();
  // Figure 1's RIG has the Proc -> Proc_body -> Proc cycle: unbounded.
  EXPECT_FALSE(RigNestingBound(rig).ok());
  Digraph acyclic;
  acyclic.AddEdge("Doc", "Sec");
  acyclic.AddEdge("Sec", "Par");
  auto bound = RigNestingBound(acyclic);
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(*bound, 3);
}

TEST(RigTest, NamesNestableInside) {
  Digraph rig = SourceCodeRig();
  auto inside_proc = NamesNestableInside(rig, "Proc");
  EXPECT_NE(std::find(inside_proc.begin(), inside_proc.end(), "Var"),
            inside_proc.end());
  EXPECT_NE(std::find(inside_proc.begin(), inside_proc.end(), "Proc"),
            inside_proc.end());  // Self-nesting via Proc_body.
  EXPECT_EQ(std::find(inside_proc.begin(), inside_proc.end(), "Program"),
            inside_proc.end());
  auto inside_header = NamesNestableInside(rig, "Proc_header");
  EXPECT_EQ(inside_header.size(), 1u);  // Only Name.
  EXPECT_EQ(inside_header[0], "Name");
}

TEST(MinimalSetTest, ValidityChecker) {
  Digraph rig;
  rig.AddEdge("A", "M");
  rig.AddEdge("M", "B");
  rig.AddEdge("A", "N");
  rig.AddEdge("N", "B");
  EXPECT_TRUE(IsValidSeparatorSet(rig, {"A", "B"}, {"M", "N"}));
  EXPECT_FALSE(IsValidSeparatorSet(rig, {"A", "B"}, {"M"}));
  EXPECT_FALSE(IsValidSeparatorSet(rig, {"A", "B"}, {}));
}

TEST(MinimalSetTest, DirectEdgeIsExempt) {
  Digraph rig;
  rig.AddEdge("A", "B");  // Direct inclusion needs no blocking.
  EXPECT_TRUE(IsValidSeparatorSet(rig, {"A", "B"}, {}));
  rig.AddEdge("A", "M");
  rig.AddEdge("M", "B");
  EXPECT_FALSE(IsValidSeparatorSet(rig, {"A", "B"}, {}));
  EXPECT_TRUE(IsValidSeparatorSet(rig, {"A", "B"}, {"M"}));
}

TEST(MinimalSetTest, ExactOnDiamond) {
  Digraph rig;
  rig.AddEdge("A", "M");
  rig.AddEdge("M", "B");
  rig.AddEdge("A", "N");
  rig.AddEdge("N", "B");
  auto result = MinimalSetExact(rig, {"A", "B"});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);
}

TEST(MinimalSetTest, SingleOpMatchesExact) {
  Rng rng(12);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 7;
    Digraph rig;
    for (int i = 0; i < n; ++i) rig.AddNode(StrCat({"n", std::to_string(i)}));
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (i != j && rng.Chance(0.3)) {
          rig.AddEdge(static_cast<Digraph::NodeId>(i),
                      static_cast<Digraph::NodeId>(j));
        }
      }
    }
    auto exact = MinimalSetExact(rig, {"n0", "n6"});
    auto cut = MinimalSetSingleOp(rig, "n0", "n6");
    ASSERT_TRUE(exact.ok());
    ASSERT_TRUE(cut.ok());
    EXPECT_EQ(exact->size(), cut->size());
    EXPECT_TRUE(IsValidSeparatorSet(rig, {"n0", "n6"}, *cut));
  }
}

TEST(MinimalSetTest, SelfPair) {
  Digraph rig;
  rig.AddEdge("A", "M");
  rig.AddEdge("M", "A");
  auto cut = MinimalSetSingleOp(rig, "A", "A");
  ASSERT_TRUE(cut.ok());
  ASSERT_EQ(cut->size(), 1u);
  EXPECT_EQ((*cut)[0], "M");
  EXPECT_TRUE(IsValidSeparatorSet(rig, {"A", "A"}, *cut));
  EXPECT_FALSE(IsValidSeparatorSet(rig, {"A", "A"}, {}));
}

TEST(MinimalSetTest, PairwiseCutsAreValid) {
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 8;
    Digraph rig;
    for (int i = 0; i < n; ++i) rig.AddNode(StrCat({"n", std::to_string(i)}));
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (i != j && rng.Chance(0.25)) {
          rig.AddEdge(static_cast<Digraph::NodeId>(i),
                      static_cast<Digraph::NodeId>(j));
        }
      }
    }
    std::vector<std::string> chain{"n0", "n3", "n7"};
    auto approx = MinimalSetPairwiseCuts(rig, chain);
    auto exact = MinimalSetExact(rig, chain);
    ASSERT_TRUE(approx.ok());
    ASSERT_TRUE(exact.ok());
    EXPECT_TRUE(IsValidSeparatorSet(rig, chain, *approx));
    EXPECT_LE(exact->size(), approx->size());
  }
}

TEST(MinimalSetTest, VertexCoverReductionAgrees) {
  Rng rng(14);
  for (int trial = 0; trial < 15; ++trial) {
    int vertices = static_cast<int>(3 + rng.Below(4));
    std::vector<std::pair<int, int>> edges;
    for (int u = 0; u < vertices; ++u) {
      for (int w = u + 1; w < vertices; ++w) {
        if (rng.Chance(0.5)) edges.emplace_back(u, w);
      }
    }
    if (edges.empty()) continue;
    auto [rig, chain] = VertexCoverToMinimalSet(vertices, edges);
    auto minimal = MinimalSetExact(rig, chain);
    ASSERT_TRUE(minimal.ok());
    EXPECT_EQ(static_cast<int>(minimal->size()),
              MinVertexCoverSize(vertices, edges))
        << "trial " << trial;
  }
}

TEST(MinimalSetTest, TrivialChainErrors) {
  Digraph rig;
  rig.AddNode("A");
  EXPECT_FALSE(MinimalSetExact(rig, {"A"}).ok());
  EXPECT_FALSE(MinimalSetPairwiseCuts(rig, {"A"}).ok());
}

}  // namespace
}  // namespace regal
