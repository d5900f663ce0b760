#include <gtest/gtest.h>

#include "core/instance.h"
#include "doc/synthetic.h"
#include "graph/algorithms.h"

namespace regal {
namespace {

Instance SmallInstance() {
  // Doc: [0,11]=Doc, [1,4]=Sec, [2,3]=Par, [6,10]=Sec, [7,8]=Par.
  Instance instance;
  EXPECT_TRUE(instance.AddRegionSet("Doc", RegionSet{Region{0, 11}}).ok());
  EXPECT_TRUE(
      instance.AddRegionSet("Sec", RegionSet{Region{1, 4}, Region{6, 10}}).ok());
  EXPECT_TRUE(
      instance.AddRegionSet("Par", RegionSet{Region{2, 3}, Region{7, 8}}).ok());
  return instance;
}

TEST(InstanceTest, AddAndGet) {
  Instance instance = SmallInstance();
  EXPECT_TRUE(instance.Has("Doc"));
  EXPECT_FALSE(instance.Has("Nope"));
  auto doc = instance.Get("Doc");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->size(), 1u);
  EXPECT_FALSE(instance.Get("Nope").ok());
  EXPECT_FALSE(instance.AddRegionSet("Doc", RegionSet()).ok());
}

TEST(InstanceTest, ValidateAcceptsHierarchy) {
  EXPECT_TRUE(SmallInstance().Validate().ok());
}

TEST(InstanceTest, ValidateRejectsOverlap) {
  Instance instance;
  ASSERT_TRUE(instance.AddRegionSet("A", RegionSet{Region{0, 5}}).ok());
  ASSERT_TRUE(instance.AddRegionSet("B", RegionSet{Region{3, 8}}).ok());
  EXPECT_FALSE(instance.Validate().ok());
}

TEST(InstanceTest, ValidateRejectsDuplicateAcrossNames) {
  Instance instance;
  ASSERT_TRUE(instance.AddRegionSet("A", RegionSet{Region{0, 5}}).ok());
  ASSERT_TRUE(instance.AddRegionSet("B", RegionSet{Region{0, 5}}).ok());
  EXPECT_FALSE(instance.Validate().ok());
}

TEST(InstanceTest, TreeParents) {
  Instance instance = SmallInstance();
  ASSERT_EQ(instance.TreeSize(), 5u);
  // Document order: [0,11], [1,4], [2,3], [6,10], [7,8].
  EXPECT_EQ(instance.Tree().parents, (std::vector<int>{-1, 0, 1, 0, 3}));
  EXPECT_EQ(instance.TreeDepth(), 3);
}

TEST(InstanceTest, TreeFind) {
  Instance instance = SmallInstance();
  EXPECT_EQ(instance.TreeFind(Region{2, 3}), 2);
  EXPECT_EQ(instance.TreeFind(Region{2, 4}), -1);
}

TEST(InstanceTest, AllRegions) {
  Instance instance = SmallInstance();
  EXPECT_EQ(instance.AllRegions().size(), 5u);
  EXPECT_EQ(instance.NumRegions(), 5u);
}

TEST(InstanceTest, DeriveRigEdges) {
  Instance instance = SmallInstance();
  Digraph rig = instance.DeriveRig();
  auto doc = *rig.FindNode("Doc");
  auto sec = *rig.FindNode("Sec");
  auto par = *rig.FindNode("Par");
  EXPECT_TRUE(rig.HasEdge(doc, sec));
  EXPECT_TRUE(rig.HasEdge(sec, par));
  EXPECT_FALSE(rig.HasEdge(doc, par));
  EXPECT_FALSE(rig.HasEdge(par, sec));
}

TEST(InstanceTest, DeriveRogEdges) {
  Instance instance = SmallInstance();
  Digraph rog = instance.DeriveRog();
  auto sec = *rog.FindNode("Sec");
  auto par = *rog.FindNode("Par");
  // [1,4] (Sec) directly precedes [6,10] (Sec) and [7,8] (Par);
  // [2,3] (Par) directly precedes both as well (nothing in between).
  EXPECT_TRUE(rog.HasEdge(sec, sec));
  EXPECT_TRUE(rog.HasEdge(par, sec));
  EXPECT_TRUE(rog.HasEdge(sec, par));
  EXPECT_TRUE(rog.HasEdge(par, par));
}

TEST(InstanceTest, DeriveRogSkipsIndirect) {
  // Three siblings a < b < c: a does not directly precede c.
  Instance instance;
  ASSERT_TRUE(instance
                  .AddRegionSet("A", RegionSet{Region{0, 1}})
                  .ok());
  ASSERT_TRUE(instance.AddRegionSet("B", RegionSet{Region{2, 3}}).ok());
  ASSERT_TRUE(instance.AddRegionSet("C", RegionSet{Region{4, 5}}).ok());
  Digraph rog = instance.DeriveRog();
  EXPECT_TRUE(rog.HasEdge(*rog.FindNode("A"), *rog.FindNode("B")));
  EXPECT_TRUE(rog.HasEdge(*rog.FindNode("B"), *rog.FindNode("C")));
  EXPECT_FALSE(rog.HasEdge(*rog.FindNode("A"), *rog.FindNode("C")));
}

TEST(InstanceTest, SyntheticPatternSelect) {
  Instance instance = SmallInstance();
  Pattern p = *Pattern::Parse("x");
  instance.SetSyntheticPattern(p, RegionSet{Region{2, 3}});
  RegionSet pars = **instance.Get("Par");
  EXPECT_EQ(instance.Select(pars, p), (RegionSet{Region{2, 3}}));
  EXPECT_TRUE(instance.W(Region{2, 3}, p));
  EXPECT_FALSE(instance.W(Region{7, 8}, p));
  // Unknown pattern selects nothing.
  EXPECT_TRUE(instance.Select(pars, *Pattern::Parse("y")).empty());
}

TEST(InstanceTest, CloneIsDeep) {
  Instance instance = SmallInstance();
  Instance copy = instance.Clone();
  copy.SetRegionSet("Doc", RegionSet());
  EXPECT_EQ((**instance.Get("Doc")).size(), 1u);
  EXPECT_EQ((*copy.Get("Doc"))->size(), 0u);
}

TEST(InstanceTest, MutationInvalidatesTree) {
  Instance instance = SmallInstance();
  EXPECT_EQ(instance.TreeSize(), 5u);
  instance.SetRegionSet("Extra", RegionSet{Region{12, 13}});
  EXPECT_EQ(instance.TreeSize(), 6u);
}

TEST(SyntheticInstanceTest, RandomLaminarIsValid) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    RandomInstanceOptions options;
    options.num_regions = 40;
    Instance instance = RandomLaminarInstance(rng, options);
    EXPECT_TRUE(instance.Validate().ok());
    EXPECT_EQ(instance.NumRegions(), 40u);
  }
}

TEST(SyntheticInstanceTest, RigInstanceSatisfiesRig) {
  Rng rng(7);
  Digraph rig;
  rig.AddEdge("Doc", "Sec");
  rig.AddEdge("Sec", "Par");
  rig.AddEdge("Sec", "Sec");
  for (int trial = 0; trial < 10; ++trial) {
    Instance instance =
        RandomInstanceForRig(rng, rig, 60, 6, {"Doc"});
    EXPECT_TRUE(instance.Validate().ok());
    Digraph derived = instance.DeriveRig();
    // Every derived edge must be a RIG edge (Definition 2.4).
    for (Digraph::NodeId v = 0; v < derived.NumNodes(); ++v) {
      for (Digraph::NodeId w : derived.OutNeighbors(v)) {
        auto rv = rig.FindNode(derived.Label(v));
        auto rw = rig.FindNode(derived.Label(w));
        ASSERT_TRUE(rv.ok() && rw.ok());
        EXPECT_TRUE(rig.HasEdge(*rv, *rw))
            << derived.Label(v) << " -> " << derived.Label(w);
      }
    }
  }
}

TEST(SyntheticInstanceTest, FromForestLayout) {
  std::vector<NodeSpec> forest;
  forest.push_back(NodeSpec{"A", {NodeSpec{"B", {}}, NodeSpec{"B", {}}}});
  Instance instance = FromForest(forest);
  EXPECT_TRUE(instance.Validate().ok());
  EXPECT_EQ((**instance.Get("A")).size(), 1u);
  EXPECT_EQ((**instance.Get("B")).size(), 2u);
  EXPECT_EQ(instance.TreeDepth(), 2);
}

TEST(SyntheticInstanceTest, Figure2Shape) {
  const int depth = 6;
  Instance instance = MakeFigure2Instance(depth);
  EXPECT_TRUE(instance.Validate().ok());
  // A B-spine of `depth` levels; A leaves hang one level deeper.
  EXPECT_EQ(instance.TreeDepth(), depth + 1);
  RegionSet b = **instance.Get("B");
  RegionSet a = **instance.Get("A");
  EXPECT_EQ(b.size(), static_cast<size_t>(depth));
  EXPECT_GE(a.size(), 1u);
  EXPECT_LE(a.size(), static_cast<size_t>(depth));
  // Outermost region is a B; every region below the root has a B parent
  // (the spine carries everything).
  const RegionTree& tree = instance.Tree();
  EXPECT_TRUE(b.Member(tree.regions[0]));
  for (size_t i = 1; i < tree.regions.size(); ++i) {
    const Region& parent = tree.regions[static_cast<size_t>(tree.parents[i])];
    EXPECT_TRUE(b.Member(parent));
  }
  // Reproducible.
  Instance again = MakeFigure2Instance(depth);
  EXPECT_EQ(**again.Get("A"), a);
}

TEST(SyntheticInstanceTest, Figure3Shape) {
  int k = 3;
  Instance instance = MakeFigure3Instance(k);
  EXPECT_TRUE(instance.Validate().ok());
  EXPECT_EQ((**instance.Get("C")).size(), static_cast<size_t>(4 * k + 1));
  EXPECT_EQ((**instance.Get("A")).size(), static_cast<size_t>(4 * k + 2));
  EXPECT_EQ((**instance.Get("B")).size(), static_cast<size_t>(4 * k + 1));
}

TEST(SyntheticInstanceTest, AssignRandomPatterns) {
  Rng rng(3);
  Instance instance = MakeFigure3Instance(2);
  Pattern p = *Pattern::Parse("q");
  AssignRandomPatterns(&instance, rng, {p}, 0.5);
  RegionSet c = **instance.Get("C");
  RegionSet selected = instance.Select(c, p);
  EXPECT_LE(selected.size(), c.size());
}

}  // namespace
}  // namespace regal
