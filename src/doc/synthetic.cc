#include "doc/synthetic.h"

#include <algorithm>
#include <functional>
#include <map>
#include <utility>

#include "util/stringutil.h"

namespace regal {

namespace {

// Assigns offsets to a forest depth-first: a leaf takes 1 unit; an inner
// node spans its children plus one unit of padding on each side.
void LayoutNode(const NodeSpec& node, Offset* cursor,
                std::map<std::string, std::vector<Region>>* sets) {
  Offset left = (*cursor)++;
  for (const NodeSpec& child : node.children) {
    LayoutNode(child, cursor, sets);
  }
  Offset right = (*cursor)++;
  (*sets)[node.name].push_back(Region{left, right});
}

}  // namespace

Instance FromForest(const std::vector<NodeSpec>& forest) {
  std::map<std::string, std::vector<Region>> sets;
  Offset cursor = 0;
  for (const NodeSpec& root : forest) {
    LayoutNode(root, &cursor, &sets);
  }
  Instance instance;
  for (auto& [name, regions] : sets) {
    instance.SetRegionSet(name, RegionSet::FromUnsorted(std::move(regions)));
  }
  return instance;
}

Instance MakeFigure2Instance(int depth) {
  // A nested spine of `depth` B regions (B directly including B — the
  // configuration at the heart of the Theorem 5.1 proof), where a
  // deterministic pseudo-random subset of levels additionally carries a
  // direct A child (the innermost level always does). B ⊃_d A thus selects
  // exactly the B's with an A child, while B ⊃ A selects every B — and no
  // fixed-size base expression can track which levels carry the A once the
  // depth outgrows it.
  Rng rng(static_cast<uint64_t>(depth) * 0x9e37u + 17);
  NodeSpec node{"B", {NodeSpec{"A", {}}}};  // Innermost level.
  for (int level = 1; level < depth; ++level) {
    NodeSpec parent{"B", {}};
    if (rng.Chance(0.5)) parent.children.push_back(NodeSpec{"A", {}});
    parent.children.push_back(std::move(node));
    node = std::move(parent);
  }
  std::vector<NodeSpec> forest;
  forest.push_back(std::move(node));
  Instance instance = FromForest(forest);
  if (!instance.Has("A")) instance.SetRegionSet("A", RegionSet());
  if (!instance.Has("B")) instance.SetRegionSet("B", RegionSet());
  return instance;
}

Instance MakeFigure3Instance(int k) {
  std::vector<NodeSpec> forest;
  const int total = 4 * k + 1;
  for (int i = 1; i <= total; ++i) {
    NodeSpec c{"C", {}};
    c.children.push_back(NodeSpec{"A", {}});
    c.children.push_back(NodeSpec{"B", {}});
    if (i == 2 * k + 1) {
      c.children.push_back(NodeSpec{"A", {}});
    }
    forest.push_back(std::move(c));
  }
  return FromForest(forest);
}

Instance RandomLaminarInstance(Rng& rng, const RandomInstanceOptions& options) {
  // Simulate a cursor walking left to right, maintaining the stack of open
  // regions; each step either opens a child region or closes the innermost
  // open one. This yields a laminar family with all-distinct regions by
  // construction.
  std::map<std::string, std::vector<Region>> sets;
  struct Open {
    Offset left;
    std::string name;
  };
  std::vector<Open> open;
  Offset cursor = 0;
  int created = 0;
  std::vector<std::string> name_pool = options.names;
  if (name_pool.empty()) {
    for (int i = 0; i < std::max(1, options.max_names); ++i) {
      name_pool.push_back(StrCat({"R", std::to_string(i)}));
    }
  }
  auto random_name = [&] { return name_pool[rng.Below(name_pool.size())]; };
  while (created < options.num_regions || !open.empty()) {
    const bool may_open =
        created < options.num_regions &&
        static_cast<int>(open.size()) < std::max(1, options.max_depth);
    if (may_open && (open.empty() || !rng.Chance(options.sibling_bias))) {
      open.push_back(Open{cursor++, random_name()});
      ++created;
    } else if (!open.empty()) {
      sets[open.back().name].push_back(Region{open.back().left, cursor++});
      open.pop_back();
    }
  }
  Instance instance;
  for (const std::string& name : name_pool) {
    auto it = sets.find(name);
    instance.SetRegionSet(name, it == sets.end()
                                    ? RegionSet()
                                    : RegionSet::FromUnsorted(it->second));
  }
  return instance;
}

Instance RandomInstanceForRig(Rng& rng, const Digraph& rig, int num_regions,
                              int max_depth,
                              const std::vector<std::string>& root_labels) {
  std::vector<std::string> roots = root_labels;
  if (roots.empty()) roots = rig.Labels();
  std::vector<NodeSpec> forest;
  int budget = num_regions;

  // Recursive expansion along RIG edges.
  std::function<NodeSpec(Digraph::NodeId, int)> expand =
      [&](Digraph::NodeId node, int depth) {
        NodeSpec spec{rig.Label(node), {}};
        --budget;
        if (depth >= max_depth || budget <= 0) return spec;
        const auto& out = rig.OutNeighbors(node);
        if (out.empty()) return spec;
        // 0..3 children, each a random out-neighbor.
        int num_children = static_cast<int>(rng.Below(4));
        for (int i = 0; i < num_children && budget > 0; ++i) {
          Digraph::NodeId child = out[rng.Below(out.size())];
          spec.children.push_back(expand(child, depth + 1));
        }
        return spec;
      };

  while (budget > 0 && !roots.empty()) {
    const std::string& label = roots[rng.Below(roots.size())];
    auto id = rig.FindNode(label);
    if (!id.ok()) break;
    forest.push_back(expand(*id, 1));
  }
  Instance instance = FromForest(forest);
  // Ensure every RIG name is defined (possibly empty) so expressions over
  // the schema always evaluate.
  for (const std::string& label : rig.Labels()) {
    if (!instance.Has(label)) instance.SetRegionSet(label, RegionSet());
  }
  return instance;
}

void AssignRandomPatterns(Instance* instance, Rng& rng,
                          const std::vector<Pattern>& patterns, double prob) {
  RegionSet all = instance->AllRegions();
  for (const Pattern& p : patterns) {
    std::vector<Region> where;
    for (const Region& r : all) {
      if (rng.Chance(prob)) where.push_back(r);
    }
    instance->SetSyntheticPattern(p,
                                  RegionSet::FromSortedUnique(std::move(where)));
  }
}

}  // namespace regal
