#include "reduce/reduce.h"

#include <functional>

#include "reduce/deletion.h"

namespace regal {

namespace {

// Children lists for the instance tree, in document order.
std::vector<std::vector<int>> ChildrenLists(const RegionTree& tree) {
  std::vector<std::vector<int>> children(tree.regions.size());
  for (size_t i = 0; i < tree.regions.size(); ++i) {
    int p = tree.parents[i];
    if (p >= 0) children[static_cast<size_t>(p)].push_back(static_cast<int>(i));
  }
  return children;
}

bool SameLabels(const Instance& instance, int u, int v,
                const std::vector<Pattern>& patterns) {
  const RegionTree& tree = instance.Tree();
  if (tree.name_ids[static_cast<size_t>(u)] !=
      tree.name_ids[static_cast<size_t>(v)]) {
    return false;
  }
  const Region& ru = tree.regions[static_cast<size_t>(u)];
  const Region& rv = tree.regions[static_cast<size_t>(v)];
  for (const Pattern& p : patterns) {
    if (instance.W(ru, p) != instance.W(rv, p)) return false;
  }
  return true;
}

bool SubtreesIsomorphic(const Instance& instance,
                        const std::vector<std::vector<int>>& children, int u,
                        int v, const std::vector<Pattern>& patterns,
                        std::vector<std::pair<int, int>>* pairs) {
  if (!SameLabels(instance, u, v, patterns)) return false;
  const auto& cu = children[static_cast<size_t>(u)];
  const auto& cv = children[static_cast<size_t>(v)];
  if (cu.size() != cv.size()) return false;
  if (pairs != nullptr) pairs->emplace_back(u, v);
  for (size_t i = 0; i < cu.size(); ++i) {
    if (!SubtreesIsomorphic(instance, children, cu[i], cv[i], patterns,
                            pairs)) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool AreIsomorphic(const Instance& instance, const Region& r1,
                   const Region& r2, const std::vector<Pattern>& patterns) {
  const RegionTree& tree = instance.Tree();
  int u = tree.Find(r1);
  int v = tree.Find(r2);
  if (u < 0 || v < 0 || u == v) return false;
  // Ancestor chains must match level by level on names and patterns (the
  // "regions containing r" part of S_r).
  int pu = tree.parents[static_cast<size_t>(u)];
  int pv = tree.parents[static_cast<size_t>(v)];
  while (pu >= 0 && pv >= 0) {
    if (!SameLabels(instance, pu, pv, patterns)) return false;
    pu = tree.parents[static_cast<size_t>(pu)];
    pv = tree.parents[static_cast<size_t>(pv)];
  }
  if (pu != pv) return false;  // Different depths.
  std::vector<std::vector<int>> children = ChildrenLists(tree);
  return SubtreesIsomorphic(instance, children, u, v, patterns, nullptr);
}

Result<ReduceResult> Reduce(const Instance& instance, const Region& r1,
                            const Region& r2,
                            const std::vector<Pattern>& patterns) {
  const RegionTree& tree = instance.Tree();
  int u = tree.Find(r1);
  int v = tree.Find(r2);
  if (u < 0 || v < 0) {
    return Status::NotFound("reduce: region not in the instance");
  }
  if (!AreIsomorphic(instance, r1, r2, patterns)) {
    return Status::FailedPrecondition("reduce: regions are not isomorphic");
  }
  std::vector<std::vector<int>> children = ChildrenLists(tree);
  std::vector<std::pair<int, int>> pairs;
  SubtreesIsomorphic(instance, children, u, v, patterns, &pairs);
  ReduceResult out;
  std::vector<Region> deleted;
  for (const auto& [du, dv] : pairs) {
    const Region& from = tree.regions[static_cast<size_t>(du)];
    const Region& to = tree.regions[static_cast<size_t>(dv)];
    deleted.push_back(from);
    out.mapping[from] = to;
  }
  out.instance =
      DeleteRegions(instance, RegionSet::FromUnsorted(std::move(deleted)));
  return out;
}

Region ApplyMapping(const RegionMapping& h, const Region& r) {
  auto it = h.find(r);
  return it == h.end() ? r : it->second;
}

Status CheckKReducedOrderCondition(const Instance& original,
                                   const Instance& reduced,
                                   const RegionMapping& h_k,
                                   const RegionMapping& h_prime,
                                   OrderCheckMode mode) {
  RegionSet all = original.AllRegions();
  RegionSet surviving = reduced.AllRegions();
  auto h_k_of = [&](const Region& r) { return ApplyMapping(h_k, r); };
  for (const Region& r : all) {
    for (const Region& s : all) {
      bool before = Precedes(r, s);
      // ∃t ∈ I' with h_prime(t) == h_prime(h_k(s)) and h_k(r) < t in I'.
      Region target = ApplyMapping(h_prime, h_k_of(s));
      bool witness = false;
      for (const Region& t : surviving) {
        if (ApplyMapping(h_prime, t) == target && Precedes(h_k_of(r), t)) {
          witness = true;
          break;
        }
      }
      bool violated = (mode == OrderCheckMode::kBiconditional)
                          ? (before != witness)
                          : (before && !witness);
      if (violated) {
        return Status::FailedPrecondition(
            "order condition violated for r=" + regal::ToString(r) +
            " s=" + regal::ToString(s) + (before ? " (lost)" : " (spurious)"));
      }
    }
  }
  return Status::OK();
}

}  // namespace regal
