#include "core/extended.h"

#include <algorithm>
#include <map>
#include <memory>

#include "core/algebra.h"
#include "core/algebra_kernels.h"

namespace regal {

// Both operators look up each candidate's tree parent; a region outside
// the instance (Find() == -1) has none.
RegionSet DirectIncluding(const Instance& instance, const RegionSet& r,
                          const RegionSet& s) {
  const RegionTree& tree = instance.Tree();
  std::vector<Region> out;
  for (const Region& x : s) {
    const int idx = tree.Find(x);
    const int p = idx < 0 ? -1 : tree.parents[static_cast<size_t>(idx)];
    if (p >= 0 && r.Member(tree.regions[static_cast<size_t>(p)])) {
      out.push_back(tree.regions[static_cast<size_t>(p)]);
    }
  }
  return RegionSet::FromUnsorted(std::move(out));
}

RegionSet DirectIncluded(const Instance& instance, const RegionSet& r,
                         const RegionSet& s) {
  const RegionTree& tree = instance.Tree();
  std::unique_ptr<uint8_t[]> keep(new uint8_t[r.size()]);
  size_t kept = 0;
  for (size_t i = 0; i < r.size(); ++i) {
    const int idx = tree.Find(r[i]);
    const int p = idx < 0 ? -1 : tree.parents[static_cast<size_t>(idx)];
    const bool direct =
        p >= 0 && s.Member(tree.regions[static_cast<size_t>(p)]);
    keep[i] = direct;
    kept += direct;
  }
  std::vector<Region> out;
  kernels::AppendKept(r.regions().data(), keep.get(), kept, &out);
  return RegionSet::FromSortedUnique(std::move(out));
}

// One backward sweep over R with a cursor into S and one into T. e is the
// smallest right endpoint of the S regions with left >= x.left: when e <=
// x.right, the S region ending there is the witness inside x that ends
// first, which leaves the most room for T. f is the smallest right endpoint
// of the T regions with left > e, so x qualifies iff e and f both fit
// inside x. Strictness comes free: then s.right = e < t.left <= x.right and
// t.left > x.left, so neither witness equals x. As x.left falls, e can only
// fall, so the T cursor moves one way too.
RegionSet BothIncluded(const RegionSet& r, const RegionSet& s,
                       const RegionSet& t) {
  std::vector<Region> reversed;
  reversed.reserve(r.size());
  int64_t e = kernels::kEmptyMin;
  int64_t f = kernels::kEmptyMin;
  size_t j = s.size();
  size_t k = t.size();
  for (size_t i = r.size(); i-- > 0;) {
    const Region& x = r[i];
    for (; j > 0 && s[j - 1].left >= x.left; --j) {
      e = std::min<int64_t>(e, s[j - 1].right);
    }
    for (; k > 0 && t[k - 1].left > e; --k) {
      f = std::min<int64_t>(f, t[k - 1].right);
    }
    if (e <= x.right && f <= x.right) reversed.push_back(x);
  }
  std::vector<Region> out;
  kernels::AppendReversed(reversed, &out);
  return RegionSet::FromSortedUnique(std::move(out));
}

namespace naive {

RegionSet DirectIncluding(const Instance& instance, const RegionSet& r,
                          const RegionSet& s) {
  RegionSet all = instance.AllRegions();
  std::vector<Region> out;
  for (const Region& x : r) {
    bool keep = false;
    for (const Region& y : s) {
      if (!StrictlyIncludes(x, y)) continue;
      bool intervening = false;
      for (const Region& t : all) {
        if (StrictlyIncludes(x, t) && StrictlyIncludes(t, y)) {
          intervening = true;
          break;
        }
      }
      if (!intervening) {
        keep = true;
        break;
      }
    }
    if (keep) out.push_back(x);
  }
  return RegionSet::FromSortedUnique(std::move(out));
}

RegionSet DirectIncluded(const Instance& instance, const RegionSet& r,
                         const RegionSet& s) {
  RegionSet all = instance.AllRegions();
  std::vector<Region> out;
  for (const Region& x : r) {
    bool keep = false;
    for (const Region& y : s) {
      if (!StrictlyIncludes(y, x)) continue;
      bool intervening = false;
      for (const Region& t : all) {
        if (StrictlyIncludes(y, t) && StrictlyIncludes(t, x)) {
          intervening = true;
          break;
        }
      }
      if (!intervening) {
        keep = true;
        break;
      }
    }
    if (keep) out.push_back(x);
  }
  return RegionSet::FromSortedUnique(std::move(out));
}

RegionSet BothIncluded(const RegionSet& r, const RegionSet& s,
                       const RegionSet& t) {
  std::vector<Region> out;
  for (const Region& x : r) {
    bool keep = false;
    for (const Region& y : s) {
      if (!StrictlyIncludes(x, y)) continue;
      for (const Region& z : t) {
        if (StrictlyIncludes(x, z) && regal::Precedes(y, z)) {
          keep = true;
          break;
        }
      }
      if (keep) break;
    }
    if (keep) out.push_back(x);
  }
  return RegionSet::FromSortedUnique(std::move(out));
}

}  // namespace naive

RegionSet DirectIncludingLoop(const Instance& instance, const RegionSet& r1,
                              const RegionSet& r2, int* iterations) {
  // The first program of Section 6, verbatim:
  //   R1_layer := R1 - (R1 ⊂ R1); R1_rest := R1 - R1_layer; result := ∅;
  //   All := ∪_T T;
  //   while (R1_layer ⊃ R2) ≠ ∅ do
  //     result ∪= R1_layer ⊃ (R2 - (R2 ⊂ All ⊂ R1_layer));
  //     advance to the next nesting layer of R1;
  RegionSet layer = Difference(r1, Included(r1, r1));
  RegionSet rest = Difference(r1, layer);
  RegionSet result;
  RegionSet all = instance.AllRegions();
  if (iterations != nullptr) *iterations = 0;
  while (!Including(layer, r2).empty()) {
    if (iterations != nullptr) ++*iterations;
    RegionSet blocked = Included(r2, Included(all, layer));
    result = Union(result, Including(layer, Difference(r2, blocked)));
    layer = Difference(rest, Included(rest, rest));
    rest = Difference(rest, layer);
  }
  return result;
}

namespace {

// T(⊂T)^m, grouped from the right: m = 0 gives T itself; m = 1 gives
// T ⊂ T; m = 2 gives T ⊂ (T ⊂ T); i.e. the T regions with at least m
// proper T-ancestors.
RegionSet IncludedPower(const RegionSet& t, int m) {
  RegionSet x = t;
  for (int i = 0; i < m; ++i) x = Included(t, x);
  return x;
}

}  // namespace

Result<RegionSet> DirectChainLoop(
    const Instance& instance, const std::vector<std::string>& names,
    int* iterations, const std::vector<std::string>& restrict_all_to) {
  if (names.size() < 2) {
    return Status::InvalidArgument("a direct-inclusion chain needs >= 2 names");
  }
  const size_t n = names.size();
  REGAL_ASSIGN_OR_RETURN(const RegionSet* r1, instance.Get(names[0]));
  REGAL_ASSIGN_OR_RETURN(const RegionSet* rn, instance.Get(names[n - 1]));
  std::vector<const RegionSet*> middle;  // names[1] .. names[n-2].
  for (size_t i = 1; i + 1 < n; ++i) {
    REGAL_ASSIGN_OR_RETURN(const RegionSet* ri, instance.Get(names[i]));
    middle.push_back(ri);
  }

  // #_e^T: occurrences of T among R_2..R_{n-1}.
  std::map<std::string, int> multiplicity;
  for (size_t i = 1; i + 1 < n; ++i) ++multiplicity[names[i]];

  // All := ∪_T T(⊂T)^{#_e^T} — over all names, or over the separator
  // subset chosen by the RIG optimization when provided.
  const std::vector<std::string>& all_names =
      restrict_all_to.empty() ? instance.names() : restrict_all_to;
  RegionSet all;
  for (const std::string& t_name : all_names) {
    REGAL_ASSIGN_OR_RETURN(const RegionSet* t, instance.Get(t_name));
    auto it = multiplicity.find(t_name);
    int m = (it == multiplicity.end()) ? 0 : it->second;
    all = Union(all, IncludedPower(*t, m));
  }

  // The second program of Section 6, verbatim.
  RegionSet layer = Difference(*r1, Included(*r1, *r1));
  RegionSet rest = Difference(*r1, layer);
  RegionSet result;
  if (iterations != nullptr) *iterations = 0;
  while (!layer.empty()) {
    if (iterations != nullptr) ++*iterations;
    RegionSet inner =
        Difference(*rn, Included(*rn, Included(all, layer)));
    for (size_t i = middle.size(); i-- > 0;) {
      inner = Including(*middle[i], inner);
    }
    result = Union(result, Including(layer, inner));
    layer = Difference(rest, Included(rest, rest));
    rest = Difference(rest, layer);
  }
  return result;
}

Result<RegionSet> DirectChainStepwise(const Instance& instance,
                                      const std::vector<std::string>& names,
                                      int* iterations) {
  if (names.size() < 2) {
    return Status::InvalidArgument("a direct-inclusion chain needs >= 2 names");
  }
  if (iterations != nullptr) *iterations = 0;
  REGAL_ASSIGN_OR_RETURN(const RegionSet* last,
                         instance.Get(names[names.size() - 1]));
  RegionSet current = *last;
  for (size_t i = names.size() - 1; i-- > 0;) {
    REGAL_ASSIGN_OR_RETURN(const RegionSet* ri, instance.Get(names[i]));
    int step_iterations = 0;
    current = DirectIncludingLoop(instance, *ri, current, &step_iterations);
    if (iterations != nullptr) *iterations += step_iterations;
  }
  return current;
}

ExprPtr DirectIncludingBounded(const ExprPtr& e1, const ExprPtr& e2,
                               int max_depth,
                               const std::vector<std::string>& catalog_names) {
  // All regions of the instance, as an expression (Prop 5.2 proof sketch).
  ExprPtr all = Expr::Name(catalog_names[0]);
  for (size_t i = 1; i < catalog_names.size(); ++i) {
    all = Expr::Union(all, Expr::Name(catalog_names[i]));
  }
  // Nesting layers of e1: C_1 = e1, C_{i+1} = e1 ⊂ C_i (regions of e1 with
  // >= i proper e1-ancestors); L_i = C_i - C_{i+1} is non-nested, so the
  // paper's non-nested formula L ⊃ (R - (R ⊂ All ⊂ L)) applies per layer.
  ExprPtr result;
  ExprPtr c = e1;
  for (int i = 0; i < max_depth; ++i) {
    ExprPtr c_next = Expr::Included(e1, c);
    ExprPtr layer = Expr::Difference(c, c_next);
    ExprPtr blocked = Expr::Included(e2, Expr::Included(all, layer));
    ExprPtr term = Expr::Including(layer, Expr::Difference(e2, blocked));
    result = (result == nullptr) ? term : Expr::Union(result, term);
    c = c_next;
  }
  // max_depth == 0: the empty union, i.e. the empty set.
  if (result == nullptr) result = Expr::Difference(e1, e1);
  return result;
}

ExprPtr DirectIncludedBounded(const ExprPtr& e1, const ExprPtr& e2,
                              int max_depth,
                              const std::vector<std::string>& catalog_names) {
  ExprPtr all = Expr::Name(catalog_names[0]);
  for (size_t i = 1; i < catalog_names.size(); ++i) {
    all = Expr::Union(all, Expr::Name(catalog_names[i]));
  }
  // Nesting layers of e2 (the container side); r is directly included in a
  // layer region iff it is inside one with no instance region in between.
  ExprPtr result;
  ExprPtr c = e2;
  for (int i = 0; i < max_depth; ++i) {
    ExprPtr c_next = Expr::Included(e2, c);
    ExprPtr layer = Expr::Difference(c, c_next);
    ExprPtr term = Expr::Difference(
        Expr::Included(e1, layer),
        Expr::Included(e1, Expr::Included(all, layer)));
    result = (result == nullptr) ? term : Expr::Union(result, term);
    c = c_next;
  }
  if (result == nullptr) result = Expr::Difference(e1, e1);
  return result;
}

ExprPtr BothIncludedBounded(const ExprPtr& r, const ExprPtr& s,
                            const ExprPtr& t, int max_width) {
  // Order layers of U = s ∪ t: F_1 = U, F_{i+1} = U > F_i, so F_i holds the
  // U regions ending a chain of >= i pairwise disjoint U regions, and
  // L_i = F_i - F_{i+1} holds those whose longest such chain is exactly i.
  // When U is an antichain, s' ∈ L_i and t' ∈ L_j with i < j and both inside
  // the same region x satisfy s' < t' (see extended.h for the argument).
  ExprPtr u = Expr::Union(s, t);
  std::vector<ExprPtr> layers;
  ExprPtr f = u;
  for (int i = 0; i < max_width; ++i) {
    ExprPtr f_next = Expr::Follows(u, f);
    layers.push_back(Expr::Difference(f, f_next));
    f = f_next;
  }
  ExprPtr result;
  for (int i = 0; i < max_width; ++i) {
    ExprPtr s_in_i = Expr::Including(r, Expr::Intersect(s, layers[static_cast<size_t>(i)]));
    for (int j = i + 1; j < max_width; ++j) {
      ExprPtr t_in_j =
          Expr::Including(r, Expr::Intersect(t, layers[static_cast<size_t>(j)]));
      ExprPtr term = Expr::Intersect(s_in_i, t_in_j);
      result = (result == nullptr) ? term : Expr::Union(result, term);
    }
  }
  // max_width < 2 leaves no (i, j) pair: the empty set.
  if (result == nullptr) result = Expr::Difference(r, r);
  return result;
}

}  // namespace regal
