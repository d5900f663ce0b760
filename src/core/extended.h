#ifndef REGAL_CORE_EXTENDED_H_
#define REGAL_CORE_EXTENDED_H_

#include <string>
#include <vector>

#include "core/expr.h"
#include "core/instance.h"
#include "core/region_set.h"
#include "util/status.h"

namespace regal {

/// The extended operators of Sections 5-6. Each comes in up to three
/// styles, which are each other's oracles in the tests:
///
///  1. *native*: tree-based algorithms using the instance's global region
///     tree (near-linear);
///  2. *loop program*: the paper's Section 6 while-programs, built from
///     base algebra operations only;
///  3. *bounded expansion*: the pure base-algebra expressions of
///     Props 5.2/5.4, valid only under the stated bound.

/// R ⊃_d S = {r ∈ R : ∃s ∈ S, r directly includes s} where "directly"
/// quantifies over all regions of the instance (Section 5.1). Native:
/// O(|S| log n) parent lookups in the instance tree.
RegionSet DirectIncluding(const Instance& instance, const RegionSet& r,
                          const RegionSet& s);

/// R ⊂_d S = {r ∈ R : ∃s ∈ S, s directly includes r}.
RegionSet DirectIncluded(const Instance& instance, const RegionSet& r,
                         const RegionSet& s);

/// R BI (S, T) = {r ∈ R : ∃s ∈ S, t ∈ T, r ⊃ s, r ⊃ t, s < t}
/// (Section 5.2). One O(|R| + |S| + |T|) sweep: r qualifies iff some T
/// region inside r starts after the first-ending S region inside r.
RegionSet BothIncluded(const RegionSet& r, const RegionSet& s,
                       const RegionSet& t);

/// O(n*m) reference implementations.
namespace naive {
RegionSet DirectIncluding(const Instance& instance, const RegionSet& r,
                          const RegionSet& s);
RegionSet DirectIncluded(const Instance& instance, const RegionSet& r,
                         const RegionSet& s);
RegionSet BothIncluded(const RegionSet& r, const RegionSet& s,
                       const RegionSet& t);
}  // namespace naive

/// The first while-program of Section 6: computes R1 ⊃_d R2 using only base
/// algebra operations, looping over the nesting layers of R1. `counters`
/// (optional) receives the number of loop iterations executed.
RegionSet DirectIncludingLoop(const Instance& instance, const RegionSet& r1,
                              const RegionSet& r2, int* iterations = nullptr);

/// The second while-program of Section 6: computes the right-grouped chain
///   names[0] ⊃_d names[1] ⊃_d ... ⊃_d names.back()
/// with a single loop. Errors if any name is undefined. When
/// `restrict_all_to` is non-empty, the program's `All` set is built from
/// those names only (the RIG-based optimization discussed after the
/// program; see rig/minimal_set.h for how the name set is chosen).
///
/// REPRODUCTION FINDING (see EXPERIMENTS.md): transcribed literally, the
/// paper's program computes the ⊃_d chain only on instances where no middle
/// name's regions nest within each other and no middle region contains an
/// R1 region. The global set All = ∪_T T(⊂T)^{#_e^T} cannot distinguish a
/// middle region's *relative* nesting depth below the current R1 layer from
/// its global depth, so on self-nesting middles (e.g. Proc_body under
/// nested Procs — the paper's own Figure 1 scenario) it over-blocks
/// witnesses and under-approximates the result. DirectChainStepwise is the
/// exact-semantics oracle; the tests pin down both the agreement on the
/// valid class and the divergence outside it.
Result<RegionSet> DirectChainLoop(
    const Instance& instance, const std::vector<std::string>& names,
    int* iterations = nullptr,
    const std::vector<std::string>& restrict_all_to = {});

/// Naive chain evaluation: applies the single-⊃_d loop program once per
/// chain step (the "very expensive" strategy the paper's single-loop
/// program improves on). The baseline of experiment E6.
Result<RegionSet> DirectChainStepwise(const Instance& instance,
                                      const std::vector<std::string>& names,
                                      int* iterations = nullptr);

/// Prop 5.2: a pure base-algebra expression computing e1 ⊃_d e2 on every
/// instance whose e1-result has nesting depth <= max_depth and whose
/// regions all belong to `catalog_names`. Size O(max_depth * |catalog|).
ExprPtr DirectIncludingBounded(const ExprPtr& e1, const ExprPtr& e2,
                               int max_depth,
                               const std::vector<std::string>& catalog_names);

/// The ⊂_d mirror of Prop 5.2: a pure base-algebra expression computing
/// e1 ⊂_d e2 on instances whose e2-result has nesting depth <= max_depth.
/// Per container layer L_i of e2: (e1 ⊂ L_i) − (e1 ⊂ (All ⊂ L_i)).
ExprPtr DirectIncludedBounded(const ExprPtr& e1, const ExprPtr& e2,
                              int max_depth,
                              const std::vector<std::string>& catalog_names);

/// Prop 5.4 (construction; the paper leaves the details unspecified): a
/// pure base-algebra expression computing BI(r; s, t), valid on instances
/// where (a) the regions of s and t form an antichain (no two nested) and
/// (b) at most `max_width` pairwise disjoint s/t regions exist. This covers
/// the document-retrieval scenario motivating Section 5.2 (s, t select
/// word-level regions) and the Figure 3 family. Size O(max_width^2).
ExprPtr BothIncludedBounded(const ExprPtr& r, const ExprPtr& s,
                            const ExprPtr& t, int max_width);

}  // namespace regal

#endif  // REGAL_CORE_EXTENDED_H_
