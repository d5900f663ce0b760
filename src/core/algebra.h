#ifndef REGAL_CORE_ALGEBRA_H_
#define REGAL_CORE_ALGEBRA_H_

#include <vector>

#include "core/region.h"
#include "core/region_set.h"
#include "text/tokenizer.h"

namespace regal {

/// Efficient implementations of the region algebra operators of
/// Definition 2.3. All inputs/outputs are document-ordered RegionSets; no
/// laminarity is assumed (the operators are correct for arbitrary region
/// sets), so they also serve instances that violate the hierarchy
/// assumption.
///
/// Complexities: every operator is O(|R| + |S|). Set operations are linear
/// merges (galloping when one side is much shorter). The structural
/// semi-joins (Including/Included/SelectByTokens) are one sweep over both
/// sorted operands that carries a running minimum or maximum of right
/// endpoints, with no index; Precedes/Follows compare against one extreme
/// endpoint of S.
///
/// `naive::` holds O(|R|*|S|) reference implementations used as oracles by
/// the property tests and as the baseline in bench_operators (experiment E8).

/// R ∪ S.
RegionSet Union(const RegionSet& r, const RegionSet& s);
/// R ∩ S.
RegionSet Intersect(const RegionSet& r, const RegionSet& s);
/// R - S.
RegionSet Difference(const RegionSet& r, const RegionSet& s);

/// R ⊃ S = {r ∈ R : ∃s ∈ S, r strictly includes s}.
RegionSet Including(const RegionSet& r, const RegionSet& s);
/// R ⊂ S = {r ∈ R : ∃s ∈ S, s strictly includes r}.
RegionSet Included(const RegionSet& r, const RegionSet& s);
/// R < S = {r ∈ R : ∃s ∈ S, r precedes s}.
RegionSet Precedes(const RegionSet& r, const RegionSet& s);
/// R > S = {r ∈ R : ∃s ∈ S, r follows s}.
RegionSet Follows(const RegionSet& r, const RegionSet& s);

/// σ_p(R) given the tokens matching p: the regions of R containing (not
/// necessarily strictly) at least one matching token. `tokens` must be
/// sorted by left endpoint, as WordIndex::Matches returns them (by (left,
/// right)); duplicates are harmless.
RegionSet SelectByTokens(const RegionSet& r, const std::vector<Token>& tokens);

namespace naive {

RegionSet Including(const RegionSet& r, const RegionSet& s);
RegionSet Included(const RegionSet& r, const RegionSet& s);
RegionSet Precedes(const RegionSet& r, const RegionSet& s);
RegionSet Follows(const RegionSet& r, const RegionSet& s);
RegionSet Union(const RegionSet& r, const RegionSet& s);
RegionSet Intersect(const RegionSet& r, const RegionSet& s);
RegionSet Difference(const RegionSet& r, const RegionSet& s);
RegionSet SelectByTokens(const RegionSet& r, const std::vector<Token>& tokens);

}  // namespace naive

}  // namespace regal

#endif  // REGAL_CORE_ALGEBRA_H_
