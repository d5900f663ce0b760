#ifndef REGAL_E2EBENCH_STREAMS_H_
#define REGAL_E2EBENCH_STREAMS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/region_set.h"
#include "graph/digraph.h"
#include "recovery/wal.h"
#include "util/random.h"

namespace regal {
namespace e2e {

// Seeded inputs of every workload. Everything here is a pure function of
// its arguments, so one seed always yields byte-identical query and
// mutation streams (checked by the self-test) and the program under test
// only ever sees the generated text and region sets.

/// Analyst queries over the dictionary schema (dictionary > entry >
/// {headword, pos, sense > {def, quote > {date, author, qtext}}}): ⊃ ⊂ < >
/// chains, ∪ ∩ −, σ_p on `termN`, author and date words, and — with
/// probability `extended_share` per operator — ⊃_d / ⊂_d and BI. Every
/// query has at least one operator and names only schema regions.
class QueryGenerator {
 public:
  QueryGenerator(uint64_t seed, double extended_share);

  /// One query whose result regions are `target` regions. `budget` bounds
  /// the operator nesting.
  std::string Generate(const std::string& target, int budget);
  /// One query over a random target name.
  std::string Next();

 private:
  std::string Word(const std::string& target);

  Rng rng_;
  double extended_share_;
};

/// A hot set of distinct generated queries, `per_class` in each of eight
/// result-size classes (by `rows`, the query's result size on the corpus,
/// or -1 to skip it), so every seed's hot set moves about the same number
/// of rows per request and only the queries themselves change.
std::vector<std::string> HotSet(
    uint64_t seed, size_t per_class, double extended_share,
    const std::function<int64_t(const std::string&)>& rows);

/// `count` distinct queries.
std::vector<std::string> DistinctQueries(uint64_t seed, size_t count,
                                         double extended_share);

/// Queries that read mutated region names: each names exactly one
/// `MarkName(k)`, k < marks, and the query templates come in turn.
std::vector<std::string> MarkQueries(uint64_t seed, int marks, size_t count);

/// Queries over the dictionary's own names from fixed templates taken in
/// turn (⊃ ⊂ < > and ∪ ∩ − around exact-word σ_p), so every seed's set costs
/// about the same to evaluate; the seed picks the words. No ⊃_d / ⊂_d / BI.
std::vector<std::string> StaticQueries(uint64_t seed, size_t count);

/// The mark name a MarkQueries() query reads, or -1 for none.
int MarkOf(const std::string& query, int marks);

/// A seeded sequence of `n` indices below `choices`.
std::vector<uint32_t> IndexSequence(uint64_t seed, size_t n, size_t choices);

std::string MarkName(int k);
std::string AddName(int j);

/// The dictionary RIG plus the names the ingest writer maintains: each mark
/// and add name nests directly inside `def` and `qtext` leaves.
Digraph IngestRig(int marks, int adds);

/// The ingest writer's mutations over the leaf regions `leaves` (document
/// order). Leaf i belongs to mark (i mod (marks+1)); the last class is
/// reserved for DefineRegions of fresh add names, four leaves each. Every
/// region is a strict sub-span of its leaf, so the instance stays
/// hierarchical and conforms to IngestRig(). `initial` defines every mark
/// (applied while seeding); `stream` then replaces marks and, every eighth
/// write while reserved leaves last, defines the next add name.
struct MutationPlan {
  int marks = 0;
  int adds = 0;  // Add names `stream` defines.
  std::vector<recovery::Mutation> initial;
  std::vector<recovery::Mutation> stream;
};
MutationPlan PlanMutations(const RegionSet& leaves, uint64_t seed, int marks,
                           size_t count);

/// Bytes of user payload a mutation carries: the name plus its regions as
/// stored in memory (two 32-bit offsets each).
int64_t PayloadBytes(const recovery::Mutation& m);

uint64_t DigestQueries(const std::vector<std::string>& queries,
                       uint64_t seed = 0);
uint64_t DigestIndices(const std::vector<uint32_t>& indices,
                       uint64_t seed = 0);
uint64_t DigestMutations(const std::vector<recovery::Mutation>& mutations,
                         uint64_t seed = 0);

}  // namespace e2e
}  // namespace regal

#endif  // REGAL_E2EBENCH_STREAMS_H_
