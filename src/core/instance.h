#ifndef REGAL_CORE_INSTANCE_H_
#define REGAL_CORE_INSTANCE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/region.h"
#include "core/region_set.h"
#include "graph/digraph.h"
#include "index/word_index.h"
#include "text/pattern.h"
#include "text/text.h"
#include "util/status.h"

namespace regal {

/// The global region tree of an instance: every region in document order,
/// with its name id and its parent by direct inclusion. Immutable once
/// built, so concurrent readers index it without synchronization.
struct RegionTree {
  std::vector<Region> regions;
  /// Name id (index into Instance::names()) of each region.
  std::vector<int> name_ids;
  /// Parent index of each region, or -1 for roots. The parent is the
  /// unique region directly including it (Definition of Section 2.2).
  std::vector<int> parents;
  /// Maximum nesting depth (a single root counts 1; empty instance is 0).
  int depth = 0;

  /// Index of `r` in `regions`, or -1 if `r` is not an instance region.
  int Find(const Region& r) const;
};

/// An instance I of a region index (Definition 2.1): a mapping from region
/// names R_1..R_n to region sets, together with the word-index predicate
/// W(r, p).
///
/// Content comes in two modes:
///  * *text-backed*: a Text plus a WordIndex; W(r, p) holds iff a token
///    inside r matches p. This is the production path.
///  * *synthetic*: W is an explicit table (pattern key -> region set), the
///    fully general predicate of Definition 2.1. The counterexample
///    machinery of Sections 4-5 and the FMFT model correspondence use this.
///
/// The paper assumes hierarchical instances: every region belongs to exactly
/// one region name, and any two regions are disjoint or strictly nested.
/// Validate() checks exactly that. The global region *tree* (parents by
/// direct inclusion) is built lazily and backs the extended operators.
/// Const member functions are safe to call concurrently, including the
/// first one that builds the tree; mutators need exclusive access.
class Instance {
 public:
  Instance() = default;

  /// Movable but not copyable (the tree holds indices into internal state;
  /// use Clone() for an explicit deep copy). A moved-from instance may
  /// only be assigned to or destroyed.
  Instance(Instance&&) = default;
  Instance& operator=(Instance&&) = default;
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  Instance Clone() const;

  /// Defines region name `name` with the given instance. Error if already
  /// defined. Invalidates the tree.
  Status AddRegionSet(const std::string& name, RegionSet regions);

  /// Replaces (or defines) region name `name`. Invalidates the tree.
  void SetRegionSet(const std::string& name, RegionSet regions);

  /// The instance of `name`; NotFound if undefined.
  Result<const RegionSet*> Get(const std::string& name) const;

  bool Has(const std::string& name) const;

  /// All defined region names, in definition order.
  const std::vector<std::string>& names() const { return names_; }

  /// Union of all region sets (the ∪_{T∈I} T of Section 6).
  RegionSet AllRegions() const;

  /// Total number of regions across all names.
  size_t NumRegions() const;

  /// Binds text content: builds a SuffixArrayWordIndex over the vocabulary
  /// of `text` (a posting list per distinct word and a suffix array of the
  /// distinct words), which then answers W(r, p).
  void BindText(std::shared_ptr<const Text> text);

  /// Declares, in synthetic mode, the exact set of regions for which
  /// W(r, p) holds. Regions must belong to the instance.
  void SetSyntheticPattern(const Pattern& p, RegionSet regions_where_true);

  const Text* text() const { return text_.get(); }

  /// The bound word index, or nullptr in synthetic mode.
  const WordIndex* word_index() const { return word_index_.get(); }

  /// σ_p(R): the regions of R for which W(r, p) holds. Works in both
  /// content modes; in synthetic mode unseen patterns match nothing.
  RegionSet Select(const RegionSet& r, const Pattern& p) const;

  /// W(r, p) for a single region.
  bool W(const Region& r, const Pattern& p) const;

  /// The synthetic W tables (pattern cache key -> regions where W holds);
  /// empty in text-backed mode. Exposed for persistence.
  const std::map<std::string, RegionSet>& synthetic_patterns() const {
    return synthetic_w_;
  }

  /// Checks the hierarchy assumption of Section 2.1: no region in two
  /// names, and the union of all sets is laminar (disjoint-or-nested).
  Status Validate() const;

  // --- Mutation epoch and stamps (cross-query result-cache keys) ---

  /// Process-unique identity of this instance's content lineage. A fresh
  /// id is drawn on construction and on Clone(), and moves travel with the
  /// data — so (id, stamp) pairs never collide across distinct instances
  /// and a shared cache/result_cache.h can key on them safely.
  uint64_t id() const { return id_; }

  /// Monotone mutation counter: bumped by every operation that can change
  /// a query answer (AddRegionSet, SetRegionSet, BindText,
  /// SetSyntheticPattern). Each mutation stamps what it changed with the
  /// new epoch (NameStamp, content_stamp); a cached result is keyed by the
  /// newest stamp among what its expression reads (CacheKeyer in
  /// core/eval.h), so a write invalidates only the answers that read it.
  /// The whole-catalog epoch is the stamp of everything at once, which is
  /// what the region tree (⊃_d, ⊂_d) reads.
  uint64_t epoch() const { return epoch_; }

  /// The epoch at which `name` was last set (AddRegionSet / SetRegionSet),
  /// or epoch() when `name` is undefined.
  uint64_t NameStamp(const std::string& name) const;

  /// The epoch of the last BindText / SetSyntheticPattern (0 if none): the
  /// stamp of W, which σ and `word` read.
  uint64_t content_stamp() const { return content_stamp_; }

  // --- Global region tree (built on first use, invalidated by mutation) ---

  /// The tree, built by the first caller and shared by all later ones.
  /// Valid until the next mutation. Take it once per operator: element
  /// access through the returned reference is plain vector indexing.
  const RegionTree& Tree() const;

  /// Number of regions in the tree (== NumRegions()).
  size_t TreeSize() const { return Tree().regions.size(); }
  /// Index of `r` in the tree, or -1 if `r` is not an instance region.
  int TreeFind(const Region& r) const { return Tree().Find(r); }
  /// Maximum nesting depth (a single root counts 1; empty instance is 0).
  int TreeDepth() const { return Tree().depth; }

  /// The RIG derived from this instance: edge (A, B) iff some A region
  /// directly includes some B region here. Any RIG this instance satisfies
  /// is a supergraph (Definition 2.4).
  Digraph DeriveRig() const;

  /// The ROG derived from this instance: edge (A, B) iff some A region
  /// directly precedes some B region here.
  Digraph DeriveRog() const;

 private:
  /// The lazily built tree of one catalog state: `once` builds it, after
  /// which it is read-only. Mutators install a fresh slot; heap-held so
  /// the instance stays movable.
  struct TreeSlot {
    std::once_flag once;
    RegionTree tree;
  };

  RegionTree BuildTree() const;
  void InvalidateTree() { tree_slot_ = std::make_unique<TreeSlot>(); }
  static uint64_t NextId();

  uint64_t id_ = NextId();
  // Clone() copies the epoch with the stamps: the copied stamps must stay
  // below every epoch the clone's later writes issue, or a write could give
  // a name a stamp the clone already keyed an answer by.
  uint64_t epoch_ = 0;
  uint64_t content_stamp_ = 0;
  std::vector<std::string> names_;
  std::map<std::string, size_t> name_to_id_;
  std::vector<RegionSet> sets_;
  std::vector<uint64_t> set_stamps_;  // Parallel to sets_.

  std::shared_ptr<const Text> text_;
  std::shared_ptr<const WordIndex> word_index_;
  std::map<std::string, RegionSet> synthetic_w_;  // Keyed by Pattern::CacheKey.

  std::unique_ptr<TreeSlot> tree_slot_ = std::make_unique<TreeSlot>();
};

}  // namespace regal

#endif  // REGAL_CORE_INSTANCE_H_
