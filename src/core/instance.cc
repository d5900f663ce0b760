#include "core/instance.h"

#include <algorithm>
#include <atomic>

#include "core/algebra.h"

namespace regal {

uint64_t Instance::NextId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

Instance Instance::Clone() const {
  Instance out;
  out.epoch_ = epoch_;
  out.content_stamp_ = content_stamp_;
  out.names_ = names_;
  out.name_to_id_ = name_to_id_;
  out.sets_ = sets_;
  out.set_stamps_ = set_stamps_;
  out.text_ = text_;
  out.word_index_ = word_index_;
  out.synthetic_w_ = synthetic_w_;
  return out;
}

Status Instance::AddRegionSet(const std::string& name, RegionSet regions) {
  if (name_to_id_.count(name) > 0) {
    return Status::AlreadyExists("region name '" + name + "' already defined");
  }
  name_to_id_[name] = names_.size();
  names_.push_back(name);
  sets_.push_back(std::move(regions));
  set_stamps_.push_back(++epoch_);
  InvalidateTree();
  return Status::OK();
}

void Instance::SetRegionSet(const std::string& name, RegionSet regions) {
  auto it = name_to_id_.find(name);
  if (it == name_to_id_.end()) {
    name_to_id_[name] = names_.size();
    names_.push_back(name);
    sets_.push_back(std::move(regions));
    set_stamps_.push_back(++epoch_);
  } else {
    sets_[it->second] = std::move(regions);
    set_stamps_[it->second] = ++epoch_;
  }
  InvalidateTree();
}

Result<const RegionSet*> Instance::Get(const std::string& name) const {
  auto it = name_to_id_.find(name);
  if (it == name_to_id_.end()) {
    return Status::NotFound("region name '" + name + "' is not defined");
  }
  return &sets_[it->second];
}

uint64_t Instance::NameStamp(const std::string& name) const {
  auto it = name_to_id_.find(name);
  return it == name_to_id_.end() ? epoch_ : set_stamps_[it->second];
}

bool Instance::Has(const std::string& name) const {
  return name_to_id_.count(name) > 0;
}

RegionSet Instance::AllRegions() const {
  return RegionSet::FromSortedUnique(Tree().regions);
}

size_t Instance::NumRegions() const {
  size_t total = 0;
  for (const RegionSet& s : sets_) total += s.size();
  return total;
}

void Instance::BindText(std::shared_ptr<const Text> text) {
  auto index = std::make_shared<SuffixArrayWordIndex>(text.get());
  BindText(std::move(text), std::move(index));
}

void Instance::BindText(std::shared_ptr<const Text> text,
                        std::shared_ptr<const WordIndex> index) {
  text_ = std::move(text);
  word_index_ = std::move(index);
  content_stamp_ = ++epoch_;  // Selections and word matches now differ.
}

void Instance::SetSyntheticPattern(const Pattern& p,
                                   RegionSet regions_where_true) {
  synthetic_w_[p.CacheKey()] = std::move(regions_where_true);
  content_stamp_ = ++epoch_;
}

RegionSet Instance::Select(const RegionSet& r, const Pattern& p) const {
  if (word_index_ != nullptr) {
    return SelectByTokens(r, word_index_->Matches(p));
  }
  auto it = synthetic_w_.find(p.CacheKey());
  if (it == synthetic_w_.end()) return RegionSet();
  return Intersect(r, it->second);
}

bool Instance::W(const Region& r, const Pattern& p) const {
  if (word_index_ != nullptr) {
    return word_index_->Contains(r.left, r.right, p);
  }
  auto it = synthetic_w_.find(p.CacheKey());
  return it != synthetic_w_.end() && it->second.Member(r);
}

Status Instance::Validate() const {
  // Each region in exactly one name: collect all and look for duplicates.
  std::vector<Region> all;
  all.reserve(NumRegions());
  for (const RegionSet& s : sets_) {
    for (const Region& r : s) {
      if (r.left > r.right) {
        return Status::FailedPrecondition("region " + regal::ToString(r) +
                                          " has left > right");
      }
      all.push_back(r);
    }
  }
  std::sort(all.begin(), all.end(), RegionDocumentOrder());
  for (size_t i = 1; i < all.size(); ++i) {
    if (all[i] == all[i - 1]) {
      return Status::FailedPrecondition(
          "region " + regal::ToString(all[i]) +
          " appears twice (regions must belong to exactly one name)");
    }
  }
  RegionSet combined = RegionSet::FromSortedUnique(std::move(all));
  if (!combined.IsLaminar()) {
    return Status::FailedPrecondition(
        "instance is not hierarchical: two regions partially overlap");
  }
  return Status::OK();
}

const RegionTree& Instance::Tree() const {
  // Queries share the catalog lock, so the first operators that need the
  // tree can arrive together: call_once builds it exactly once and makes
  // the finished tree visible to every caller.
  TreeSlot& slot = *tree_slot_;
  std::call_once(slot.once, [&] { slot.tree = BuildTree(); });
  return slot.tree;
}

RegionTree Instance::BuildTree() const {
  // Each name's set is in document order, so the tree's order is their
  // k-way merge: a heap of the names' next regions, the first on top.
  struct Cursor {
    const Region* next;
    const Region* end;
    int name_id;
  };
  std::vector<Cursor> heap;
  for (size_t id = 0; id < sets_.size(); ++id) {
    const std::vector<Region>& regions = sets_[id].regions();
    if (regions.empty()) continue;
    heap.push_back(Cursor{regions.data(), regions.data() + regions.size(),
                          static_cast<int>(id)});
  }
  const auto later = [](const Cursor& a, const Cursor& b) {
    return RegionDocumentOrder()(*b.next, *a.next);
  };
  std::make_heap(heap.begin(), heap.end(), later);
  const size_t n = NumRegions();
  RegionTree tree;
  tree.regions.reserve(n);
  tree.name_ids.reserve(n);
  tree.parents.assign(n, -1);
  std::vector<int> open;  // Stack of indices of currently-open ancestors.
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Cursor& first = heap.back();
    const Region r = *first.next;
    const size_t i = tree.regions.size();
    tree.regions.push_back(r);
    tree.name_ids.push_back(first.name_id);
    if (++first.next == first.end) {
      heap.pop_back();
    } else {
      std::push_heap(heap.begin(), heap.end(), later);
    }
    while (!open.empty() &&
           tree.regions[static_cast<size_t>(open.back())].right < r.left) {
      open.pop_back();
    }
    if (!open.empty()) tree.parents[i] = open.back();
    open.push_back(static_cast<int>(i));
    tree.depth = std::max(tree.depth, static_cast<int>(open.size()));
  }
  return tree;
}

int RegionTree::Find(const Region& r) const {
  auto it = std::lower_bound(regions.begin(), regions.end(), r,
                             RegionDocumentOrder());
  if (it == regions.end() || !(*it == r)) return -1;
  return static_cast<int>(it - regions.begin());
}

Digraph Instance::DeriveRig() const {
  const RegionTree& tree = Tree();
  Digraph g;
  for (const std::string& name : names_) g.AddNode(name);
  for (size_t i = 0; i < tree.regions.size(); ++i) {
    int p = tree.parents[i];
    if (p >= 0) {
      g.AddEdge(static_cast<Digraph::NodeId>(tree.name_ids[static_cast<size_t>(p)]),
                static_cast<Digraph::NodeId>(tree.name_ids[i]));
    }
  }
  return g;
}

Digraph Instance::DeriveRog() const {
  const RegionTree& tree = Tree();
  const std::vector<Region>& regions = tree.regions;
  Digraph g;
  for (const std::string& name : names_) g.AddNode(name);
  // Regions sorted by right endpoint, for "everything ending before x".
  std::vector<size_t> by_right(regions.size());
  for (size_t i = 0; i < by_right.size(); ++i) by_right[i] = i;
  std::sort(by_right.begin(), by_right.end(), [&](size_t a, size_t b) {
    return regions[a].right < regions[b].right;
  });
  std::vector<Offset> rights_sorted;
  std::vector<Offset> prefix_max_left;  // Max left among by_right[0..i].
  rights_sorted.reserve(by_right.size());
  Offset running = -1;
  for (size_t i : by_right) {
    rights_sorted.push_back(regions[i].right);
    running = std::max(running, regions[i].left);
    prefix_max_left.push_back(running);
  }
  for (size_t s = 0; s < regions.size(); ++s) {
    const Region& rs = regions[s];
    // B = regions ending strictly before left(rs); r directly precedes rs
    // iff r in B and right(r) >= L* where L* = max left endpoint in B
    // (otherwise some region lies wholly between r and rs).
    auto hi = std::lower_bound(rights_sorted.begin(), rights_sorted.end(),
                               rs.left);
    if (hi == rights_sorted.begin()) continue;
    size_t count = static_cast<size_t>(hi - rights_sorted.begin());
    Offset l_star = prefix_max_left[count - 1];
    auto lo = std::lower_bound(rights_sorted.begin(), hi, l_star);
    for (auto it = lo; it != hi; ++it) {
      size_t r = by_right[static_cast<size_t>(it - rights_sorted.begin())];
      g.AddEdge(static_cast<Digraph::NodeId>(tree.name_ids[r]),
                static_cast<Digraph::NodeId>(tree.name_ids[s]));
    }
  }
  return g;
}

}  // namespace regal
