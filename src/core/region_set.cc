#include "core/region_set.h"

#include <algorithm>

namespace regal {

const std::vector<Region> RegionSet::kNoRegions;

RegionSet::RegionSet(std::vector<Region> regions) {
  if (regions.empty()) return;
  if (regions.capacity() != regions.size()) regions.shrink_to_fit();
  payload_ = std::make_shared<const std::vector<Region>>(std::move(regions));
}

RegionSet RegionSet::FromUnsorted(std::vector<Region> regions) {
  // Hot-path construction: inputs are adopted by move, and already-ordered
  // inputs (token streams, per-chunk results) skip the sort.
  RegionDocumentOrder less;
  if (!std::is_sorted(regions.begin(), regions.end(), less)) {
    std::sort(regions.begin(), regions.end(), less);
  }
  auto first_dup = std::adjacent_find(regions.begin(), regions.end());
  if (first_dup != regions.end()) {
    regions.erase(std::unique(first_dup, regions.end()), regions.end());
  }
  return RegionSet(std::move(regions));
}

RegionSet RegionSet::FromSortedUnique(std::vector<Region> regions) {
  return RegionSet(std::move(regions));
}

RegionSet::RegionSet(std::initializer_list<Region> regions)
    : RegionSet(FromUnsorted(std::vector<Region>(regions))) {}

bool RegionSet::Member(const Region& r) const {
  auto it = std::lower_bound(begin(), end(), r, RegionDocumentOrder());
  return it != end() && *it == r;
}

bool RegionSet::IsValid() const {
  const std::vector<Region>& r = regions();
  RegionDocumentOrder less;
  for (size_t i = 1; i < r.size(); ++i) {
    if (!less(r[i - 1], r[i])) return false;
  }
  return true;
}

bool RegionSet::IsLaminar() const {
  if (!IsValid()) return false;
  // In document order, a region partially overlaps its successor chain only
  // via the nearest "open" ancestors; a stack sweep suffices.
  std::vector<Region> open;
  for (const Region& r : *this) {
    while (!open.empty() && open.back().right < r.left) open.pop_back();
    if (!open.empty()) {
      const Region& top = open.back();
      if (!StrictlyIncludes(top, r)) return false;  // Overlap or duplicate.
    }
    open.push_back(r);
  }
  return true;
}

std::string RegionSet::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < size(); ++i) {
    if (i > 0) out += ", ";
    out += regal::ToString((*this)[i]);
  }
  out += "}";
  return out;
}

}  // namespace regal
