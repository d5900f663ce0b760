#include "core/construct.h"

#include <algorithm>
#include <cstdint>

namespace regal {

RegionSet SpanJoin(const RegionSet& starts, const RegionSet& ends) {
  // For each start a: the end b minimizing left(b) subject to
  // left(b) > right(a); since ends are document-ordered, binary search on
  // left endpoints finds it. Ties on left(b) (nested ends sharing a left
  // endpoint) resolve to the *shortest* such end — PAT's "nearest match".
  std::vector<Offset> end_lefts;
  end_lefts.reserve(ends.size());
  for (const Region& b : ends) end_lefts.push_back(b.left);
  std::vector<Region> out;
  for (const Region& a : starts) {
    auto it = std::upper_bound(end_lefts.begin(), end_lefts.end(), a.right);
    if (it == end_lefts.end()) continue;
    size_t index = static_cast<size_t>(it - end_lefts.begin());
    // Among ends sharing this left endpoint, document order lists the
    // longest first; advance to the last (shortest) one.
    size_t best = index;
    while (best + 1 < ends.size() && ends[best + 1].left == ends[best].left) {
      ++best;
    }
    out.push_back(Region{a.left, ends[best].right});
  }
  return RegionSet::FromUnsorted(std::move(out));
}

RegionSet Windows(const std::vector<Token>& tokens, Offset before,
                  Offset after, Offset text_size) {
  std::vector<Region> out;
  out.reserve(tokens.size());
  for (const Token& t : tokens) {
    // Clipped in 64 bits: t.right + after can exceed the Offset range.
    const auto left =
        static_cast<Offset>(std::max<int64_t>(0, int64_t{t.left} - before));
    const auto right = static_cast<Offset>(
        std::min<int64_t>(text_size - 1, int64_t{t.right} + after));
    if (left <= right) out.push_back(Region{left, right});
  }
  return RegionSet::FromUnsorted(std::move(out));
}

}  // namespace regal
