#ifndef REGAL_CORE_REGION_H_
#define REGAL_CORE_REGION_H_

#include <ostream>
#include <string>

#include "text/text.h"

namespace regal {

/// A text region: a substring of the indexed text identified by the
/// *inclusive* offsets of its first and last byte (Section 2.1 of the
/// paper). Invariant: left <= right (empty regions are not representable,
/// matching the paper where a region is a non-empty substring).
struct Region {
  Offset left = 0;
  Offset right = 0;

  bool operator==(const Region& other) const {
    return left == other.left && right == other.right;
  }
  bool operator!=(const Region& other) const { return !(*this == other); }
};

/// Canonical "document order": by left endpoint ascending, ties broken by
/// right endpoint *descending*, so that in a hierarchical instance every
/// region precedes all regions it strictly includes. All RegionSets are
/// sorted by this order.
struct RegionDocumentOrder {
  bool operator()(const Region& a, const Region& b) const {
    if (a.left != b.left) return a.left < b.left;
    return a.right > b.right;
  }
};

/// r strictly includes s (the paper's `r ⊃ s`):
///   (left(r) < left(s) and right(r) >= right(s)) or
///   (left(r) <= left(s) and right(r) > right(s)).
/// Equivalently: r contains s and r != s.
inline bool StrictlyIncludes(const Region& r, const Region& s) {
  return r.left <= s.left && r.right >= s.right && r != s;
}

/// r contains s allowing equality (not a paper operator; used internally).
inline bool Contains(const Region& r, const Region& s) {
  return r.left <= s.left && r.right >= s.right;
}

/// r precedes s (the paper's `r < s`): right(r) < left(s).
inline bool Precedes(const Region& r, const Region& s) {
  return r.right < s.left;
}

/// r and s overlap without one containing the other. Hierarchical instances
/// never contain such a pair (Section 2.1's nesting assumption).
inline bool PartiallyOverlaps(const Region& r, const Region& s) {
  return !Contains(r, s) && !Contains(s, r) && !Precedes(r, s) &&
         !Precedes(s, r);
}

inline std::ostream& operator<<(std::ostream& os, const Region& r) {
  return os << "[" << r.left << "," << r.right << "]";
}

inline std::string ToString(const Region& r) {
  // Appended into one string: GCC 12 warns (-Wrestrict) on a chain of
  // operator+ inlined at -O3.
  std::string out = "[";
  out += std::to_string(r.left);
  out += ',';
  out += std::to_string(r.right);
  out += ']';
  return out;
}

}  // namespace regal

#endif  // REGAL_CORE_REGION_H_
