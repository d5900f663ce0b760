#ifndef REGAL_CORE_REGION_SET_H_
#define REGAL_CORE_REGION_SET_H_

#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "core/region.h"
#include "util/status.h"

namespace regal {

/// A set of regions, stored sorted in document order with no duplicates.
/// This is the value type flowing through the algebra: operands and results
/// of every operator.
///
/// A RegionSet is an immutable handle to one shared payload, allocated at
/// its exact size (capacity() == size()), and null when the set is empty.
/// Copying a set bumps a reference count and never copies regions, so the
/// evaluator's memo, the result cache, a query answer and a cloned instance
/// can all hold the same payload; each copy keeps it alive. Handles to one
/// payload may be copied and dropped on different threads at once (the
/// count is atomic); one handle object, like any value, must not be written
/// while another thread reads it.
class RegionSet {
 public:
  RegionSet() = default;

  /// Builds a set from arbitrary input: sorts and deduplicates.
  static RegionSet FromUnsorted(std::vector<Region> regions);

  /// Wraps a vector the caller guarantees to be document-ordered and
  /// duplicate-free (checked in debug builds by Validate in callers/tests).
  /// A vector with spare capacity is copied to its exact size, so hot
  /// kernels build their output at its exact size instead.
  static RegionSet FromSortedUnique(std::vector<Region> regions);

  RegionSet(std::initializer_list<Region> regions);

  const std::vector<Region>& regions() const {
    return payload_ != nullptr ? *payload_ : kNoRegions;
  }
  size_t size() const { return payload_ != nullptr ? payload_->size() : 0; }
  bool empty() const { return payload_ == nullptr; }

  auto begin() const { return regions().begin(); }
  auto end() const { return regions().end(); }
  const Region& operator[](size_t i) const { return (*payload_)[i]; }

  /// Membership test, O(log n).
  bool Member(const Region& r) const;

  bool operator==(const RegionSet& other) const {
    return payload_ == other.payload_ || regions() == other.regions();
  }

  /// True iff the document order + uniqueness invariant holds.
  bool IsValid() const;

  /// True iff no two member regions partially overlap and no two are equal
  /// (every pair is disjoint or strictly nested) — the hierarchy property.
  bool IsLaminar() const;

  /// "{[l,r], ...}" for diagnostics.
  std::string ToString() const;

 private:
  /// Adopts `regions` (sorted, unique) as the payload at its exact size.
  explicit RegionSet(std::vector<Region> regions);

  static const std::vector<Region> kNoRegions;

  std::shared_ptr<const std::vector<Region>> payload_;
};

}  // namespace regal

#endif  // REGAL_CORE_REGION_SET_H_
