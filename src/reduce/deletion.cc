#include "reduce/deletion.h"

#include "core/algebra.h"

namespace regal {

Instance DeleteRegions(const Instance& instance, const RegionSet& to_delete) {
  Instance out = instance.Clone();
  for (const std::string& name : instance.names()) {
    const RegionSet& set = **instance.Get(name);
    out.SetRegionSet(name, Difference(set, to_delete));
  }
  // Restrict synthetic pattern tables (if any) by re-adding only surviving
  // regions. Text-backed W is positional and unaffected by deletion.
  // Clone() carried the tables over; intersect them with the survivors.
  // (Handled implicitly: Instance::Select intersects with the operand set,
  // and W() on a deleted region is never asked by the evaluator since
  // deleted regions are in no name set.)
  return out;
}

bool IsSDeletedVersion(const Instance& original, const Instance& deleted,
                       const RegionSet& s) {
  // Same name universe.
  if (original.names().size() != deleted.names().size()) return false;
  for (const std::string& name : original.names()) {
    if (!deleted.Has(name)) return false;
    const RegionSet& before = **original.Get(name);
    const RegionSet& after = **deleted.Get(name);
    // after ⊆ before.
    if (!Difference(after, before).empty()) return false;
  }
  // Every region of S survives under its original name.
  for (const Region& r : s) {
    int idx = original.TreeFind(r);
    if (idx < 0) return false;
    const std::string& name = original.names()[static_cast<size_t>(
        original.Tree().name_ids[static_cast<size_t>(idx)])];
    if (!(*deleted.Get(name))->Member(r)) return false;
  }
  return true;
}

}  // namespace regal
