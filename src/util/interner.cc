#include "util/interner.h"

namespace regal {

int32_t Interner::Insert(std::string_view key, uint32_t tag, size_t at) {
  const int32_t id = size();
  bytes_.append(key);
  starts_.push_back(static_cast<int32_t>(bytes_.size()));
  slots_[at] = Slot{tag, id};
  if (2 * starts_.size() > slots_.size()) {
    std::vector<Slot> grown(2 * slots_.size());
    const size_t mask = grown.size() - 1;
    for (const Slot& slot : slots_) {
      if (slot.id < 0) continue;
      size_t i = Hash(this->key(slot.id)) & mask;
      while (grown[i].id >= 0) i = (i + 1) & mask;
      grown[i] = slot;
    }
    slots_.swap(grown);
  }
  return id;
}

}  // namespace regal
