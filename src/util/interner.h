#ifndef REGAL_UTIL_INTERNER_H_
#define REGAL_UTIL_INTERNER_H_

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace regal {

/// Dense ids for distinct byte strings, numbered 0, 1, ... in order of first
/// appearance: an open-addressing table of ids over one buffer holding each
/// distinct string once. Both stay small and cache-resident when few
/// distinct strings repeat often, as the words of a text and the tag names
/// of a document do, so interning a repeat reads no memory outside them.
class Interner {
 public:
  Interner() : slots_(kInitialSlots), starts_{0} {}

  /// The id of `key`; a string not seen before gets the next id.
  int32_t Intern(std::string_view key) {
    const uint64_t hash = Hash(key);
    const auto tag = static_cast<uint32_t>(hash >> 32);
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot slot = slots_[i];
      if (slot.id < 0) return Insert(key, tag, i);
      if (slot.tag == tag && this->key(slot.id) == key) return slot.id;
    }
  }

  /// Number of distinct strings interned.
  int32_t size() const { return static_cast<int32_t>(starts_.size()) - 1; }

  /// The string with id `id`, for 0 <= id < size().
  std::string_view key(int32_t id) const {
    const auto at = static_cast<size_t>(id);
    return std::string_view(bytes_).substr(
        static_cast<size_t>(starts_[at]),
        static_cast<size_t>(starts_[at + 1] - starts_[at]));
  }

 private:
  struct Slot {
    uint32_t tag = 0;  // The high half of the key's hash.
    int32_t id = -1;   // Negative: the slot is empty.
  };

  static constexpr size_t kInitialSlots = 16;

  // Rotating by 7 and xoring packs up to nine bytes below 0x80 (every word
  // byte) without loss; the finalizer of MurmurHash3 then spreads them over
  // all 64 bits, so both the slot (low bits) and the tag (high bits) vary.
  static uint64_t Hash(std::string_view key) {
    uint64_t h = key.size();
    for (char c : key) h = std::rotl(h, 7) ^ static_cast<unsigned char>(c);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    return h ^ (h >> 33);
  }

  // Gives `key` the next id in the empty slot `at`, then doubles the table
  // once it is half full.
  int32_t Insert(std::string_view key, uint32_t tag, size_t at);

  std::vector<Slot> slots_;  // A power of two of them, at most half full.
  std::string bytes_;        // The distinct strings, concatenated.
  // String id is bytes_[starts_[id], starts_[id + 1]).
  std::vector<int32_t> starts_;
};

}  // namespace regal

#endif  // REGAL_UTIL_INTERNER_H_
