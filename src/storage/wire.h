#ifndef REGAL_STORAGE_WIRE_H_
#define REGAL_STORAGE_WIRE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "core/region_set.h"
#include "util/status.h"

namespace regal {
namespace storage {

/// Binary wire primitives shared by the REGAL2 snapshot format
/// (storage/snapshot.cc) and the write-ahead log (recovery/wal.cc). Both
/// formats must stay bit-identical across saves, so this module is the
/// single definition of how integers are framed and of the two payloads
/// both formats carry. All fixed-width integers are little-endian
/// (x86/arm64 linux assumed, as everywhere else in the storage layer).

inline void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

inline void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

inline uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, 4);
  return v;
}

inline uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, 8);
  return v;
}

/// --- Payloads ------------------------------------------------------------
///
/// The paper's instance is a text plus named region sets, and these are the
/// two payloads a REGAL2 section or a WAL record carries. Each has exactly
/// one encoder and one decoder, here; the callers own only the framing and
/// checksums around them.
///
///   named regions:  u32 name_len, name, u64 count, then count x region
///     region:       zigzag-varint(left - previous left, starting from 0),
///                   zigzag-varint(right - left)
///                   Lists are sorted by left, so both deltas are small and
///                   a region typically costs 2 bytes instead of 8 — the
///                   bytes every durable save and every WAL fsync pays for.
///   text:           u8 codec (0 = stored, 1 = LZ, storage/compress.h),
///                   u64 raw_size, then the stored or compressed bytes.
///                   LZ is chosen whenever it is strictly smaller.
///
/// The decoders reject every malformed payload with kDataLoss, and validate
/// declared sizes against the payload before allocating: a count must
/// leave at least two bytes per region, and raw_size may not exceed
/// INT32_MAX (offsets are int32, so no valid catalog has a larger text).
/// Their messages carry no format prefix; callers add their own.

/// Appends the named-region payload for `name` and `regions`.
void EncodeNamedRegions(std::string* out, std::string_view name,
                        const RegionSet& regions);

/// Decodes a whole named-region payload (trailing bytes are an error).
Status DecodeNamedRegions(std::string_view payload, std::string* name,
                          RegionSet* regions);

/// Appends the text payload for `text`.
void EncodeText(std::string* out, std::string_view text);

/// Decodes a whole text payload.
Status DecodeText(std::string_view payload, std::string* text);

}  // namespace storage
}  // namespace regal

#endif  // REGAL_STORAGE_WIRE_H_
