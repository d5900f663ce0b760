#include "storage/wire.h"

#include <utility>
#include <vector>

#include "storage/compress.h"

namespace regal {
namespace storage {

namespace {

// Zigzag maps small-magnitude signed deltas to small unsigned varints
// (0,-1,1,-2 -> 0,1,2,3).
uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

// Writes `v` as a varint at `p`, returning one past the last byte. Region
// lists encode into a pre-sized buffer this way because per-byte push_back
// capacity checks were a measured share of encode cost.
char* PutVarint(char* p, uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<char>(v | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
  return p;
}

bool GetVarint(const char** p, const char* end, uint64_t* v) {
  uint64_t result = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (*p == end) return false;
    const uint8_t byte = static_cast<uint8_t>(*(*p)++);
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return true;
    }
  }
  return false;  // More than 10 continuation bytes: not a valid varint.
}

}  // namespace

void EncodeNamedRegions(std::string* out, std::string_view name,
                        const RegionSet& regions) {
  PutU32(out, static_cast<uint32_t>(name.size()));
  out->append(name);
  PutU64(out, regions.size());
  // Resize to the worst case (two 5-byte varints per 32-bit region), emit
  // with a bumped pointer, then trim.
  const size_t base = out->size();
  out->resize(base + 10 * regions.size());
  char* p = out->data() + base;
  int64_t prev_left = 0;
  for (const Region& r : regions.regions()) {
    p = PutVarint(p, ZigZag(r.left - prev_left));
    p = PutVarint(p, ZigZag(r.right - static_cast<int64_t>(r.left)));
    prev_left = r.left;
  }
  out->resize(static_cast<size_t>(p - out->data()));
}

Status DecodeNamedRegions(std::string_view payload, std::string* name,
                          RegionSet* regions) {
  if (payload.size() < 4) {
    return Status::DataLoss("region payload shorter than its name length");
  }
  const uint64_t name_len = GetU32(payload.data());
  if (payload.size() - 4 < name_len + 8) {
    return Status::DataLoss("region name overruns its payload");
  }
  name->assign(payload.data() + 4, name_len);
  const char* p = payload.data() + 4 + name_len;
  const char* end = payload.data() + payload.size();
  const uint64_t count = GetU64(p);
  p += 8;
  // Two varints of at least one byte each per region, checked before the
  // reserve so a corrupt count cannot drive the allocation.
  if (count > static_cast<uint64_t>(end - p) / 2) {
    return Status::DataLoss("region count exceeds its payload");
  }
  std::vector<Region> out;
  out.reserve(count);
  int64_t prev_left = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t left_delta = 0;
    uint64_t width = 0;
    if (!GetVarint(&p, end, &left_delta) || !GetVarint(&p, end, &width)) {
      return Status::DataLoss("truncated region varints");
    }
    // Any in-range delta zigzags below 2^34; refusing larger ones first
    // keeps the sums below from overflowing.
    if ((left_delta | width) >> 34 != 0) {
      return Status::DataLoss("region offset out of range");
    }
    const int64_t left = prev_left + UnZigZag(left_delta);
    const int64_t right = left + UnZigZag(width);
    if (left < INT32_MIN || left > INT32_MAX || right < INT32_MIN ||
        right > INT32_MAX) {
      return Status::DataLoss("region offset out of range");
    }
    if (left > right) {
      return Status::DataLoss("region with left > right");
    }
    out.push_back(Region{static_cast<Offset>(left),
                         static_cast<Offset>(right)});
    prev_left = left;
  }
  if (p != end) {
    return Status::DataLoss("trailing bytes after region list");
  }
  *regions = RegionSet::FromUnsorted(std::move(out));
  return Status::OK();
}

void EncodeText(std::string* out, std::string_view text) {
  const std::string compressed = LzCompress(text);
  const bool lz = compressed.size() < text.size();
  out->push_back(lz ? '\x01' : '\x00');
  PutU64(out, text.size());
  out->append(lz ? std::string_view(compressed) : text);
}

Status DecodeText(std::string_view payload, std::string* text) {
  if (payload.size() < 9) {
    return Status::DataLoss("text payload shorter than its header");
  }
  const uint8_t codec = static_cast<uint8_t>(payload[0]);
  const uint64_t raw_size = GetU64(payload.data() + 1);
  // The cap also bounds the decompression allocation for crafted input.
  if (raw_size > INT32_MAX) {
    return Status::DataLoss("text size out of range");
  }
  const std::string_view body = payload.substr(9);
  if (codec == 0) {
    if (body.size() != raw_size) {
      return Status::DataLoss("stored text size disagrees with its payload");
    }
    text->assign(body);
    return Status::OK();
  }
  if (codec == 1) {
    REGAL_ASSIGN_OR_RETURN(*text, LzDecompress(body, raw_size));
    return Status::OK();
  }
  return Status::DataLoss("unknown text codec " + std::to_string(codec));
}

}  // namespace storage
}  // namespace regal
