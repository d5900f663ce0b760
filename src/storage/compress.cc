#include "storage/compress.h"

#include <cstdint>
#include <cstring>
#include <vector>

namespace regal {
namespace storage {

namespace {

constexpr size_t kMinMatch = 4;
constexpr size_t kMaxOffset = 65535;
constexpr int kHashBits = 13;

uint32_t Load32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

uint32_t Hash(uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashBits);
}

// Emits a nibble-extension length: `value` is what remains after the 15
// stored in the nibble.
void PutLength(std::string* out, size_t value) {
  while (value >= 255) {
    out->push_back(static_cast<char>(0xFF));
    value -= 255;
  }
  out->push_back(static_cast<char>(value));
}

void EmitToken(std::string* out, const char* literals, size_t literal_len,
               size_t match_len_minus4_or_0, bool has_match) {
  const size_t lit_nibble = literal_len < 15 ? literal_len : 15;
  const size_t match_nibble =
      !has_match ? 0
                 : (match_len_minus4_or_0 < 15 ? match_len_minus4_or_0 : 15);
  out->push_back(static_cast<char>((lit_nibble << 4) | match_nibble));
  if (lit_nibble == 15) PutLength(out, literal_len - 15);
  out->append(literals, literal_len);
}

}  // namespace

std::string LzCompress(std::string_view input) {
  std::string out;
  const size_t n = input.size();
  if (n == 0) return out;
  out.reserve(n / 2 + 16);

  std::vector<uint32_t> table(size_t{1} << kHashBits, 0);
  // Position 0 is also the table's "empty" marker; harmless, since a
  // candidate at 0 is simply verified like any other.
  const char* base = input.data();
  size_t anchor = 0;  // First literal not yet emitted.
  size_t i = 0;
  while (n >= kMinMatch && i + kMinMatch <= n) {
    const uint32_t sequence = Load32(base + i);
    const uint32_t h = Hash(sequence);
    const size_t candidate = table[h];
    table[h] = static_cast<uint32_t>(i);
    if (candidate < i && i - candidate <= kMaxOffset &&
        Load32(base + candidate) == sequence) {
      // Extend the match as far as the input allows.
      size_t len = kMinMatch;
      while (i + len < n && base[candidate + len] == base[i + len]) ++len;
      EmitToken(&out, base + anchor, i - anchor, len - kMinMatch, true);
      const size_t offset = i - candidate;
      out.push_back(static_cast<char>(offset & 0xFF));
      out.push_back(static_cast<char>(offset >> 8));
      if (len - kMinMatch >= 15) PutLength(&out, len - kMinMatch - 15);
      i += len;
      anchor = i;
    } else {
      ++i;
    }
  }
  // Final literals run (no match follows).
  EmitToken(&out, base + anchor, n - anchor, 0, false);
  return out;
}

Result<std::string> LzDecompress(std::string_view stream, uint64_t raw_size) {
  // The expansion bound makes the allocation below proportional to the
  // *input* size, so a crafted header cannot turn a small file into a
  // multi-gigabyte reserve (the text decoder in storage/wire.h also caps
  // raw_size at the text-offset limit).
  if (raw_size > kMaxLzExpansion * stream.size() + 16) {
    return Status::DataLoss(
        "lz stream: compressed text claims impossible expansion");
  }
  std::string out;
  out.reserve(raw_size);
  const char* p = stream.data();
  const char* end = p + stream.size();

  auto read_length = [&](size_t nibble, size_t* value) {
    *value = nibble;
    if (nibble < 15) return true;
    for (;;) {
      if (p == end) return false;
      const uint8_t byte = static_cast<uint8_t>(*p++);
      *value += byte;
      if (byte < 255) return true;
    }
  };

  while (p != end) {
    const uint8_t token = static_cast<uint8_t>(*p++);
    size_t literal_len = 0;
    if (!read_length(token >> 4, &literal_len)) {
      return Status::DataLoss("lz stream: truncated literal length");
    }
    if (static_cast<size_t>(end - p) < literal_len) {
      return Status::DataLoss("lz stream: literals overrun stream");
    }
    if (out.size() + literal_len > raw_size) {
      return Status::DataLoss("lz stream: decompressed text too long");
    }
    out.append(p, literal_len);
    p += literal_len;
    if (p == end) break;  // Final literals run carries no match.

    if (end - p < 2) {
      return Status::DataLoss("lz stream: truncated match offset");
    }
    const size_t offset = static_cast<uint8_t>(p[0]) |
                          (static_cast<size_t>(static_cast<uint8_t>(p[1]))
                           << 8);
    p += 2;
    if (offset == 0 || offset > out.size()) {
      return Status::DataLoss("lz stream: match offset out of range");
    }
    size_t match_len = 0;
    if (!read_length(token & 0xF, &match_len)) {
      return Status::DataLoss("lz stream: truncated match length");
    }
    match_len += kMinMatch;
    if (out.size() + match_len > raw_size) {
      return Status::DataLoss("lz stream: decompressed text too long");
    }
    // Byte-at-a-time: matches may overlap their own output (offset <
    // match_len repeats a period).
    size_t src = out.size() - offset;
    for (size_t i = 0; i < match_len; ++i) out.push_back(out[src + i]);
  }
  if (out.size() != raw_size) {
    return Status::DataLoss(
        "lz stream: decompressed text shorter than declared");
  }
  return out;
}

}  // namespace storage
}  // namespace regal
