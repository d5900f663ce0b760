#ifndef REGAL_STORAGE_COMPRESS_H_
#define REGAL_STORAGE_COMPRESS_H_

#include <string>
#include <string_view>

#include "util/status.h"

namespace regal {
namespace storage {

/// A small dependency-free byte-oriented LZ codec (LZ4-flavored) for the
/// text payload (storage/wire.h). Durable saves pay real disk writeback for every
/// byte fsynced, so shrinking the payload is the main lever on save
/// latency: SGML/dictionary corpus text typically compresses ~3x, and
/// decompression runs at memcpy-like speed next to the word-index rebuild
/// that dominates loading.
///
/// Stream format — a sequence of tokens:
///
///   u8 token:  high nibble = literal count, low nibble = match length - 4
///   [length extension bytes]   when a nibble is 15: add bytes (each 0-255)
///                              until one is < 255
///   literal bytes
///   u16le offset               distance back into the output (1-65535);
///                              omitted after the final literals run
///
/// Matches are at least 4 bytes and may overlap their own output (offset <
/// match length repeats a period, so runs compress well). The stream ends
/// exactly when the declared raw size has been produced.
///
/// LzCompress is deterministic (greedy, fixed hash probe), which the
/// snapshot format relies on for bit-identical re-encoding. LzDecompress
/// validates every read and write bound and fails with kDataLoss rather
/// than over-reading, over-writing or over-allocating: `raw_size` drives
/// the only allocation and callers must bound it first (see
/// kMaxLzExpansion).
std::string LzCompress(std::string_view input);

/// Hard ceiling on LzDecompress output per input byte: one extension byte
/// adds at most 255 bytes of match. A `raw_size` claim above
/// kMaxLzExpansion * stream-size (+ a small constant) cannot be produced by
/// any valid stream — reject it before allocating.
inline constexpr uint64_t kMaxLzExpansion = 255;

Result<std::string> LzDecompress(std::string_view stream, uint64_t raw_size);

}  // namespace storage
}  // namespace regal

#endif  // REGAL_STORAGE_COMPRESS_H_
