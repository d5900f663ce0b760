#ifndef REGAL_STORAGE_SNAPSHOT_H_
#define REGAL_STORAGE_SNAPSHOT_H_

#include <string>
#include <string_view>
#include <vector>

#include "core/instance.h"
#include "storage/env.h"
#include "util/status.h"

namespace regal {
namespace storage {

/// REGAL2: the durable binary snapshot format. Every byte up to and
/// including the footer is covered by a checksum, so a torn write, flipped
/// bit, dropped/duplicated/reordered section or truncated tail is *detected*
/// (reported as kDataLoss) rather than silently loaded. Layout (all
/// integers little-endian):
///
///   [0, 8)   magic "REGAL2\0" + format version 0x01
///   sections, each framed as
///     u8   tag          0x01 text | 0x02 regions | 0x03 pattern | 0x7F footer
///     u64  payload_len
///     payload
///     u32  crc32c(tag || payload_len || payload)
///   payloads (text and named regions are defined in storage/wire.h):
///     text:    the text payload
///     regions: a named-region payload
///     pattern: a named-region payload named by the pattern cache key
///     footer:  u64 body_section_count,
///              u32 crc32c of every byte before the footer's tag
///   nothing may follow the footer's trailing CRC.
///
/// The footer is the commit marker: a file without a valid footer is a
/// truncated write, never a shorter-but-plausible snapshot. The whole-file
/// CRC in the footer catches splices of individually-valid sections
/// (duplication, reordering, cross-file grafts) that per-section CRCs alone
/// would admit. Sections appear in a canonical order (text, regions in
/// definition order, patterns in key order, footer), so encoding is
/// deterministic and save -> load -> save is bit-identical.
///
/// Failure taxonomy of the reader — all kDataLoss, distinguished in the
/// message (and the regal_storage_checksum_failures_total{kind} metric):
///   * "truncated snapshot ..."       the tail is missing (header cut
///                                    short, a section overruns EOF, or no
///                                    footer) — the signature of a torn
///                                    write or lost unsynced tail;
///   * "checksum mismatch ..."        a section or the file CRC failed —
///                                    mid-file corruption;
///   * "corrupt snapshot ..."         framing is structurally wrong (bad
///                                    magic, unknown tag, bytes after
///                                    footer) or a payload fails its
///                                    storage/wire.h decoder.
/// Declared lengths are validated against the actual buffer before any
/// allocation, so corrupt counts cannot OOM the loader.

/// Encodes `instance` as REGAL2 bytes. Fails (InvalidArgument) only for
/// un-encodable inputs (name/text larger than 4 GiB guards).
Result<std::string> EncodeSnapshot(const Instance& instance);

/// Decodes REGAL2 bytes; text-backed instances rebuild their word index.
Result<Instance> DecodeSnapshot(std::string_view bytes);

/// What SalvageSnapshot managed to pull out of a damaged REGAL2 file.
struct SalvageReport {
  int sections_kept = 0;     ///< Body sections whose CRC and payload parsed.
  int sections_dropped = 0;  ///< Sections skipped over damage.
  uint64_t tail_bytes_dropped = 0;  ///< Bytes abandoned at the first
                                    ///< unrecoverable framing break.
  bool footer_ok = false;  ///< A structurally valid footer was reached.
  /// One human-readable note per piece of damage, for /statusz and logs.
  std::vector<std::string> damage;
};

/// Best-effort reader for a *damaged* REGAL2 snapshot: where DecodeSnapshot
/// refuses the whole file on the first bad byte, this walks the section
/// framing, keeps every section whose own CRC and payload still verify, and
/// skips (or abandons, when the framing itself is broken) the rest. Each
/// kept section is individually checksummed, so salvage never admits
/// silently corrupted data — it only tolerates *missing* data. Fails only
/// when the REGAL2 magic itself is gone (nothing identifies the bytes as a
/// snapshot). The degraded-open path (recovery/durable.h) quarantines the
/// damaged file and serves the salvaged instance until the next checkpoint
/// rewrites a clean one.
Result<Instance> SalvageSnapshot(std::string_view bytes,
                                 SalvageReport* report);

/// True when `bytes` begin with the REGAL2 magic (format sniffing).
bool LooksLikeRegal2(std::string_view bytes);

/// Encodes `instance` as REGAL2 and atomically writes it to `path` via
/// `env` (Env::Default() when null) using the temp+fsync+rename protocol
/// of AtomicWriteFile: a crash at any point leaves the previous committed
/// snapshot (or no file) — never a partial one.
Status SaveSnapshotToFile(const Instance& instance, const std::string& path,
                          Env* env = nullptr);

/// Reads `path` via `env` and decodes it, sniffing REGAL2 vs legacy REGAL1
/// (read-only, storage/serialize.h) by magic. Corruption in a REGAL2 file reports kDataLoss; a REGAL1 file
/// keeps its legacy InvalidArgument reporting (it has no checksums to
/// distinguish corruption from malformed input).
Result<Instance> LoadSnapshotFromFile(const std::string& path,
                                      Env* env = nullptr);

}  // namespace storage
}  // namespace regal

#endif  // REGAL_STORAGE_SNAPSHOT_H_
