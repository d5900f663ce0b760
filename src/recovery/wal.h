#ifndef REGAL_RECOVERY_WAL_H_
#define REGAL_RECOVERY_WAL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/instance.h"
#include "core/region_set.h"
#include "obs/metrics.h"
#include "recovery/retry.h"
#include "storage/env.h"
#include "util/status.h"

namespace regal {
namespace recovery {

/// Failpoint sites on the journaling pipeline (safety/failpoint.h): e.g.
/// REGAL_FAILPOINTS="wal.sync=0.01@7" makes one fsync in a hundred fail.
inline constexpr char kFailpointWalAppend[] = "wal.append";
inline constexpr char kFailpointWalSync[] = "wal.sync";
inline constexpr char kFailpointRecoveryReplay[] = "recovery.replay";
inline constexpr char kFailpointCheckpointSwap[] = "checkpoint.swap";

/// The mutations the engine journals. Every kind has *set-to-value*
/// semantics (replace, never increment), so replaying a record that the
/// snapshot already contains converges to the same state — the idempotence
/// the LSN-less REGAL2 snapshot relies on when a crash lands between the
/// snapshot rename and the checkpoint-manifest write.
enum class MutationKind : uint8_t {
  kDefineRegions = 0x01,   ///< AddRegionSet (upserts on replay).
  kReplaceRegions = 0x02,  ///< SetRegionSet.
  kBindText = 0x03,        ///< Replace the text content (index rebuilt).
  kSetPattern = 0x04,      ///< SetSyntheticPattern by cache key.
};

/// One journaled Instance mutation, in memory.
struct Mutation {
  MutationKind kind = MutationKind::kDefineRegions;
  /// Region name (kDefineRegions/kReplaceRegions) or pattern cache key
  /// (kSetPattern); unused for kBindText.
  std::string name;
  RegionSet regions;
  /// Text content for kBindText.
  std::string text;

  static Mutation DefineRegions(std::string name, RegionSet regions);
  static Mutation ReplaceRegions(std::string name, RegionSet regions);
  static Mutation BindText(std::string text);
  static Mutation SetPattern(const Pattern& pattern, RegionSet regions);
};

/// Applies `m` to `instance` with upsert semantics (see MutationKind).
/// kBindText rebuilds the suffix-array word index. The only failure mode is
/// a malformed pattern cache key (InvalidArgument).
Status ApplyMutation(Instance* instance, const Mutation& m);

/// --- WAL file format -----------------------------------------------------
///
/// header:  "REGALW\0" + format version 0x01                       (8 bytes)
/// record:  u32 crc32c(over the next 13+len bytes)                 (4)
///          u32 len       payload length                           (4)
///          u64 lsn       strictly increasing, never reused        (8)
///          u8  kind      MutationKind                             (1)
///          payload[len]  kind-specific: the text payload for kBindText,
///                        a named-region payload (the pattern cache key
///                        as its name for kSetPattern) otherwise — both
///                        defined once in storage/wire.h
///
/// The CRC covers len, lsn, kind and payload, so a torn write, a flipped
/// bit, or a record spliced from another log is rejected as a unit. Records
/// are appended whole (one Append per group commit), and replay stops at
/// the first frame that overruns the file, fails its CRC, or decodes to
/// garbage — everything before that point is trusted, everything after is
/// the torn tail a crash may leave and is truncated away on recovery.

/// Size of the WAL file header.
inline constexpr size_t kWalHeaderSize = 8;

/// The header bytes (exposed for tests and for WAL reset).
std::string WalHeader();

/// Encodes one record frame (header NOT included) — the unit the format
/// known-answer tests pin down.
Result<std::string> EncodeWalRecord(uint64_t lsn, const Mutation& m);

/// Outcome of reading a WAL tail.
struct WalReadResult {
  /// Decoded records in file order (lsn strictly increasing).
  std::vector<std::pair<uint64_t, Mutation>> records;
  /// Highest lsn seen (0 when none).
  uint64_t last_lsn = 0;
  /// Byte offset of the first invalid frame — the truncation point that
  /// makes the file clean again.
  uint64_t valid_bytes = 0;
  /// Bytes past valid_bytes (0 for a clean log).
  uint64_t dropped_tail_bytes = 0;
  /// Why reading stopped, when it stopped early (human-readable).
  std::string tail_error;
};

/// Parses WAL bytes. Never fails on a damaged tail — that is the expected
/// post-crash state, reported via dropped_tail_bytes/tail_error — but does
/// fail (kDataLoss) when the 8-byte header itself is wrong, which no crash
/// of this writer can produce. An empty/absent file reads as zero records.
Result<WalReadResult> ReadWalBytes(std::string_view bytes);

/// How aggressively appended records are made durable.
enum class SyncPolicy {
  kAlways,    ///< fsync every Append/AppendBatch — zero acknowledged loss.
  kInterval,  ///< fsync on a bounded cadence — bounded loss (see options).
  kNever,     ///< fsync only at checkpoints — crash may lose the tail.
};

const char* SyncPolicyName(SyncPolicy policy);

struct WalWriterOptions {
  SyncPolicy sync = SyncPolicy::kAlways;
  /// For SyncPolicy::kInterval: the writer's flusher thread fsyncs on this
  /// time cadence, the classic bounded-loss contract (an fsync every few
  /// milliseconds covers however many records arrived). A time cadence,
  /// unlike a record threshold, amortizes better the faster mutations
  /// arrive — which is exactly when fsync pressure would otherwise price
  /// mutations out. The mutating thread only appends to the in-memory
  /// group-commit buffer and never waits on the device; memory stays
  /// bounded because, once the buffer reaches a backpressure cap, appends
  /// block until the flusher drains it.
  double sync_interval_ms = 5.0;
  /// Transient-I/O retry applied to every append and sync.
  RetryPolicy retry;
};

/// Appends mutation records to a WAL file through an Env. Append / Sync /
/// Close must come from one thread at a time (the engine serializes
/// mutations under its catalog lock); under SyncPolicy::kInterval the
/// writer manages its own flusher thread internally.
///
/// Appends are encoded straight into an in-memory buffer and pushed to the
/// file in one write per sync point (true group commit: under
/// SyncPolicy::kInterval that is one write + one fsync per flusher cadence
/// tick, covering every mutation that arrived since the last one, instead
/// of a write syscall each).
/// Buffered-but-unsynced records sit in exactly the loss window the chosen
/// sync policy already accepts — bytes in the kernel page cache are no more
/// durable against a crash than bytes in this buffer — so the policy's
/// acknowledgment contract is unchanged: on OK under kAlways the record is
/// flushed AND fsynced before Append returns.
class WalWriter {
 public:
  /// Opens `path` for appending (creating it with a header when absent or
  /// empty). `next_lsn` is the lsn the first appended record receives —
  /// recovery passes max(replayed, checkpointed) + 1 so lsns never repeat.
  static Result<std::unique_ptr<WalWriter>> Open(storage::Env* env,
                                                 std::string path,
                                                 uint64_t next_lsn,
                                                 WalWriterOptions options);

  /// Joins the flusher thread. Does NOT fsync — an abandoned writer loses
  /// only what its sync policy already put at risk; call Close() to drain.
  ~WalWriter();

  /// Journals one mutation: appends its frame and applies the sync policy.
  /// On OK with SyncPolicy::kAlways the record is durable ("acknowledged").
  Status Append(const Mutation& m, uint64_t* lsn = nullptr);

  /// Group commit: one frame concatenation, one env Append, at most one
  /// fsync for the whole batch. The per-mutation fsync is what makes
  /// SyncPolicy::kAlways expensive; batching amortizes it N-fold.
  Status AppendBatch(const std::vector<Mutation>& batch,
                     std::vector<uint64_t>* lsns = nullptr);

  /// Writes the append buffer to the file without fsyncing — the durable
  /// boundary stays wherever the last Sync() put it.
  Status Flush();

  /// Flush + fsync (checkpoint prologue, SyncPolicy::kNever close).
  Status Sync();

  Status Close();

  uint64_t next_lsn() const { return next_lsn_; }
  /// Records appended but not yet fsynced (durability debt).
  int64_t unsynced_records() const {
    return unsynced_records_.load(std::memory_order_relaxed);
  }

 private:
  WalWriter(storage::Env* env, std::string path, uint64_t next_lsn,
            WalWriterOptions options);

  Status AppendCore(const Mutation* batch, size_t count,
                    uint64_t* first_lsn);
  /// Applies the sync policy after an append that left `buffered` bytes in
  /// the group-commit buffer (measured under buf_mu_ by the caller).
  Status MaybeSync(size_t buffered);
  /// Moves the buffer into the file (fsyncing too when `sync`). file_mu_
  /// serializes writers — the mutator, the flusher, checkpoint callers —
  /// and taking the buffer under it keeps frames in append (= lsn) order.
  Status WriteOut(bool sync);
  void FlusherLoop();
  void StopFlusher();

  storage::Env* env_;
  const std::string path_;
  uint64_t next_lsn_;  ///< Mutator-thread only.
  WalWriterOptions options_;
  std::string scratch_;  ///< Mutator-only encode scratch, reused per append.

  // Cached handles: metric lookups are a mutex + map probe, too hot for a
  // per-append path.
  obs::Counter* records_counter_;
  obs::Counter* bytes_counter_;
  obs::Counter* syncs_counter_;
  obs::Gauge* size_gauge_;

  /// Serializes file writes. Always acquired before buf_mu_.
  std::mutex file_mu_;
  std::unique_ptr<storage::WritableFile> file_;
  bool file_dirty_ = false;  ///< File bytes written since the last fsync.
  /// WriteOut's swap partner for buffer_: both keep their grown capacity,
  /// so the steady-state handoff never allocates.
  std::string spare_;

  /// Guards buffer_, background_error_, stop_flusher_.
  std::mutex buf_mu_;
  std::string buffer_;  ///< Encoded frames not yet written to the file.
  Status background_error_;  ///< First flusher failure; sticky.
  bool stop_flusher_ = false;
  std::condition_variable flusher_cv_;   ///< Wakes the flusher.
  std::condition_variable drained_cv_;   ///< Wakes backpressured appends.
  std::thread flusher_;
  /// True while the flusher sleeps on flusher_cv_ — appends skip the
  /// notify syscall when it is already busy writing.
  std::atomic<bool> flusher_idle_{false};

  std::atomic<int64_t> unsynced_records_{0};
};

}  // namespace recovery
}  // namespace regal

#endif  // REGAL_RECOVERY_WAL_H_
