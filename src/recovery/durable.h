#ifndef REGAL_RECOVERY_DURABLE_H_
#define REGAL_RECOVERY_DURABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/instance.h"
#include "recovery/retry.h"
#include "recovery/wal.h"
#include "storage/env.h"
#include "storage/snapshot.h"
#include "util/status.h"

namespace regal {
namespace recovery {

/// Durable catalog directory layout (all paths under one directory so a
/// single SyncDir covers every commit):
///
///   <dir>/snapshot.regal           last checkpointed REGAL2 snapshot
///   <dir>/wal.log                  mutations journaled since then
///   <dir>/CHECKPOINT               manifest: the snapshot's high-water lsn
///   <dir>/*.quarantine.<n>         corrupted files set aside, never deleted
///
/// Manifest format: "REGALCK" + version 0x01 (8 bytes), u64 checkpoint lsn,
/// u32 crc32c over the first 16 bytes — 20 bytes, always written atomically.
///
/// The crash-consistency argument (chaos-tested at every syscall boundary):
/// a mutation is acknowledged only after its WAL record is durable (under
/// SyncPolicy::kAlways), and every mutation kind is set-to-value, so replay
/// is idempotent. Checkpointing goes sync-WAL -> snapshot -> manifest ->
/// WAL reset, each step atomic; whichever step a crash lands on, recovery
/// replays records with lsn > manifest lsn over the snapshot and converges
/// to the pre-crash acknowledged state. A stale manifest only causes extra
/// idempotent replay; a lost WAL reset only replays records the snapshot
/// already contains. Under kInterval/kNever a crash may lose the unsynced
/// tail, and recovery then yields a prefix of the journaled records — never
/// a mix of older and newer values.
struct DurableOptions {
  WalWriterOptions wal;
  /// Journaled records that trigger ShouldCheckpoint() (0 = never
  /// automatically; the engine's background checkpointer consults this).
  int64_t checkpoint_every_records = 4096;
  /// Retry policy for checkpoint/open I/O (the WAL has its own in `wal`).
  RetryPolicy retry;
};

/// What recovery found, surfaced on /statusz ("recovery" section).
struct RecoveryHealth {
  /// True while serving salvaged (possibly incomplete) data; cleared by the
  /// first successful checkpoint, which rewrites a clean snapshot.
  bool degraded = false;
  /// Where the corrupted snapshot/WAL was set aside, empty when none.
  std::vector<std::string> quarantined;
  storage::SalvageReport salvage;
  uint64_t checkpoint_lsn = 0;  ///< Manifest lsn at open.
  uint64_t replayed_records = 0;
  uint64_t skipped_records = 0;  ///< lsn <= checkpoint_lsn (already in snap).
  uint64_t torn_tail_bytes = 0;  ///< WAL bytes truncated at open.
  /// Human-readable damage notes, newest last.
  std::vector<std::string> notes;
};

/// Owns the WAL + snapshot + manifest of one durable catalog. Journaling
/// and checkpointing are not thread-safe; the engine serializes them under
/// its catalog lock.
class DurableStore {
 public:
  /// Opens (or creates) the store in `dir`, recovering `*instance`:
  /// manifest -> snapshot (quarantine + salvage on corruption, never a
  /// refusal unless even salvage finds nothing identifiable) -> WAL replay
  /// past the checkpoint lsn with torn-tail truncation -> writer reopen.
  /// The recovered instance always carries a fresh instance id, so result
  /// caches keyed to a pre-crash catalog cannot serve stale answers.
  static Result<std::unique_ptr<DurableStore>> Open(storage::Env* env,
                                                    std::string dir,
                                                    DurableOptions options,
                                                    Instance* instance);

  /// Journals one mutation (durable per the sync policy on return). The
  /// caller applies it to its instance only after this succeeds —
  /// journal-then-apply is what makes "acknowledged" mean "recoverable".
  Status Journal(const Mutation& m, uint64_t* lsn = nullptr);

  /// Group commit: all-or-nothing append, at most one fsync.
  Status JournalBatch(const std::vector<Mutation>& batch);

  /// Writes a clean snapshot of `instance` (which must reflect every
  /// journaled mutation), advances the manifest and resets the WAL. Clears
  /// degraded health: the corrupted file stays quarantined but the serving
  /// state is clean again.
  Status Checkpoint(const Instance& instance);

  /// True when journaled records since the last checkpoint reach the
  /// configured threshold (or when open left the store degraded). Reads
  /// only atomics, so a background checkpointer may poll it without the
  /// catalog lock that serializes every other method here.
  bool ShouldCheckpoint() const;

  /// Guarded by the caller's serialization (the engine's catalog lock).
  const RecoveryHealth& health() const { return health_; }
  bool degraded() const {
    return degraded_.load(std::memory_order_relaxed);
  }
  uint64_t last_lsn() const { return last_lsn_; }
  uint64_t checkpoint_lsn() const { return checkpoint_lsn_; }
  int64_t records_since_checkpoint() const {
    return records_since_checkpoint_.load(std::memory_order_relaxed);
  }

  const std::string& dir() const { return dir_; }
  std::string SnapshotPath() const;
  std::string WalPath() const;
  std::string ManifestPath() const;

  /// Flushes and closes the WAL writer (further journaling fails).
  Status Close();

  /// Best-effort Close(): a cleanly destructed store must not discard the
  /// buffered WAL tail — only a crash gets to do that, and only within the
  /// sync policy's loss window. Errors are swallowed (there is no caller
  /// to surface them to); use Close() to observe them.
  ~DurableStore();

 private:
  DurableStore(storage::Env* env, std::string dir, DurableOptions options)
      : env_(env), dir_(std::move(dir)), options_(std::move(options)) {}

  /// Moves `path` to the first free `<path>.quarantine.<n>` through the
  /// Env — corrupted bytes are evidence and are never deleted.
  Status Quarantine(const std::string& path, const std::string& why);

  Status ResetWal();

  storage::Env* env_;
  std::string dir_;
  DurableOptions options_;
  std::unique_ptr<WalWriter> writer_;
  RecoveryHealth health_;
  uint64_t checkpoint_lsn_ = 0;
  uint64_t last_lsn_ = 0;
  // Atomic mirrors of health_.degraded / the journal counter: the only
  // fields ShouldCheckpoint() may read from another thread.
  std::atomic<bool> degraded_{false};
  std::atomic<int64_t> records_since_checkpoint_{0};
};

}  // namespace recovery
}  // namespace regal

#endif  // REGAL_RECOVERY_DURABLE_H_
