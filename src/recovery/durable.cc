#include "recovery/durable.h"

#include <utility>

#include "obs/metrics.h"
#include "safety/failpoint.h"
#include "storage/checksum.h"
#include "storage/wire.h"
#include "util/timer.h"

namespace regal {
namespace recovery {

namespace {

// "REGALCK" + manifest format version 1.
constexpr char kManifestMagic[8] = {'R', 'E', 'G', 'A', 'L', 'C', 'K', '\x01'};
constexpr size_t kManifestSize = 8 + 8 + 4;  // magic + lsn + crc.

std::string EncodeManifest(uint64_t checkpoint_lsn) {
  std::string out(kManifestMagic, 8);
  storage::PutU64(&out, checkpoint_lsn);
  storage::PutU32(&out, storage::Crc32c(out));
  return out;
}

Result<uint64_t> DecodeManifest(std::string_view bytes) {
  if (bytes.size() != kManifestSize ||
      bytes.substr(0, 8) != std::string_view(kManifestMagic, 8)) {
    return Status::DataLoss("manifest: bad size or magic");
  }
  if (storage::Crc32c(bytes.substr(0, 16)) !=
      storage::GetU32(bytes.data() + 16)) {
    return Status::DataLoss("manifest: checksum mismatch");
  }
  return storage::GetU64(bytes.data() + 8);
}

obs::Counter* OpensCounter(const char* outcome) {
  return obs::Registry::Default().GetCounter("regal_recovery_opens_total",
                                             {{"outcome", outcome}});
}

}  // namespace

std::string DurableStore::SnapshotPath() const {
  return dir_ + "/snapshot.regal";
}
std::string DurableStore::WalPath() const { return dir_ + "/wal.log"; }
std::string DurableStore::ManifestPath() const { return dir_ + "/CHECKPOINT"; }

Result<std::unique_ptr<DurableStore>> DurableStore::Open(
    storage::Env* env, std::string dir, DurableOptions options,
    Instance* instance) {
  if (env == nullptr) env = storage::Env::Default();
  if (instance == nullptr) {
    return Status::InvalidArgument("durable open: null instance out-param");
  }
  obs::Registry& registry = obs::Registry::Default();
  Timer open_timer;
  std::unique_ptr<DurableStore> store(
      new DurableStore(env, std::move(dir), std::move(options)));
  RecoveryHealth& health = store->health_;

  // "Opens (or creates)": a first open on a fresh machine should not make
  // the caller pre-create the directory. Existing stores skip the mkdir,
  // so fault-injection op counts are untouched.
  if (!env->FileExists(store->dir_)) {
    REGAL_RETURN_NOT_OK(env->CreateDirs(store->dir_));
  }

  // 1. Manifest. A corrupt manifest degrades to lsn 0: replay is
  // idempotent, so re-applying records the snapshot already contains is
  // merely wasted work, never wrong answers.
  if (env->FileExists(store->ManifestPath())) {
    Result<std::string> bytes = env->ReadFileToString(store->ManifestPath());
    Result<uint64_t> lsn =
        bytes.ok() ? DecodeManifest(*bytes) : bytes.status();
    if (lsn.ok()) {
      store->checkpoint_lsn_ = *lsn;
    } else {
      REGAL_RETURN_NOT_OK(store->Quarantine(store->ManifestPath(),
                                            lsn.status().message()));
      health.degraded = true;
    }
  }
  health.checkpoint_lsn = store->checkpoint_lsn_;

  // 2. Snapshot: decode, or quarantine + salvage what the per-section
  // checksums still vouch for.
  Instance recovered;
  if (env->FileExists(store->SnapshotPath())) {
    REGAL_ASSIGN_OR_RETURN(std::string bytes,
                           env->ReadFileToString(store->SnapshotPath()));
    Result<Instance> loaded = storage::LooksLikeRegal2(bytes)
                                  ? storage::DecodeSnapshot(bytes)
                                  : Status::DataLoss(
                                        "snapshot: not a REGAL2 file");
    if (loaded.ok()) {
      recovered = std::move(loaded).value();
    } else {
      REGAL_RETURN_NOT_OK(store->Quarantine(store->SnapshotPath(),
                                            loaded.status().message()));
      health.degraded = true;
      Result<Instance> salvaged =
          storage::SalvageSnapshot(bytes, &health.salvage);
      if (salvaged.ok()) {
        recovered = std::move(salvaged).value();
        health.notes.push_back(
            "snapshot salvaged: kept " +
            std::to_string(health.salvage.sections_kept) + ", dropped " +
            std::to_string(health.salvage.sections_dropped) + " sections");
      } else {
        // Not even the magic survived: start empty and let the WAL replay
        // rebuild whatever it covers.
        health.notes.push_back("snapshot unsalvageable: " +
                               salvaged.status().message());
      }
    }
  }

  // 3. WAL replay past the checkpoint, truncating the torn tail so the
  // reopened writer appends onto trusted bytes only.
  uint64_t wal_last_lsn = 0;
  if (env->FileExists(store->WalPath())) {
    REGAL_ASSIGN_OR_RETURN(std::string bytes,
                           env->ReadFileToString(store->WalPath()));
    Result<WalReadResult> read = ReadWalBytes(bytes);
    if (!read.ok()) {
      // Header damage — no crash of ours writes that; set the file aside
      // and start a fresh log.
      REGAL_RETURN_NOT_OK(
          store->Quarantine(store->WalPath(), read.status().message()));
      health.degraded = true;
    } else {
      for (const auto& [lsn, mutation] : read->records) {
        if (lsn <= store->checkpoint_lsn_) {
          ++health.skipped_records;
          continue;
        }
        REGAL_RETURN_NOT_OK(safety::CheckFailpoint(kFailpointRecoveryReplay));
        REGAL_RETURN_NOT_OK(ApplyMutation(&recovered, mutation));
        ++health.replayed_records;
      }
      wal_last_lsn = read->last_lsn;
      if (read->dropped_tail_bytes > 0) {
        health.torn_tail_bytes = read->dropped_tail_bytes;
        health.notes.push_back(
            "wal: dropped " + std::to_string(read->dropped_tail_bytes) +
            " torn tail bytes (" + read->tail_error + ")");
        REGAL_RETURN_NOT_OK(RetryWithBackoff(
            store->options_.retry, /*context=*/nullptr, "wal-truncate", [&] {
              return env->TruncateFile(store->WalPath(), read->valid_bytes);
            }));
        registry.GetCounter("regal_recovery_torn_bytes_total")
            ->Increment(static_cast<int64_t>(read->dropped_tail_bytes));
      }
    }
  }
  registry.GetCounter("regal_recovery_replayed_records_total")
      ->Increment(static_cast<int64_t>(health.replayed_records));

  store->last_lsn_ = std::max(store->checkpoint_lsn_, wal_last_lsn);
  // Replayed records are not yet in any snapshot; make the next checkpoint
  // fold them in (and ShouldCheckpoint() heal a degraded open promptly).
  store->records_since_checkpoint_.store(
      static_cast<int64_t>(health.replayed_records),
      std::memory_order_relaxed);
  store->degraded_.store(health.degraded, std::memory_order_relaxed);

  REGAL_ASSIGN_OR_RETURN(
      store->writer_,
      WalWriter::Open(env, store->WalPath(), store->last_lsn_ + 1,
                      store->options_.wal));

  *instance = std::move(recovered);
  OpensCounter(health.degraded ? "degraded" : "clean")->Increment();
  registry
      .GetHistogram("regal_recovery_open_latency_ms")
      ->Observe(open_timer.Millis());
  return store;
}

Status DurableStore::Quarantine(const std::string& path,
                                const std::string& why) {
  std::string target;
  for (int n = 0;; ++n) {
    target = path + ".quarantine." + std::to_string(n);
    if (!env_->FileExists(target)) break;
  }
  REGAL_RETURN_NOT_OK(
      RetryWithBackoff(options_.retry, /*context=*/nullptr, "quarantine",
                       [&] { return env_->RenameFile(path, target); }));
  // Make the rename itself durable: a crash must not resurrect the
  // corrupted file under its live name.
  REGAL_RETURN_NOT_OK(env_->SyncDir(storage::ParentDir(path)));
  health_.quarantined.push_back(target);
  health_.notes.push_back("quarantined " + path + " -> " + target + ": " +
                          why);
  obs::Registry::Default()
      .GetCounter("regal_recovery_quarantines_total")
      ->Increment();
  return Status::OK();
}

Status DurableStore::Journal(const Mutation& m, uint64_t* lsn) {
  if (writer_ == nullptr) {
    return Status::FailedPrecondition("durable store is closed");
  }
  REGAL_RETURN_NOT_OK(writer_->Append(m, lsn));
  last_lsn_ = writer_->next_lsn() - 1;
  records_since_checkpoint_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status DurableStore::JournalBatch(const std::vector<Mutation>& batch) {
  if (writer_ == nullptr) {
    return Status::FailedPrecondition("durable store is closed");
  }
  REGAL_RETURN_NOT_OK(writer_->AppendBatch(batch));
  last_lsn_ = writer_->next_lsn() - 1;
  records_since_checkpoint_.fetch_add(static_cast<int64_t>(batch.size()),
                                      std::memory_order_relaxed);
  return Status::OK();
}

bool DurableStore::ShouldCheckpoint() const {
  if (degraded_.load(std::memory_order_relaxed)) return true;
  return options_.checkpoint_every_records > 0 &&
         records_since_checkpoint_.load(std::memory_order_relaxed) >=
             options_.checkpoint_every_records;
}

Status DurableStore::Checkpoint(const Instance& instance) {
  if (writer_ == nullptr) {
    return Status::FailedPrecondition("durable store is closed");
  }
  obs::Registry& registry = obs::Registry::Default();
  auto fail = [&](const Status& status) {
    registry
        .GetCounter("regal_recovery_checkpoints_total",
                    {{"outcome", "error"}})
        ->Increment();
    return status;
  };
  const uint64_t target_lsn = last_lsn_;
  // 1. Sync the WAL. Every record the snapshot is about to hold must be
  // durable in the log first: otherwise a crash between steps 2 and 3
  // replays only the synced prefix over the newer snapshot, rolling some
  // names back and not others — a state that never existed.
  Status synced = writer_->Sync();
  if (!synced.ok()) return fail(synced);
  // 2. The snapshot, atomically. Crash here: old snapshot + old manifest +
  // full WAL — recovery replays everything, as before the attempt.
  Status saved = RetryWithBackoff(
      options_.retry, /*context=*/nullptr, "checkpoint-snapshot",
      [&] { return storage::SaveSnapshotToFile(instance, SnapshotPath(),
                                               env_); });
  if (!saved.ok()) return fail(saved);
  // 3. The manifest — the checkpoint's commit point. Crash between 2 and
  // 3: new snapshot, old manifest; replay re-applies records the snapshot
  // already holds, which set-to-value semantics make a no-op.
  REGAL_RETURN_NOT_OK(safety::CheckFailpoint(kFailpointCheckpointSwap));
  Status manifest = RetryWithBackoff(
      options_.retry, /*context=*/nullptr, "checkpoint-manifest", [&] {
        return storage::AtomicWriteFile(env_, ManifestPath(),
                                        EncodeManifest(target_lsn));
      });
  if (!manifest.ok()) return fail(manifest);
  // 4. WAL reset. Crash between 3 and 4: full WAL survives but every
  // record is lsn <= manifest lsn, so replay skips it all.
  Status reset = ResetWal();
  if (!reset.ok()) return fail(reset);

  checkpoint_lsn_ = target_lsn;
  records_since_checkpoint_.store(0, std::memory_order_relaxed);
  degraded_.store(false, std::memory_order_relaxed);
  if (health_.degraded) {
    // The serving state just became a clean, complete snapshot: healed.
    health_.degraded = false;
    health_.notes.push_back("healed by checkpoint at lsn " +
                            std::to_string(target_lsn));
  }
  health_.checkpoint_lsn = target_lsn;
  registry
      .GetCounter("regal_recovery_checkpoints_total", {{"outcome", "ok"}})
      ->Increment();
  return Status::OK();
}

Status DurableStore::ResetWal() {
  // Close first so the writer's descriptor does not outlive the rename
  // (an orphaned fd would keep appending to the doomed inode).
  REGAL_RETURN_NOT_OK(writer_->Close());
  writer_.reset();
  Status fresh = RetryWithBackoff(
      options_.retry, /*context=*/nullptr, "wal-reset",
      [&] { return storage::AtomicWriteFile(env_, WalPath(), WalHeader()); });
  REGAL_RETURN_NOT_OK(fresh);
  REGAL_ASSIGN_OR_RETURN(
      writer_, WalWriter::Open(env_, WalPath(), last_lsn_ + 1, options_.wal));
  return Status::OK();
}

Status DurableStore::Close() {
  if (writer_ == nullptr) return Status::OK();
  Status closed = writer_->Close();
  writer_.reset();
  return closed;
}

DurableStore::~DurableStore() {
  Status closed = Close();
  (void)closed;
}

}  // namespace recovery
}  // namespace regal
