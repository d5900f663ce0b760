#include "recovery/wal.h"

#include <chrono>
#include <utility>

#include "obs/metrics.h"
#include "safety/failpoint.h"
#include "storage/checksum.h"
#include "storage/wire.h"
#include "text/text.h"

namespace regal {
namespace recovery {

namespace {

using storage::Crc32c;
using storage::GetU32;
using storage::GetU64;
using storage::PutU32;
using storage::PutU64;

// "REGALW\0" + format version 1 (parallel to the snapshot's "REGAL2\0").
constexpr char kWalMagic[kWalHeaderSize] = {'R', 'E', 'G', 'A',
                                            'L', 'W', '\0', '\x01'};

// crc (4) + len (4) + lsn (8) + kind (1).
constexpr size_t kFrameHeader = 17;
// crc excluded: what the crc covers.
constexpr size_t kCrcCovered = kFrameHeader - 4;

bool ValidKind(uint8_t kind) {
  return kind >= static_cast<uint8_t>(MutationKind::kDefineRegions) &&
         kind <= static_cast<uint8_t>(MutationKind::kSetPattern);
}

// PutU32's little-endian byte order, written in place instead of appended —
// for patching the crc and length slots once the payload size is known.
void PatchU32(char* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>(v >> (8 * i));
}

// Record payloads are the two payloads storage/wire.h defines for both
// durable formats.
void EncodeMutationPayloadTo(std::string* out, const Mutation& m) {
  switch (m.kind) {
    case MutationKind::kDefineRegions:
    case MutationKind::kReplaceRegions:
    case MutationKind::kSetPattern:
      storage::EncodeNamedRegions(out, m.name, m.regions);
      break;
    case MutationKind::kBindText:
      storage::EncodeText(out, m.text);
      break;
  }
}

// Encodes one frame directly into `out` (no intermediate payload / body /
// frame strings — this sits on the per-mutation hot path, where three
// allocations per record were a measurable share of the WAL overhead).
Status AppendWalRecordTo(std::string* out, uint64_t lsn, const Mutation& m) {
  if (lsn == 0) {
    return Status::InvalidArgument("wal: lsn 0 is reserved for 'no records'");
  }
  const size_t frame_start = out->size();
  PutU32(out, 0);  // crc, patched below
  PutU32(out, 0);  // payload length, patched below
  PutU64(out, lsn);
  out->push_back(static_cast<char>(m.kind));
  const size_t payload_start = out->size();
  EncodeMutationPayloadTo(out, m);
  const uint32_t payload_len =
      static_cast<uint32_t>(out->size() - payload_start);
  char* frame = &(*out)[frame_start];
  PatchU32(frame + 4, payload_len);
  PatchU32(frame, Crc32c(std::string_view(frame + 4,
                                          kCrcCovered + payload_len)));
  return Status::OK();
}

Result<Mutation> DecodeMutationPayload(MutationKind kind,
                                       std::string_view payload) {
  Mutation m;
  m.kind = kind;
  const Status decoded =
      kind == MutationKind::kBindText
          ? storage::DecodeText(payload, &m.text)
          : storage::DecodeNamedRegions(payload, &m.name, &m.regions);
  if (!decoded.ok()) return Status::DataLoss("wal: " + decoded.message());
  return m;
}

}  // namespace

Mutation Mutation::DefineRegions(std::string name, RegionSet regions) {
  Mutation m;
  m.kind = MutationKind::kDefineRegions;
  m.name = std::move(name);
  m.regions = std::move(regions);
  return m;
}

Mutation Mutation::ReplaceRegions(std::string name, RegionSet regions) {
  Mutation m;
  m.kind = MutationKind::kReplaceRegions;
  m.name = std::move(name);
  m.regions = std::move(regions);
  return m;
}

Mutation Mutation::BindText(std::string text) {
  Mutation m;
  m.kind = MutationKind::kBindText;
  m.text = std::move(text);
  return m;
}

Mutation Mutation::SetPattern(const Pattern& pattern, RegionSet regions) {
  Mutation m;
  m.kind = MutationKind::kSetPattern;
  m.name = pattern.CacheKey();
  m.regions = std::move(regions);
  return m;
}

Status ApplyMutation(Instance* instance, const Mutation& m) {
  switch (m.kind) {
    // Both region kinds upsert here: the engine enforces the "already
    // defined" error for DefineRegions *before* journaling, so by the time
    // a record exists it is unconditionally applicable — which is what
    // makes replaying over a snapshot that already contains it a no-op.
    case MutationKind::kDefineRegions:
    case MutationKind::kReplaceRegions:
      instance->SetRegionSet(m.name, m.regions);
      return Status::OK();
    case MutationKind::kBindText:
      instance->BindText(std::make_shared<Text>(m.text));
      return Status::OK();
    case MutationKind::kSetPattern: {
      REGAL_ASSIGN_OR_RETURN(Pattern p, Pattern::FromCacheKey(m.name));
      instance->SetSyntheticPattern(p, m.regions);
      return Status::OK();
    }
  }
  return Status::InvalidArgument("wal: unknown mutation kind");
}

std::string WalHeader() { return std::string(kWalMagic, kWalHeaderSize); }

Result<std::string> EncodeWalRecord(uint64_t lsn, const Mutation& m) {
  std::string frame;
  REGAL_RETURN_NOT_OK(AppendWalRecordTo(&frame, lsn, m));
  return frame;
}

Result<WalReadResult> ReadWalBytes(std::string_view bytes) {
  WalReadResult result;
  if (bytes.empty()) return result;
  if (bytes.size() < kWalHeaderSize ||
      std::string_view(kWalMagic, kWalHeaderSize) !=
          bytes.substr(0, kWalHeaderSize)) {
    // A header this writer wrote is either complete (created before any
    // record, via AtomicWriteFile or a synced append) or absent; damage
    // here means the file is not our WAL at all.
    return Status::DataLoss("wal: bad magic/version header");
  }
  size_t offset = kWalHeaderSize;
  auto stop = [&](std::string why) {
    result.valid_bytes = offset;
    result.dropped_tail_bytes = bytes.size() - offset;
    result.tail_error = std::move(why);
  };
  while (offset < bytes.size()) {
    if (bytes.size() - offset < kFrameHeader) {
      stop("frame header overruns file");
      break;
    }
    const char* frame = bytes.data() + offset;
    const uint32_t stored_crc = GetU32(frame);
    const uint32_t payload_len = GetU32(frame + 4);
    if (bytes.size() - offset - kFrameHeader < payload_len) {
      stop("payload overruns file");
      break;
    }
    const std::string_view covered(frame + 4, kCrcCovered + payload_len);
    if (Crc32c(covered) != stored_crc) {
      stop("record checksum mismatch");
      break;
    }
    const uint64_t lsn = GetU64(frame + 8);
    const uint8_t kind = static_cast<uint8_t>(frame[16]);
    if (!ValidKind(kind) || lsn <= result.last_lsn) {
      // CRC-valid but semantically impossible (this writer never emits
      // either) — treat as the start of an untrusted tail rather than
      // guessing what the bytes meant.
      stop(!ValidKind(kind) ? "unknown record kind"
                            : "lsn not strictly increasing");
      break;
    }
    Result<Mutation> m = DecodeMutationPayload(
        static_cast<MutationKind>(kind),
        std::string_view(frame + kFrameHeader, payload_len));
    if (!m.ok()) {
      stop("record payload undecodable: " + m.status().message());
      break;
    }
    result.records.emplace_back(lsn, std::move(m).value());
    result.last_lsn = lsn;
    offset += kFrameHeader + payload_len;
  }
  if (result.tail_error.empty()) result.valid_bytes = bytes.size();
  return result;
}

const char* SyncPolicyName(SyncPolicy policy) {
  switch (policy) {
    case SyncPolicy::kAlways:
      return "always";
    case SyncPolicy::kInterval:
      return "interval";
    case SyncPolicy::kNever:
      return "never";
  }
  return "unknown";
}

// Bound the append buffer even when no fsync is due: past this size the
// memory cost outweighs the saved write syscalls.
constexpr size_t kFlushBytes = 256 * 1024;

// Buffer size at which appends block until the background flusher drains —
// a memory bound, not a durability one. Generous on purpose: an fsync tail
// latency of a few milliseconds must not stall the mutator, and under
// kInterval the buffered records were never acknowledged as durable anyway.
constexpr size_t kBackpressureBytes = 16 * kFlushBytes;

WalWriter::WalWriter(storage::Env* env, std::string path, uint64_t next_lsn,
                     WalWriterOptions options)
    : env_(env),
      path_(std::move(path)),
      next_lsn_(next_lsn),
      options_(std::move(options)) {
  obs::Registry& registry = obs::Registry::Default();
  records_counter_ = registry.GetCounter("regal_wal_records_total");
  bytes_counter_ = registry.GetCounter("regal_wal_bytes_written_total");
  syncs_counter_ = registry.GetCounter("regal_wal_syncs_total");
  size_gauge_ = registry.GetGauge("regal_wal_size_bytes");
}

WalWriter::~WalWriter() { StopFlusher(); }

Result<std::unique_ptr<WalWriter>> WalWriter::Open(storage::Env* env,
                                                   std::string path,
                                                   uint64_t next_lsn,
                                                   WalWriterOptions options) {
  std::unique_ptr<WalWriter> writer(
      new WalWriter(env, std::move(path), next_lsn, std::move(options)));
  uint64_t size = 0;
  if (env->FileExists(writer->path_)) {
    REGAL_ASSIGN_OR_RETURN(size, env->FileSize(writer->path_));
  }
  const bool fresh = size < kWalHeaderSize;
  Status open = RetryWithBackoff(
      writer->options_.retry, /*context=*/nullptr, "wal-open", [&] {
        Result<std::unique_ptr<storage::WritableFile>> file =
            fresh ? env->NewWritableFile(writer->path_)
                  : env->NewAppendableFile(writer->path_);
        REGAL_RETURN_NOT_OK(file.status());
        writer->file_ = std::move(file).value();
        return Status::OK();
      });
  REGAL_RETURN_NOT_OK(open);
  if (fresh) {
    // A sub-header file can only be a torn creation: no record ever
    // followed, so rewriting the header loses nothing.
    writer->buffer_ = WalHeader();
    REGAL_RETURN_NOT_OK(writer->WriteOut(/*sync=*/true));
    // fsync the parent directory too: a synced file whose directory entry
    // was never persisted simply vanishes in a crash, records and all.
    REGAL_RETURN_NOT_OK(RetryWithBackoff(
        writer->options_.retry, /*context=*/nullptr, "wal-dirsync",
        [&] { return env->SyncDir(storage::ParentDir(writer->path_)); }));
    size = kWalHeaderSize;
  }
  writer->size_gauge_->Set(static_cast<double>(size));
  if (writer->options_.sync == SyncPolicy::kInterval) {
    writer->flusher_ = std::thread(&WalWriter::FlusherLoop, writer.get());
  }
  return writer;
}

Status WalWriter::Append(const Mutation& m, uint64_t* lsn) {
  uint64_t first = 0;
  REGAL_RETURN_NOT_OK(AppendCore(&m, 1, &first));
  if (lsn != nullptr) *lsn = first;
  return Status::OK();
}

Status WalWriter::AppendBatch(const std::vector<Mutation>& batch,
                              std::vector<uint64_t>* lsns) {
  uint64_t first = 0;
  REGAL_RETURN_NOT_OK(AppendCore(batch.data(), batch.size(), &first));
  if (lsns != nullptr) {
    lsns->resize(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      (*lsns)[i] = first + static_cast<uint64_t>(i);
    }
  }
  return Status::OK();
}

Status WalWriter::AppendCore(const Mutation* batch, size_t count,
                             uint64_t* first_lsn) {
  if (count == 0) return Status::OK();
  if (file_ == nullptr) {
    return Status::FailedPrecondition("wal: writer is closed");
  }
  REGAL_RETURN_NOT_OK(safety::CheckFailpoint(kFailpointWalAppend));
  // Encode outside the buffer lock (text frames LZ-compress, which must
  // not stall the flusher's swap), into a scratch reused across appends.
  scratch_.clear();
  uint64_t lsn = next_lsn_;
  for (size_t i = 0; i < count; ++i) {
    REGAL_RETURN_NOT_OK(AppendWalRecordTo(&scratch_, lsn++, batch[i]));
  }
  size_t buffered = 0;
  {
    std::lock_guard<std::mutex> buf_lock(buf_mu_);
    if (!background_error_.ok()) return background_error_;
    buffer_.append(scratch_);
    buffered = buffer_.size();
  }
  unsynced_records_.fetch_add(static_cast<int64_t>(count),
                              std::memory_order_relaxed);
  // Lsns are consumed only once the bytes are buffered: a failed append
  // must leave the writer reusable without holes in the sequence.
  *first_lsn = next_lsn_;
  next_lsn_ = lsn;
  records_counter_->Increment(static_cast<int64_t>(count));
  return MaybeSync(buffered);
}

Status WalWriter::MaybeSync(size_t buffered) {
  switch (options_.sync) {
    case SyncPolicy::kAlways:
      return WriteOut(/*sync=*/true);
    case SyncPolicy::kInterval:
      if (buffered >= kBackpressureBytes) {
        // Backpressure: wait for the flusher's in-flight write instead of
        // duelling it with a second one through file_mu_ — it wakes us the
        // moment the buffer drains.
        std::unique_lock<std::mutex> lk(buf_mu_);
        flusher_cv_.notify_one();
        drained_cv_.wait(lk, [&] {
          return !background_error_.ok() ||
                 buffer_.size() < kBackpressureBytes;
        });
        return background_error_;
      }
      if (buffered >= kFlushBytes &&
          flusher_idle_.load(std::memory_order_relaxed)) {
        // Enough accumulated that waiting out the time cadence would just
        // grow the buffer; nudge the flusher early.
        flusher_cv_.notify_one();
      }
      return Status::OK();
    case SyncPolicy::kNever:
      if (buffered >= kFlushBytes) return WriteOut(/*sync=*/false);
      return Status::OK();
  }
  return Status::OK();
}

Status WalWriter::WriteOut(bool sync) {
  std::lock_guard<std::mutex> file_lock(file_mu_);
  if (file_ == nullptr) {
    return Status::FailedPrecondition("wal: writer is closed");
  }
  // Ping-pong with spare_ (file_mu_-guarded) instead of moving the string
  // out: both buffers keep their grown capacity, so steady-state appends
  // and swaps allocate nothing and never free memory across threads.
  spare_.clear();
  int64_t pending = 0;
  {
    std::lock_guard<std::mutex> buf_lock(buf_mu_);
    buffer_.swap(spare_);
    pending = unsynced_records_.load(std::memory_order_relaxed);
  }
  std::string& take = spare_;
  if (!take.empty()) {
    Status appended = RetryWithBackoff(
        options_.retry, /*context=*/nullptr, "wal-append",
        [&] { return file_->Append(take); });
    if (!appended.ok()) {
      // Put the frames back in front of anything appended meanwhile, so a
      // later attempt still writes them in lsn order.
      std::lock_guard<std::mutex> buf_lock(buf_mu_);
      take.append(buffer_);
      buffer_ = std::move(take);
      return appended;
    }
    file_dirty_ = true;
    bytes_counter_->Increment(static_cast<int64_t>(take.size()));
    size_gauge_->Add(static_cast<double>(take.size()));
  }
  if (!sync || !file_dirty_) return Status::OK();
  REGAL_RETURN_NOT_OK(safety::CheckFailpoint(kFailpointWalSync));
  REGAL_RETURN_NOT_OK(RetryWithBackoff(options_.retry, /*context=*/nullptr,
                                       "wal-sync",
                                       [&] { return file_->Sync(); }));
  file_dirty_ = false;
  syncs_counter_->Increment();
  // Everything counted at swap time is on disk now; records appended while
  // the fsync ran are still pending and stay counted.
  unsynced_records_.fetch_sub(pending, std::memory_order_relaxed);
  return Status::OK();
}

void WalWriter::FlusherLoop() {
  const auto cadence =
      std::chrono::duration<double, std::milli>(options_.sync_interval_ms);
  std::unique_lock<std::mutex> lk(buf_mu_);
  while (true) {
    // The idle flag lets appends skip the notify syscall while the flusher
    // is busy writing — it re-checks the predicate itself before waiting.
    flusher_idle_.store(true, std::memory_order_relaxed);
    // Time-based group commit: sleep out the cadence, then fsync whatever
    // arrived — the faster mutations come, the more each fsync amortizes.
    // A full buffer (or shutdown) cuts the sleep short.
    flusher_cv_.wait_for(lk, cadence, [&] {
      return stop_flusher_ || buffer_.size() >= kFlushBytes;
    });
    flusher_idle_.store(false, std::memory_order_relaxed);
    if (stop_flusher_) return;
    if (buffer_.empty() &&
        unsynced_records_.load(std::memory_order_relaxed) == 0) {
      continue;  // Idle tick: nothing buffered, nothing awaiting fsync.
    }
    lk.unlock();
    Status synced = WriteOut(/*sync=*/true);
    lk.lock();
    drained_cv_.notify_all();
    if (!synced.ok()) {
      // Fail-stop: surface the error to the next Append (sticky) rather
      // than churning retries forever on a dead device. Close() still
      // makes its own final attempt.
      if (background_error_.ok()) background_error_ = synced;
      return;
    }
  }
}

void WalWriter::StopFlusher() {
  if (!flusher_.joinable()) return;
  {
    std::lock_guard<std::mutex> lk(buf_mu_);
    stop_flusher_ = true;
  }
  flusher_cv_.notify_one();
  flusher_.join();
}

Status WalWriter::Flush() { return WriteOut(/*sync=*/false); }

Status WalWriter::Sync() { return WriteOut(/*sync=*/true); }

Status WalWriter::Close() {
  StopFlusher();
  if (file_ == nullptr) return Status::OK();
  Status sync = WriteOut(/*sync=*/true);
  Status close = file_->Close();
  file_.reset();
  REGAL_RETURN_NOT_OK(sync);
  return close;
}

}  // namespace recovery
}  // namespace regal
