// Crash-recovery harnesses for the write-ahead log and the self-healing
// durable open (recovery/wal.h, recovery/durable.h, recovery/retry.h):
//
//  * WAL format known-answer vectors (frames pinned as hex computed by an
//    independent CRC32C implementation) and an exhaustive single-bit-flip
//    sweep — every flipped bit in a record must truncate replay exactly at
//    that record, never admit altered data, never crash;
//  * a differential mutation/replay fuzzer (REGAL_FUZZ_ITERS-scaled):
//    journal a random mutation sequence, replay it, and require the
//    recovered catalog bit-identical to an in-memory oracle;
//  * retry-with-backoff against FaultInjectionEnv's transient
//    fail-N-times-then-succeed modes, with the fake-clock sleeper;
//  * quarantine + salvage: a corrupted snapshot opens degraded (damaged
//    bytes set aside, never deleted), serves what its per-section CRCs
//    vouch for, and the next checkpoint heals it;
//  * the crash-loop chaos matrix: kill the store at every mutating env
//    syscall x torn tails x bit flips in the torn region, reopen, and
//    require the recovered state bit-identical to the oracle of
//    *acknowledged* mutations — zero acknowledged-then-lost under
//    SyncPolicy::kAlways — and, under kNever, a crash anywhere in a
//    checkpoint over an unsynced tail recovers a prefix of the journal;
//  * a reload-vs-queries hammer (run under TSAN via the `recovery` label)
//    proving queries never observe a half-swapped catalog.
//
// The binary carries the ctest label `recovery`; tests whose names contain
// "Crash" additionally carry `crash` (see tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "query/engine.h"
#include "recovery/durable.h"
#include "recovery/retry.h"
#include "recovery/wal.h"
#include "safety/context.h"
#include "safety/failpoint.h"
#include "storage/env.h"
#include "storage/fault_env.h"
#include "storage/snapshot.h"
#include "text/text.h"
#include "util/random.h"

namespace regal {
namespace recovery {
namespace {

using storage::EnvOpKind;
using storage::FaultInjectionEnv;

// --- Helpers --------------------------------------------------------------

std::string FromHex(std::string_view hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    auto nibble = [](char c) {
      return c <= '9' ? c - '0' : c - 'a' + 10;
    };
    out.push_back(static_cast<char>(nibble(hex[i]) * 16 + nibble(hex[i + 1])));
  }
  return out;
}

// A fresh, empty directory under the test tempdir.
std::string MakeStoreDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/recovery_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string CatalogBytes(const Instance& instance) {
  auto encoded = storage::EncodeSnapshot(instance);
  EXPECT_TRUE(encoded.ok()) << encoded.status();
  return encoded.ok() ? *encoded : std::string();
}

size_t FuzzIterations(size_t fallback) {
  const char* spec = std::getenv("REGAL_FUZZ_ITERS");
  if (spec == nullptr || *spec == '\0') return fallback;
  return static_cast<size_t>(std::strtoull(spec, nullptr, 10));
}

class ScopedFailpoint {
 public:
  explicit ScopedFailpoint(const char* name) {
    safety::FailpointRegistry::Default().Arm(name);
  }
  ~ScopedFailpoint() { safety::FailpointRegistry::Default().DisarmAll(); }
};

RegionSet RandomRegions(Rng* rng, int max_regions = 8) {
  std::vector<Region> regions;
  const int n = static_cast<int>(rng->Between(1, max_regions));
  Offset left = 0;
  for (int i = 0; i < n; ++i) {
    left += static_cast<Offset>(rng->Between(1, 40));
    const Offset width = static_cast<Offset>(rng->Between(0, 25));
    regions.push_back(Region{left, left + width});
  }
  return RegionSet::FromUnsorted(std::move(regions));
}

std::string RandomText(Rng* rng) {
  static const char* kWords[] = {"alpha", "beta", "gamma", "delta", "omega"};
  std::string text;
  const int n = static_cast<int>(rng->Between(3, 30));
  for (int i = 0; i < n; ++i) {
    if (!text.empty()) text += ' ';
    text += kWords[rng->Below(5)];
  }
  return text;
}

// A random applicable mutation against the current `oracle` state.
Mutation RandomMutation(Rng* rng, const Instance& oracle) {
  switch (rng->Below(4)) {
    case 0: {
      std::string name = "r" + std::to_string(rng->Below(6));
      if (!oracle.Has(name)) {
        return Mutation::DefineRegions(name, RandomRegions(rng));
      }
      return Mutation::ReplaceRegions(name, RandomRegions(rng));
    }
    case 1:
      return Mutation::ReplaceRegions("r" + std::to_string(rng->Below(6)),
                                      RandomRegions(rng));
    case 2:
      return Mutation::BindText(RandomText(rng));
    default: {
      Pattern p = *Pattern::Parse(rng->Chance(0.5) ? "alp*" : "beta");
      return Mutation::SetPattern(p, RandomRegions(rng, 3));
    }
  }
}

// --- WAL format -----------------------------------------------------------

// Hex frames computed by an independent Python CRC32C implementation, so a
// codec bug and its mirror in the decoder cannot cancel out.
constexpr char kHeaderHex[] = "524547414c570001";
// lsn=1, DefineRegions("sec", {[5,9],[12,20]}) — zigzag-varint deltas
// 0a 08 0e 10 for lefts 5,12 and widths 4,8.
constexpr char kFrame1Hex[] =
    "d75fc395130000000100000000000000010300000073656302000000000000000a080e"
    "10";
// lsn=2, BindText("alpha beta") (stored codec, short text).
constexpr char kFrame2Hex[] =
    "b04af68913000000020000000000000003000a00000000000000616c7068612062657461";

TEST(WalFormatTest, KnownAnswerVectors) {
  EXPECT_EQ(WalHeader(), FromHex(kHeaderHex));

  Mutation define = Mutation::DefineRegions(
      "sec", RegionSet{Region{5, 9}, Region{12, 20}});
  auto frame1 = EncodeWalRecord(1, define);
  ASSERT_TRUE(frame1.ok()) << frame1.status();
  EXPECT_EQ(*frame1, FromHex(kFrame1Hex));

  auto frame2 = EncodeWalRecord(2, Mutation::BindText("alpha beta"));
  ASSERT_TRUE(frame2.ok()) << frame2.status();
  EXPECT_EQ(*frame2, FromHex(kFrame2Hex));

  // And the reader inverts the pinned bytes.
  auto read = ReadWalBytes(FromHex(kHeaderHex) + FromHex(kFrame1Hex) +
                           FromHex(kFrame2Hex));
  ASSERT_TRUE(read.ok()) << read.status();
  ASSERT_EQ(read->records.size(), 2u);
  EXPECT_EQ(read->last_lsn, 2u);
  EXPECT_EQ(read->dropped_tail_bytes, 0u);
  EXPECT_EQ(read->records[0].second.name, "sec");
  EXPECT_EQ(read->records[0].second.regions,
            (RegionSet{Region{5, 9}, Region{12, 20}}));
  EXPECT_EQ(read->records[1].second.text, "alpha beta");
}

TEST(WalFormatTest, EmptyAndHeaderOnlyLogsReadAsZeroRecords) {
  auto empty = ReadWalBytes("");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->records.empty());

  auto header_only = ReadWalBytes(WalHeader());
  ASSERT_TRUE(header_only.ok());
  EXPECT_TRUE(header_only->records.empty());
  EXPECT_EQ(header_only->valid_bytes, kWalHeaderSize);
}

TEST(WalFormatTest, BadMagicIsDataLoss) {
  auto read = ReadWalBytes("NOTAWAL!" + FromHex(kFrame1Hex));
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
}

TEST(WalFormatTest, LsnMustBeStrictlyIncreasing) {
  Mutation m = Mutation::BindText("x");
  std::string log = WalHeader() + *EncodeWalRecord(5, m) +
                    *EncodeWalRecord(5, m);  // Repeated lsn: untrusted tail.
  auto read = ReadWalBytes(log);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records.size(), 1u);
  EXPECT_GT(read->dropped_tail_bytes, 0u);
}

TEST(WalFormatTest, ExhaustiveSingleBitFlipSweep) {
  Rng rng(0xf11b);
  Instance oracle;
  std::vector<Mutation> mutations;
  std::vector<size_t> frame_starts;  // Offset of each frame in the log.
  std::string log = WalHeader();
  for (uint64_t lsn = 1; lsn <= 3; ++lsn) {
    Mutation m = RandomMutation(&rng, oracle);
    ASSERT_TRUE(ApplyMutation(&oracle, m).ok());
    frame_starts.push_back(log.size());
    log += *EncodeWalRecord(lsn, m);
    mutations.push_back(std::move(m));
  }
  auto clean = ReadWalBytes(log);
  ASSERT_TRUE(clean.ok());
  ASSERT_EQ(clean->records.size(), 3u);

  for (size_t bit = 0; bit < log.size() * 8; ++bit) {
    std::string corrupt = log;
    corrupt[bit / 8] = static_cast<char>(corrupt[bit / 8] ^ (1 << (bit % 8)));
    auto read = ReadWalBytes(corrupt);
    if (bit < kWalHeaderSize * 8) {
      // Header flips: nothing identifies the file as our WAL.
      EXPECT_EQ(read.status().code(), StatusCode::kDataLoss) << "bit " << bit;
      continue;
    }
    ASSERT_TRUE(read.ok()) << "bit " << bit;
    // The CRC guarantees single-bit detection: replay stops exactly at the
    // frame the flip landed in, and everything before it decodes intact.
    size_t hit_frame = 0;
    while (hit_frame + 1 < frame_starts.size() &&
           bit / 8 >= frame_starts[hit_frame + 1]) {
      ++hit_frame;
    }
    ASSERT_EQ(read->records.size(), hit_frame) << "bit " << bit;
    EXPECT_GT(read->dropped_tail_bytes, 0u) << "bit " << bit;
    for (size_t i = 0; i < read->records.size(); ++i) {
      EXPECT_EQ(read->records[i].first, i + 1);
      EXPECT_EQ(read->records[i].second.kind, mutations[i].kind);
    }
  }
}

TEST(WalFormatTest, TornTailTruncatesAtLastWholeFrame) {
  Rng rng(0x7042);
  Instance oracle;
  std::string log = WalHeader();
  std::vector<size_t> frame_ends;
  for (uint64_t lsn = 1; lsn <= 4; ++lsn) {
    Mutation m = RandomMutation(&rng, oracle);
    ASSERT_TRUE(ApplyMutation(&oracle, m).ok());
    log += *EncodeWalRecord(lsn, m);
    frame_ends.push_back(log.size());
  }
  for (size_t cut = kWalHeaderSize; cut < log.size(); ++cut) {
    auto read = ReadWalBytes(std::string_view(log).substr(0, cut));
    ASSERT_TRUE(read.ok()) << "cut " << cut;
    size_t whole = 0;
    while (whole < frame_ends.size() && frame_ends[whole] <= cut) ++whole;
    EXPECT_EQ(read->records.size(), whole) << "cut " << cut;
    EXPECT_EQ(read->valid_bytes,
              whole == 0 ? kWalHeaderSize : frame_ends[whole - 1])
        << "cut " << cut;
  }
}

TEST(WalFormatTest, DifferentialReplayFuzz) {
  const size_t iters = FuzzIterations(60);
  for (size_t iter = 0; iter < iters; ++iter) {
    Rng rng(0xd1ff + iter);
    Instance oracle;
    std::string log = WalHeader();
    const int n = static_cast<int>(rng.Between(1, 12));
    for (int i = 0; i < n; ++i) {
      Mutation m = RandomMutation(&rng, oracle);
      log += *EncodeWalRecord(static_cast<uint64_t>(i + 1), m);
      ASSERT_TRUE(ApplyMutation(&oracle, m).ok());
    }
    auto read = ReadWalBytes(log);
    ASSERT_TRUE(read.ok()) << read.status();
    ASSERT_EQ(read->records.size(), static_cast<size_t>(n));
    Instance replayed;
    for (const auto& [lsn, m] : read->records) {
      ASSERT_TRUE(ApplyMutation(&replayed, m).ok());
    }
    // Bit-identical recovered catalog, the replay correctness bar.
    EXPECT_EQ(CatalogBytes(replayed), CatalogBytes(oracle)) << "iter " << iter;
  }
}

// --- Retry / transient-failure injection ----------------------------------

TEST(RetryTest, TransientErrorsRetryUntilDeviceRecovers) {
  FaultInjectionEnv env;
  env.InjectTransient(EnvOpKind::kAppend, 2);
  const std::string path = MakeStoreDir("retry_append") + "/wal.log";

  WalWriterOptions options;
  std::vector<double> sleeps;
  options.retry.sleeper = [&](double ms) { sleeps.push_back(ms); };
  auto writer = WalWriter::Open(&env, path, 1, options);
  ASSERT_TRUE(writer.ok()) << writer.status();
  ASSERT_TRUE((*writer)->Append(Mutation::BindText("hello")).ok());
  EXPECT_EQ(env.TransientRemaining(EnvOpKind::kAppend), 0);
  EXPECT_EQ(sleeps.size(), 2u);  // Two injected failures, two backoffs.
  EXPECT_LE(sleeps[0], sleeps[1] * 2);  // Jittered exponential growth.
}

TEST(RetryTest, ExhaustedBudgetSurfacesTypedError) {
  FaultInjectionEnv env;
  env.InjectTransient(EnvOpKind::kSync, 100, /*enospc=*/true);
  const std::string path = MakeStoreDir("retry_sync") + "/wal.log";

  WalWriterOptions options;
  options.retry.max_attempts = 3;
  options.retry.sleeper = [](double) {};
  auto writer = WalWriter::Open(&env, path, 1, options);
  // Open itself syncs the fresh header, so the injection hits right here.
  ASSERT_FALSE(writer.ok());
  EXPECT_EQ(writer.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(env.TransientRemaining(EnvOpKind::kSync), 100 - 3);
}

TEST(RetryTest, PermanentErrorsAreNotRetried) {
  int attempts = 0;
  RetryPolicy policy;
  policy.sleeper = [](double) { FAIL() << "must not sleep"; };
  Status status = RetryWithBackoff(policy, nullptr, "test", [&] {
    ++attempts;
    return Status::DataLoss("rotted");
  });
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(attempts, 1);
}

TEST(RetryTest, GovernanceDeadlineWinsOverRetrying) {
  safety::QueryLimits limits;
  limits.deadline_ms = 0.5;
  safety::QueryContext context(limits);
  // Let the deadline lapse before the first attempt: the retry loop's
  // pre-attempt governance check must win over retrying.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  int attempts = 0;
  RetryPolicy policy;
  policy.sleeper = [](double) {};
  Status status = RetryWithBackoff(policy, &context, "test", [&] {
    ++attempts;
    return Status::Internal("eio");
  });
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(attempts, 0);
}

TEST(RetryTest, BackoffSequenceIsDeterministicAndCapped) {
  auto run = [](uint64_t seed) {
    std::vector<double> sleeps;
    RetryPolicy policy;
    policy.max_attempts = 8;
    policy.initial_backoff_ms = 1.0;
    policy.max_backoff_ms = 4.0;
    policy.jitter_seed = seed;
    policy.sleeper = [&](double ms) { sleeps.push_back(ms); };
    (void)RetryWithBackoff(policy, nullptr, "test",
                           [] { return Status::Internal("eio"); });
    return sleeps;
  };
  const std::vector<double> a = run(7);
  const std::vector<double> b = run(7);
  const std::vector<double> c = run(8);
  EXPECT_EQ(a, b);  // Reproducible from the seed.
  EXPECT_NE(a, c);  // But actually jittered.
  ASSERT_EQ(a.size(), 7u);
  for (double ms : a) EXPECT_LE(ms, 4.0);
}

// kInterval's fsyncs run on the writer's flusher thread, so Append never
// waits on the device yet the durability debt still drains to zero shortly
// after the cadence tick.
TEST(WalWriterTest, IntervalBackgroundFlusherDrainsDurabilityDebt) {
  storage::Env* env = storage::Env::Default();
  const std::string path = MakeStoreDir("sync_background") + "/wal.log";
  WalWriterOptions options;
  options.sync = SyncPolicy::kInterval;
  options.sync_interval_ms = 1.0;  // Fast cadence keeps the test snappy.
  auto writer = WalWriter::Open(env, path, 1, options);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*writer)->Append(Mutation::BindText("x")).ok());
  }
  // The flusher's next cadence tick fsyncs everything buffered; poll until
  // the durability debt reaches zero without any explicit Sync() call.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((*writer)->unsynced_records() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ((*writer)->unsynced_records(), 0);
  ASSERT_TRUE((*writer)->Close().ok());

  auto bytes = env->ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  auto read = ReadWalBytes(*bytes);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records.size(), 5u);  // Close drained the rest.
}

TEST(WalWriterTest, GroupCommitAssignsContiguousLsns) {
  FaultInjectionEnv env;
  const std::string path = MakeStoreDir("group_commit") + "/wal.log";
  auto writer = WalWriter::Open(&env, path, 10, {});
  ASSERT_TRUE(writer.ok());
  std::vector<uint64_t> lsns;
  std::vector<Mutation> batch = {Mutation::BindText("a"),
                                 Mutation::BindText("b"),
                                 Mutation::BindText("c")};
  ASSERT_TRUE((*writer)->AppendBatch(batch, &lsns).ok());
  EXPECT_EQ(lsns, (std::vector<uint64_t>{10, 11, 12}));
  ASSERT_TRUE((*writer)->Close().ok());

  auto bytes = env.ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  auto read = ReadWalBytes(*bytes);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records.size(), 3u);
  EXPECT_EQ(read->last_lsn, 12u);
}

// --- Durable store: open / replay / checkpoint ----------------------------

TEST(DurableStoreTest, MutationsSurviveReopenWithoutCheckpoint) {
  const std::string dir = MakeStoreDir("reopen_wal");
  Rng rng(0xabc1);
  Instance oracle;
  {
    Instance opened;
    auto store = DurableStore::Open(storage::Env::Default(), dir, {}, &opened);
    ASSERT_TRUE(store.ok()) << store.status();
    Instance live;
    for (int i = 0; i < 10; ++i) {
      Mutation m = RandomMutation(&rng, oracle);
      ASSERT_TRUE((*store)->Journal(m).ok());
      ASSERT_TRUE(ApplyMutation(&oracle, m).ok());
    }
    ASSERT_TRUE((*store)->Close().ok());
  }
  Instance recovered;
  auto store = DurableStore::Open(storage::Env::Default(), dir, {}, &recovered);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ((*store)->health().replayed_records, 10u);
  EXPECT_FALSE((*store)->degraded());
  EXPECT_EQ(CatalogBytes(recovered), CatalogBytes(oracle));
}

TEST(DurableStoreTest, CheckpointResetsWalAndAdvancesManifest) {
  const std::string dir = MakeStoreDir("checkpoint");
  storage::Env* env = storage::Env::Default();
  Rng rng(0xabc2);
  Instance oracle;
  Instance opened;
  auto store = DurableStore::Open(env, dir, {}, &opened);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 5; ++i) {
    Mutation m = RandomMutation(&rng, oracle);
    ASSERT_TRUE((*store)->Journal(m).ok());
    ASSERT_TRUE(ApplyMutation(&oracle, m).ok());
  }
  ASSERT_TRUE((*store)->Checkpoint(oracle).ok());
  EXPECT_EQ((*store)->checkpoint_lsn(), 5u);
  EXPECT_EQ((*store)->records_since_checkpoint(), 0);
  // The WAL is a bare header again.
  auto wal_size = env->FileSize((*store)->WalPath());
  ASSERT_TRUE(wal_size.ok());
  EXPECT_EQ(*wal_size, kWalHeaderSize);
  // Post-checkpoint mutations land with lsns above the checkpoint.
  Mutation m = RandomMutation(&rng, oracle);
  uint64_t lsn = 0;
  ASSERT_TRUE((*store)->Journal(m, &lsn).ok());
  EXPECT_EQ(lsn, 6u);
  ASSERT_TRUE(ApplyMutation(&oracle, m).ok());
  ASSERT_TRUE((*store)->Close().ok());

  Instance recovered;
  auto reopened = DurableStore::Open(env, dir, {}, &recovered);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->health().replayed_records, 1u);  // Only lsn 6.
  EXPECT_EQ(CatalogBytes(recovered), CatalogBytes(oracle));
}

TEST(DurableStoreTest, CorruptSnapshotQuarantinedSalvagedAndHealed) {
  const std::string dir = MakeStoreDir("salvage");
  storage::Env* env = storage::Env::Default();
  Instance oracle;
  ASSERT_TRUE(
      ApplyMutation(&oracle, Mutation::BindText("alpha beta gamma")).ok());
  ASSERT_TRUE(ApplyMutation(&oracle, Mutation::DefineRegions(
                                         "a", RegionSet{Region{0, 4}}))
                  .ok());
  ASSERT_TRUE(ApplyMutation(&oracle, Mutation::DefineRegions(
                                         "b", RegionSet{Region{6, 9}}))
                  .ok());
  {
    Instance opened;
    auto store = DurableStore::Open(env, dir, {}, &opened);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->JournalBatch({Mutation::BindText("alpha beta gamma"),
                                        Mutation::DefineRegions(
                                            "a", RegionSet{Region{0, 4}}),
                                        Mutation::DefineRegions(
                                            "b", RegionSet{Region{6, 9}})})
                    .ok());
    ASSERT_TRUE((*store)->Checkpoint(oracle).ok());
    ASSERT_TRUE((*store)->Close().ok());
  }
  const std::string snapshot_path = dir + "/snapshot.regal";
  std::string bytes = *env->ReadFileToString(snapshot_path);
  // Flip a bit inside the "b" region section's payload (u32 name length 1
  // followed by the name): its CRC fails, other sections keep theirs and
  // must be salvaged.
  const size_t victim = bytes.find(std::string({'\x01', '\0', '\0', '\0', 'b'}));
  ASSERT_NE(victim, std::string::npos);
  bytes[victim + 4] = static_cast<char>(bytes[victim + 4] ^ 1);
  {
    auto file = env->NewWritableFile(snapshot_path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(bytes).ok());
    ASSERT_TRUE((*file)->Close().ok());
  }

  Instance recovered;
  auto store = DurableStore::Open(env, dir, {}, &recovered);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_TRUE((*store)->degraded());
  ASSERT_EQ((*store)->health().quarantined.size(), 1u);
  const std::string& quarantine = (*store)->health().quarantined[0];
  // The damaged bytes were set aside verbatim — evidence, not garbage.
  ASSERT_TRUE(env->FileExists(quarantine));
  EXPECT_EQ(*env->ReadFileToString(quarantine), bytes);
  EXPECT_FALSE(env->FileExists(snapshot_path));
  EXPECT_GE((*store)->health().salvage.sections_kept, 1);
  EXPECT_GE((*store)->health().salvage.sections_dropped, 1);
  // Salvage kept the text and at least one region set.
  ASSERT_NE(recovered.text(), nullptr);
  EXPECT_EQ(recovered.text()->content(), "alpha beta gamma");

  // The next checkpoint rewrites a clean snapshot: healed.
  ASSERT_TRUE((*store)->Checkpoint(recovered).ok());
  EXPECT_FALSE((*store)->degraded());
  ASSERT_TRUE((*store)->Close().ok());
  Instance healed;
  auto clean = DurableStore::Open(env, dir, {}, &healed);
  ASSERT_TRUE(clean.ok());
  EXPECT_FALSE((*clean)->degraded());
  EXPECT_EQ(CatalogBytes(healed), CatalogBytes(recovered));
}

TEST(DurableStoreTest, CorruptManifestDegradesToFullIdempotentReplay) {
  const std::string dir = MakeStoreDir("bad_manifest");
  storage::Env* env = storage::Env::Default();
  Rng rng(0xabc3);
  Instance oracle;
  {
    Instance opened;
    auto store = DurableStore::Open(env, dir, {}, &opened);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 4; ++i) {
      Mutation m = RandomMutation(&rng, oracle);
      ASSERT_TRUE((*store)->Journal(m).ok());
      ASSERT_TRUE(ApplyMutation(&oracle, m).ok());
    }
    ASSERT_TRUE((*store)->Checkpoint(oracle).ok());
    ASSERT_TRUE((*store)->Close().ok());
  }
  // Corrupt the manifest.
  {
    auto file = env->NewWritableFile(dir + "/CHECKPOINT");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("REGALCK\x01garbage.....").ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  Instance recovered;
  auto store = DurableStore::Open(env, dir, {}, &recovered);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_TRUE((*store)->degraded());
  // The WAL was reset at checkpoint, so nothing needed replay; the
  // snapshot alone already equals the oracle.
  EXPECT_EQ(CatalogBytes(recovered), CatalogBytes(oracle));
}

TEST(DurableStoreTest, FlipInSyncedWalRegionIsDetectedPrefixIntact) {
  // Silent media corruption of already-fsynced WAL bytes cannot be
  // loss-free — the guarantee is *detection* plus an intact prefix.
  const std::string dir = MakeStoreDir("synced_flip");
  storage::Env* env = storage::Env::Default();
  Rng rng(0xabc4);
  Instance oracle;
  std::vector<Mutation> mutations;
  {
    Instance opened;
    auto store = DurableStore::Open(env, dir, {}, &opened);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 6; ++i) {
      Mutation m = RandomMutation(&rng, oracle);
      ASSERT_TRUE((*store)->Journal(m).ok());
      ASSERT_TRUE(ApplyMutation(&oracle, m).ok());
      mutations.push_back(std::move(m));
    }
    ASSERT_TRUE((*store)->Close().ok());
  }
  // Recompute frame boundaries and flip one bit inside record 4 (index 3).
  const std::string wal_path = dir + "/wal.log";
  std::string bytes = *env->ReadFileToString(wal_path);
  size_t offset = kWalHeaderSize;
  for (int i = 0; i < 3; ++i) {
    offset += EncodeWalRecord(static_cast<uint64_t>(i + 1), mutations[i])
                  ->size();
  }
  bytes[offset + 20] = static_cast<char>(bytes[offset + 20] ^ 0x10);
  {
    auto file = env->NewWritableFile(wal_path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(bytes).ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  Instance prefix_oracle;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(ApplyMutation(&prefix_oracle, mutations[i]).ok());
  }
  Instance recovered;
  auto store = DurableStore::Open(env, dir, {}, &recovered);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ((*store)->health().replayed_records, 3u);
  EXPECT_GT((*store)->health().torn_tail_bytes, 0u);
  EXPECT_EQ(CatalogBytes(recovered), CatalogBytes(prefix_oracle));
  // The tail was truncated through the Env: the file is clean again.
  EXPECT_EQ(*env->FileSize(wal_path), offset);
}

// --- Failpoints on the journaling pipeline --------------------------------

TEST(RecoveryFailpointTest, WalAppendFailureLeavesEngineUnchanged) {
  const std::string dir = MakeStoreDir("fp_append");
  auto engine = QueryEngine::OpenDurable(dir);
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_TRUE(engine->BindText("alpha beta").ok());
  ASSERT_TRUE(engine->DefineRegions("a", RegionSet{Region{0, 4}}).ok());
  {
    ScopedFailpoint fp(kFailpointWalAppend);
    Status status = engine->DefineRegions("b", RegionSet{Region{6, 9}});
    EXPECT_FALSE(status.ok());
  }
  EXPECT_FALSE(engine->instance().Has("b"));
  // And the WAL holds exactly the acknowledged mutations.
  auto read = ReadWalBytes(
      *storage::Env::Default()->ReadFileToString(dir + "/wal.log"));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records.size(), 2u);
}

TEST(RecoveryFailpointTest, ReplayFailpointAbortsOpenCleanly) {
  const std::string dir = MakeStoreDir("fp_replay");
  {
    auto engine = QueryEngine::OpenDurable(dir);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE(engine->BindText("alpha").ok());
  }
  ScopedFailpoint fp(kFailpointRecoveryReplay);
  auto engine = QueryEngine::OpenDurable(dir);
  EXPECT_FALSE(engine.ok());
}

TEST(RecoveryFailpointTest, CheckpointSwapFailureKeepsWalIntact) {
  const std::string dir = MakeStoreDir("fp_checkpoint");
  Instance oracle;
  auto engine = QueryEngine::OpenDurable(dir);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->BindText("alpha beta gamma").ok());
  ASSERT_TRUE(ApplyMutation(&oracle, Mutation::BindText("alpha beta gamma"))
                  .ok());
  {
    ScopedFailpoint fp(kFailpointCheckpointSwap);
    EXPECT_FALSE(engine->Checkpoint().ok());
  }
  // Nothing lost: the WAL still carries the mutation, so a reopen
  // converges to the same catalog.
  engine->StopBackgroundCheckpointer();
  engine = Result<QueryEngine>(Status::Internal("dropped"));  // Destruct.
  auto reopened = QueryEngine::OpenDurable(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(CatalogBytes(reopened->instance()), CatalogBytes(oracle));
}

// --- Engine integration ---------------------------------------------------

TEST(RecoveryEngineTest, DurableEngineAnswersSurviveReopen) {
  const std::string dir = MakeStoreDir("engine_reopen");
  {
    auto engine = QueryEngine::OpenDurable(dir);
    ASSERT_TRUE(engine.ok()) << engine.status();
    ASSERT_TRUE(engine->BindText("alpha beta gamma delta").ok());
    ASSERT_TRUE(engine->DefineRegions(
                          "word", RegionSet{Region{0, 4}, Region{6, 9},
                                            Region{11, 15}, Region{17, 21}})
                    .ok());
    ASSERT_TRUE(
        engine->DefineRegions("head", RegionSet{Region{0, 9}}).ok());
    auto answer = engine->Run("word matching \"gamma\"");
    ASSERT_TRUE(answer.ok()) << answer.status();
    EXPECT_EQ(answer->regions, (RegionSet{Region{11, 15}}));
  }
  auto engine = QueryEngine::OpenDurable(dir);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto answer = engine->Run("word matching \"gamma\"");
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->regions, (RegionSet{Region{11, 15}}));
  auto unioned = engine->Run("word | head");
  ASSERT_TRUE(unioned.ok());
  EXPECT_EQ(unioned->regions.size(), 5u);
}

TEST(RecoveryEngineTest, DefineRegionsRejectsDuplicatesBeforeJournaling) {
  const std::string dir = MakeStoreDir("engine_dup");
  auto engine = QueryEngine::OpenDurable(dir);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->DefineRegions("a", RegionSet{Region{0, 4}}).ok());
  EXPECT_EQ(engine->DefineRegions("a", RegionSet{Region{5, 9}}).code(),
            StatusCode::kAlreadyExists);
  // The rejected mutation never reached the WAL.
  auto read = ReadWalBytes(
      *storage::Env::Default()->ReadFileToString(dir + "/wal.log"));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records.size(), 1u);
  // ReplaceRegions on the same name is the journaled upsert.
  EXPECT_TRUE(engine->ReplaceRegions("a", RegionSet{Region{5, 9}}).ok());
}

TEST(RecoveryEngineTest, MutationBumpsEpochSoCachedAnswersRefresh) {
  const std::string dir = MakeStoreDir("engine_epoch");
  auto engine = QueryEngine::OpenDurable(dir);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->BindText("alpha beta").ok());
  ASSERT_TRUE(engine->DefineRegions("a", RegionSet{Region{0, 4}}).ok());
  ASSERT_TRUE(engine->DefineRegions("b", RegionSet{Region{6, 9}}).ok());
  auto before = engine->Run("a | b");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->regions.size(), 2u);
  // Same query, same expression fingerprint — but the epoch moved, so the
  // result cache must not serve the stale region set.
  ASSERT_TRUE(engine->ReplaceRegions("b", RegionSet{}).ok());
  auto after = engine->Run("a | b");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->regions.size(), 1u);
}

TEST(RecoveryEngineTest, AutoCheckpointTriggersOnThreshold) {
  const std::string dir = MakeStoreDir("engine_auto_ck");
  DurableOptions options;
  options.checkpoint_every_records = 4;
  auto engine = QueryEngine::OpenDurable(dir, options);
  ASSERT_TRUE(engine.ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine
                    ->ReplaceRegions("r" + std::to_string(i),
                                     RegionSet{Region{i * 10, i * 10 + 5}})
                    .ok());
  }
  // The 4th mutation crossed the threshold: checkpointed inline.
  EXPECT_EQ(engine->durable_store()->records_since_checkpoint(), 0);
  EXPECT_EQ(engine->durable_store()->checkpoint_lsn(), 4u);
}

TEST(RecoveryEngineTest, BackgroundCheckpointerHealsDegradedOpen) {
  const std::string dir = MakeStoreDir("engine_bg_ck");
  storage::Env* env = storage::Env::Default();
  {
    auto engine = QueryEngine::OpenDurable(dir);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE(engine->BindText("alpha beta").ok());
    ASSERT_TRUE(engine->DefineRegions("a", RegionSet{Region{0, 4}}).ok());
    ASSERT_TRUE(engine->Checkpoint().ok());
  }
  // Corrupt the snapshot so the next open is degraded.
  const std::string snapshot_path = dir + "/snapshot.regal";
  std::string bytes = *env->ReadFileToString(snapshot_path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 4);
  {
    auto file = env->NewWritableFile(snapshot_path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(bytes).ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  auto engine = QueryEngine::OpenDurable(dir);
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_TRUE(engine->durable_store()->degraded());
  ASSERT_TRUE(engine->StartBackgroundCheckpointer(/*interval_ms=*/5).ok());
  for (int i = 0; i < 400 && engine->durable_store()->degraded(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_FALSE(engine->durable_store()->degraded());
  engine->StopBackgroundCheckpointer();
}

// --- Reload / mutation vs in-flight queries (run under TSAN) --------------

TEST(RecoveryEngineTest, QueriesNeverObserveHalfSwappedCatalog) {
  const std::string dir = MakeStoreDir("hammer");
  storage::Env* env = storage::Env::Default();
  // Two snapshot files with the same names but different contents; every
  // query answer must match exactly one of them.
  auto build = [](const std::string& text, Offset shift) {
    Instance instance;
    EXPECT_TRUE(ApplyMutation(&instance, Mutation::BindText(text)).ok());
    EXPECT_TRUE(ApplyMutation(&instance,
                              Mutation::DefineRegions(
                                  "a", RegionSet{Region{shift, shift + 4}}))
                    .ok());
    EXPECT_TRUE(ApplyMutation(&instance,
                              Mutation::DefineRegions(
                                  "b", RegionSet{Region{shift + 6,
                                                        shift + 9}}))
                    .ok());
    return instance;
  };
  Instance v1 = build("alpha beta gamma", 0);
  Instance v2 = build("delta beta omega", 6);
  const std::string p1 = dir + "/v1.regal";
  const std::string p2 = dir + "/v2.regal";
  ASSERT_TRUE(storage::SaveSnapshotToFile(v1, p1, env).ok());
  ASSERT_TRUE(storage::SaveSnapshotToFile(v2, p2, env).ok());
  const RegionSet answer1 = **v1.Get("a");
  const RegionSet answer2 = **v2.Get("a");

  QueryEngine engine(v1.Clone());
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  // Simple operators only (union) — the extended operators build a lazy
  // tree that is not part of this harness's contract.
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto answer = engine.Run("a | a");
        if (!answer.ok() ||
            (answer->regions != answer1 && answer->regions != answer2)) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(engine.ReloadSnapshot(i % 2 == 0 ? p2 : p1, env).ok());
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0);
}

// --- Crash-loop chaos matrix ----------------------------------------------

// One scripted run against a fault env: open the store, journal `mutations`
// one by one (checkpointing after `checkpoint_after` of them), tracking the
// oracle state of every *acknowledged* mutation. Stops at the first error
// (the armed crash). Returns how many mutations were acknowledged.
int RunChaosScript(FaultInjectionEnv* env, const std::string& dir,
                   const std::vector<Mutation>& mutations,
                   int checkpoint_after, Instance* oracle) {
  DurableOptions options;
  options.retry.max_attempts = 1;  // A crashed env never recovers mid-run.
  options.checkpoint_every_records = 0;
  Instance opened;
  auto store = DurableStore::Open(env, dir, options, &opened);
  if (!store.ok()) return 0;
  Instance live = std::move(opened);
  int acked = 0;
  for (size_t i = 0; i < mutations.size(); ++i) {
    if (!(*store)->Journal(mutations[i]).ok()) return acked;
    EXPECT_TRUE(ApplyMutation(&live, mutations[i]).ok());
    EXPECT_TRUE(ApplyMutation(oracle, mutations[i]).ok());
    ++acked;
    if (static_cast<int>(i) + 1 == checkpoint_after) {
      // A checkpoint failure is not a loss — the WAL still has everything.
      (void)(*store)->Checkpoint(live);
    }
  }
  (void)(*store)->Close();
  return acked;
}

std::vector<Mutation> ChaosMutations(uint64_t seed, int n) {
  Rng rng(seed);
  Instance state;
  std::vector<Mutation> mutations;
  for (int i = 0; i < n; ++i) {
    Mutation m = RandomMutation(&rng, state);
    EXPECT_TRUE(ApplyMutation(&state, m).ok());
    mutations.push_back(std::move(m));
  }
  return mutations;
}

// Reopens after a crash and requires the recovered catalog bit-identical
// to the acknowledged oracle — and a query answer to match it.
void VerifyRecovered(FaultInjectionEnv* env, const std::string& dir,
                     const Instance& oracle, const std::string& context) {
  DurableOptions options;
  Instance recovered;
  auto store = DurableStore::Open(env, dir, options, &recovered);
  ASSERT_TRUE(store.ok()) << context << ": " << store.status();
  EXPECT_EQ(CatalogBytes(recovered), CatalogBytes(oracle)) << context;
  // Spot-check through the query engine: answers, not just bytes.
  if (oracle.Has("r0")) {
    QueryEngine got(recovered.Clone());
    QueryEngine want(oracle.Clone());
    auto got_answer = got.Run("r0 | r0");
    auto want_answer = want.Run("r0 | r0");
    ASSERT_TRUE(got_answer.ok() && want_answer.ok()) << context;
    EXPECT_EQ(got_answer->regions, want_answer->regions) << context;
  }
  EXPECT_TRUE((*store)->Close().ok()) << context;
}

TEST(RecoveryCrashTest, CrashMatrixLosesNoAcknowledgedMutation) {
  const std::vector<Mutation> mutations = ChaosMutations(0xc4a5, 6);
  const int checkpoint_after = 3;

  // Dry run to size the matrix: every mutating env op is a kill point.
  int64_t total_ops = 0;
  {
    const std::string dir = MakeStoreDir("crash_dry");
    FaultInjectionEnv env;
    Instance oracle;
    EXPECT_EQ(RunChaosScript(&env, dir, mutations, checkpoint_after, &oracle),
              static_cast<int>(mutations.size()));
    total_ops = env.op_count();
  }
  ASSERT_GE(total_ops, 20);

  for (int64_t kill = 0; kill < total_ops; ++kill) {
    for (uint64_t torn : {uint64_t{0}, uint64_t{1}, uint64_t{7}}) {
      for (bool renames_survive : {false, true}) {
        const std::string context =
            "kill=" + std::to_string(kill) + " torn=" + std::to_string(torn) +
            " renames=" + std::to_string(renames_survive);
        const std::string dir = MakeStoreDir("crash_matrix");
        FaultInjectionEnv env;
        env.CrashAfterOps(kill, torn);
        Instance oracle;
        RunChaosScript(&env, dir, mutations, checkpoint_after, &oracle);
        ASSERT_TRUE(env.crashed()) << context;
        ASSERT_TRUE(env.Recover(renames_survive).ok()) << context;
        VerifyRecovered(&env, dir, oracle, context);
      }
    }
  }
}

TEST(RecoveryCrashTest, CrashWithBitflipInTornTailStillLosesNothing) {
  const std::vector<Mutation> mutations = ChaosMutations(0xb1f1, 5);
  const size_t iters = FuzzIterations(120);
  for (size_t iter = 0; iter < iters; ++iter) {
    Rng rng(0xb1f2 + iter);
    const std::string dir = MakeStoreDir("crash_bitflip");
    FaultInjectionEnv env;
    const int64_t kill = static_cast<int64_t>(rng.Between(1, 40));
    env.CrashAfterOps(kill, rng.Below(9));
    Instance oracle;
    RunChaosScript(&env, dir, mutations, /*checkpoint_after=*/3, &oracle);
    if (!env.crashed()) continue;  // Script finished before the kill point.
    ASSERT_TRUE(env.Recover(rng.Chance(0.5)).ok());
    // Simulate a torn tail whose bytes additionally rotted: append a whole,
    // never-acknowledged frame to whatever WAL the crash left behind and
    // flip one of its bits. CRC32C detects every single-bit flip, so replay
    // must drop it and recover exactly the acknowledged prefix.
    storage::Env* base = storage::Env::Default();
    const std::string wal_path = dir + "/wal.log";
    if (base->FileExists(wal_path)) {
      std::string bytes = *base->ReadFileToString(wal_path);
      auto pre = ReadWalBytes(bytes);
      if (pre.ok()) {
        std::string frame = *EncodeWalRecord(
            pre->last_lsn + 1, Mutation::BindText("never acknowledged"));
        const size_t flip = static_cast<size_t>(rng.Below(frame.size() * 8));
        frame[flip / 8] =
            static_cast<char>(frame[flip / 8] ^ (1 << (flip % 8)));
        auto file = base->NewWritableFile(wal_path);
        ASSERT_TRUE(file.ok());
        ASSERT_TRUE((*file)->Append(bytes + frame).ok());
        ASSERT_TRUE((*file)->Close().ok());
      }
    }
    VerifyRecovered(&env, dir, oracle,
                    "iter=" + std::to_string(iter));
  }
}

TEST(RecoveryCrashTest, RandomizedCrashLoopFuzz) {
  const size_t iters = FuzzIterations(150);
  for (size_t iter = 0; iter < iters; ++iter) {
    Rng rng(0x10af + iter * 2654435761u);
    const std::vector<Mutation> mutations =
        ChaosMutations(rng.Next(), static_cast<int>(rng.Between(1, 8)));
    const int checkpoint_after =
        static_cast<int>(rng.Below(mutations.size() + 1));
    const std::string dir = MakeStoreDir("crash_fuzz");
    FaultInjectionEnv env;
    const int64_t kill = static_cast<int64_t>(rng.Between(0, 60));
    const uint64_t torn = rng.Below(12);
    env.CrashAfterOps(kill, torn);
    Instance oracle;
    const int acked =
        RunChaosScript(&env, dir, mutations, checkpoint_after, &oracle);
    // Recover unconditionally: it also disarms the kill point, which would
    // otherwise fire mid-verification when the script finished early.
    const bool renames_survive = rng.Chance(0.5);
    ASSERT_TRUE(env.Recover(renames_survive).ok());
    VerifyRecovered(&env, dir, oracle,
                    "iter=" + std::to_string(iter) + " n=" +
                        std::to_string(mutations.size()) + " ck=" +
                        std::to_string(checkpoint_after) + " kill=" +
                        std::to_string(kill) + " torn=" +
                        std::to_string(torn) + " renames=" +
                        std::to_string(renames_survive) + " acked=" +
                        std::to_string(acked));
  }
}


// Under SyncPolicy::kNever a checkpoint can start with only part of the
// journal durable: here lsn 1 (a = A1) is synced by a clean close, while
// lsn 2 (a = A2) and lsn 3 (define b) sit unsynced in the writer's buffer.
// Whatever op of the script the crash lands on, recovery must yield a
// prefix of the journal that keeps every synced record — never the synced
// prefix replayed over a snapshot that already holds the rest, which gives
// {a = A1, b = B1}, a state that never existed.
TEST(RecoveryCrashTest, UnsyncedTailCrashMidCheckpointRecoversAPrefix) {
  const std::vector<Mutation> journal = {
      Mutation::DefineRegions("a", RegionSet{Region{0, 4}}),
      Mutation::ReplaceRegions("a", RegionSet{Region{5, 9}}),
      Mutation::DefineRegions("b", RegionSet{Region{10, 14}}),
  };
  // prefixes[k]: the catalog after the first k records.
  std::vector<std::string> prefixes;
  Instance state;
  prefixes.push_back(CatalogBytes(state));
  for (const Mutation& m : journal) {
    ASSERT_TRUE(ApplyMutation(&state, m).ok());
    prefixes.push_back(CatalogBytes(state));
  }
  DurableOptions options;
  options.wal.sync = SyncPolicy::kNever;
  options.retry.max_attempts = 1;  // A crashed env never recovers mid-run.
  options.checkpoint_every_records = 0;
  // Runs the script until the crash; returns how many leading records were
  // durable by then.
  auto run = [&](FaultInjectionEnv* env, const std::string& dir) -> size_t {
    {
      Instance opened;
      auto store = DurableStore::Open(env, dir, options, &opened);
      if (!store.ok() || !(*store)->Journal(journal[0]).ok() ||
          !(*store)->Close().ok()) {
        return 0;
      }
    }
    Instance live;
    auto store = DurableStore::Open(env, dir, options, &live);
    if (!store.ok()) return 1;
    for (size_t i = 1; i < journal.size(); ++i) {
      if (!(*store)->Journal(journal[i]).ok()) return 1;
      EXPECT_TRUE(ApplyMutation(&live, journal[i]).ok());
    }
    return (*store)->Checkpoint(live).ok() ? journal.size() : 1;
  };

  int64_t total_ops = 0;
  {
    FaultInjectionEnv env;
    ASSERT_EQ(run(&env, MakeStoreDir("unsynced_dry")), journal.size());
    total_ops = env.op_count();
  }
  for (int64_t kill = 0; kill < total_ops; ++kill) {
    for (bool renames_survive : {false, true}) {
      const std::string context = "kill=" + std::to_string(kill) +
                                  " renames=" +
                                  std::to_string(renames_survive);
      const std::string dir = MakeStoreDir("unsynced_checkpoint");
      FaultInjectionEnv env;
      env.CrashAfterOps(kill);
      const size_t synced = run(&env, dir);
      ASSERT_TRUE(env.crashed()) << context;
      ASSERT_TRUE(env.Recover(renames_survive).ok()) << context;
      Instance recovered;
      auto store = DurableStore::Open(&env, dir, options, &recovered);
      ASSERT_TRUE(store.ok()) << context << ": " << store.status();
      EXPECT_NE(std::find(prefixes.begin() + static_cast<ptrdiff_t>(synced),
                          prefixes.end(), CatalogBytes(recovered)),
                prefixes.end())
          << context << " synced=" << synced;
    }
  }
}

}  // namespace
}  // namespace recovery
}  // namespace regal
