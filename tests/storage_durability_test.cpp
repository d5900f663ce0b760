// Durability harnesses for the snapshot storage engine (storage/env.h,
// storage/snapshot.h, storage/fault_env.h):
//
//  * a crash-consistency matrix — kill the writer at every syscall
//    boundary of the atomic write protocol, with and without torn tails,
//    with the un-fsynced rename landing on either side of the crash — and
//    assert a reader always sees exactly the last committed snapshot;
//  * a deterministic corruption fuzzer — bit flips, truncations and
//    splices against REGAL2 bytes must surface as kDataLoss (never a
//    silently wrong instance, never a crash or unbounded allocation);
//  * typed-failure injection through the REGAL_FAILPOINTS registry
//    (ENOSPC, EIO, short writes, silent bit flips);
//  * the shared payload decoders (storage/wire.h): one kDataLoss case per
//    malformed class, which the CRC-guarded fuzzers cannot reach;
//  * the cache-interaction invariant: reloading a snapshot swaps in a
//    fresh instance identity, so result-cache entries can never serve
//    answers from the pre-reload catalog.
//
// Tests whose names contain "Crash" also carry the ctest label `crash`
// (see tests/CMakeLists.txt); the whole binary is labeled `storage`. The
// fuzzers honor REGAL_FUZZ_ITERS so CI smoke runs can bound them.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "doc/sgml.h"
#include "doc/synthetic.h"
#include "query/engine.h"
#include "regal1_fixtures.h"
#include "safety/failpoint.h"
#include "storage/checksum.h"
#include "storage/compress.h"
#include "storage/env.h"
#include "storage/fault_env.h"
#include "storage/serialize.h"
#include "storage/snapshot.h"
#include "storage/wire.h"
#include "util/random.h"

namespace regal {
namespace storage {
namespace {

// A text-backed instance with region sets and a synthetic pattern, so every
// REGAL2 section kind appears in the file. `variant` changes the content so
// distinct snapshots have distinct bytes.
Instance MakeCatalog(int variant) {
  std::string source = "<doc><sec>alpha beta</sec><sec>gamma";
  for (int i = 0; i < variant; ++i) source += " delta";
  source += "</sec></doc>";
  auto instance = ParseSgml(source);
  EXPECT_TRUE(instance.ok()) << instance.status();
  Pattern p = *Pattern::Parse("q*");
  instance->SetSyntheticPattern(p, RegionSet{(**instance->Get("sec"))[0]});
  return std::move(*instance);
}

std::string SnapshotBytes(const Instance& instance) {
  auto encoded = EncodeSnapshot(instance);
  EXPECT_TRUE(encoded.ok()) << encoded.status();
  return *encoded;
}

std::string TestPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string ReadAll(const std::string& path) {
  auto bytes = Env::Default()->ReadFileToString(path);
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  return bytes.ok() ? *bytes : std::string();
}

void RemoveIfExists(const std::string& path) {
  Env* env = Env::Default();
  if (env->FileExists(path)) {
    ASSERT_TRUE(env->RemoveFile(path).ok());
  }
}

size_t FuzzIterations(size_t fallback) {
  const char* spec = std::getenv("REGAL_FUZZ_ITERS");
  if (spec == nullptr || *spec == '\0') return fallback;
  return static_cast<size_t>(std::strtoull(spec, nullptr, 10));
}

// Arms one failpoint for the current scope; disarms everything on exit so a
// failing test cannot leak injection into its neighbors.
class ScopedFailpoint {
 public:
  explicit ScopedFailpoint(const char* name) {
    safety::FailpointRegistry::Default().Arm(name);
  }
  ~ScopedFailpoint() { safety::FailpointRegistry::Default().DisarmAll(); }
};

// --- Crash-consistency matrix -------------------------------------------

// Counts the mutating env ops one atomic snapshot save performs, so the
// matrix below can place a kill point at every single one.
int64_t OpsPerSave(const Instance& instance, const std::string& path) {
  FaultInjectionEnv env;
  EXPECT_TRUE(SaveSnapshotToFile(instance, path, &env).ok());
  return env.op_count();
}

TEST(StorageCrashTest, CrashMatrixAlwaysYieldsLastCommittedSnapshot) {
  const Instance a = MakeCatalog(1);
  const Instance b = MakeCatalog(7);
  const std::string a_bytes = SnapshotBytes(a);
  const std::string b_bytes = SnapshotBytes(b);
  ASSERT_NE(a_bytes, b_bytes);
  const std::string path = TestPath("crash_matrix.regal2");
  RemoveIfExists(path);
  RemoveIfExists(AtomicTempPath(path));

  const int64_t ops = OpsPerSave(b, path);
  // open, >=1 append, fsync, close, rename, dir fsync.
  ASSERT_GE(ops, 6);

  for (int64_t kill = 0; kill < ops; ++kill) {
    for (uint64_t torn : {uint64_t{0}, uint64_t{1}, uint64_t{7}}) {
      for (bool renames_survive : {false, true}) {
        SCOPED_TRACE("kill=" + std::to_string(kill) +
                     " torn=" + std::to_string(torn) +
                     " renames_survive=" + std::to_string(renames_survive));
        // Committed state: snapshot A.
        ASSERT_TRUE(SaveSnapshotToFile(a, path).ok());

        FaultInjectionEnv env;
        env.CrashAfterOps(kill, torn);
        Status died = SaveSnapshotToFile(b, path, &env);
        ASSERT_FALSE(died.ok());
        ASSERT_TRUE(env.crashed());
        ASSERT_TRUE(env.Recover(renames_survive).ok());

        // The disk now holds exactly A or exactly B — never a prefix, a
        // hybrid, or nothing (A was committed).
        const std::string on_disk = ReadAll(path);
        EXPECT_TRUE(on_disk == a_bytes || on_disk == b_bytes)
            << "torn/hybrid snapshot of " << on_disk.size() << " bytes";
        // And it loads cleanly through the full reader stack.
        auto loaded = LoadSnapshotFromFile(path);
        ASSERT_TRUE(loaded.ok()) << loaded.status();
        EXPECT_EQ(SnapshotBytes(*loaded), on_disk);
        // The crash may strand a temp file; the next save must absorb it.
        RemoveIfExists(AtomicTempPath(path));
      }
    }
  }
}

TEST(StorageCrashTest, CrashOnFirstSaveYieldsSnapshotOrNotFound) {
  const Instance b = MakeCatalog(3);
  const std::string b_bytes = SnapshotBytes(b);
  const std::string path = TestPath("crash_first_save.regal2");

  RemoveIfExists(path);
  RemoveIfExists(AtomicTempPath(path));
  const int64_t ops = OpsPerSave(b, path);
  ASSERT_GE(ops, 6);

  for (int64_t kill = 0; kill < ops; ++kill) {
    for (bool renames_survive : {false, true}) {
      SCOPED_TRACE("kill=" + std::to_string(kill) +
                   " renames_survive=" + std::to_string(renames_survive));
      RemoveIfExists(path);
      RemoveIfExists(AtomicTempPath(path));

      FaultInjectionEnv env;
      env.CrashAfterOps(kill);
      ASSERT_FALSE(SaveSnapshotToFile(b, path, &env).ok());
      ASSERT_TRUE(env.Recover(renames_survive).ok());

      // Before the first commit there is nothing to fall back to: a reader
      // sees a typed NotFound — or the complete snapshot, never a torn one.
      auto loaded = LoadSnapshotFromFile(path);
      if (loaded.ok()) {
        EXPECT_EQ(ReadAll(path), b_bytes);
      } else {
        EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound)
            << loaded.status();
      }
    }
  }
}

TEST(StorageCrashTest, OrphanTempFileIsAbsorbedByNextSave) {
  const Instance a = MakeCatalog(2);
  const std::string path = TestPath("orphan_tmp.regal2");
  RemoveIfExists(path);

  // A crashed writer left a half-written temp file behind.
  Env* env = Env::Default();
  auto tmp = env->NewWritableFile(AtomicTempPath(path));
  ASSERT_TRUE(tmp.ok());
  ASSERT_TRUE((*tmp)->Append("garbage from a dead writer").ok());
  ASSERT_TRUE((*tmp)->Close().ok());

  ASSERT_TRUE(SaveSnapshotToFile(a, path).ok());
  EXPECT_FALSE(env->FileExists(AtomicTempPath(path)));
  auto loaded = LoadSnapshotFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(SnapshotBytes(*loaded), SnapshotBytes(a));
}

// --- Typed syscall failures ---------------------------------------------

TEST(StorageFaultTest, InjectedFailuresAreTypedAndLeaveDestinationIntact) {
  const Instance a = MakeCatalog(1);
  const Instance b = MakeCatalog(5);
  const std::string a_bytes = SnapshotBytes(a);
  const std::string path = TestPath("typed_failures.regal2");
  ASSERT_TRUE(SaveSnapshotToFile(a, path).ok());

  struct Case {
    const char* failpoint;
    StatusCode expected;
  };
  const Case cases[] = {
      {kFailpointOpenEio, StatusCode::kInternal},
      {kFailpointWriteEio, StatusCode::kInternal},
      {kFailpointWriteEnospc, StatusCode::kResourceExhausted},
      {kFailpointWriteShort, StatusCode::kInternal},
      {kFailpointSyncEio, StatusCode::kInternal},
      {kFailpointRenameEio, StatusCode::kInternal},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.failpoint);
    ScopedFailpoint armed(c.failpoint);
    FaultInjectionEnv env;
    Status status = SaveSnapshotToFile(b, path, &env);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), c.expected) << status;
    EXPECT_EQ(ReadAll(path), a_bytes) << "failed save touched the destination";
  }
}

TEST(StorageFaultTest, SilentBitFlipAtWriteTimeIsCaughtAtLoadTime) {
  const Instance b = MakeCatalog(4);
  const std::string path = TestPath("bitflip.regal2");
  RemoveIfExists(path);

  // The write path reports success — the flipped bit is invisible until a
  // reader checks the section CRCs. This is the failure REGAL1 cannot see.
  {
    ScopedFailpoint armed(kFailpointWriteBitflip);
    FaultInjectionEnv env;
    ASSERT_TRUE(SaveSnapshotToFile(b, path, &env).ok());
  }
  auto loaded = LoadSnapshotFromFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss) << loaded.status();
}

// --- Failure taxonomy ----------------------------------------------------

TEST(StorageFaultTest, TruncationAndCorruptionAreDistinguished) {
  const std::string bytes = SnapshotBytes(MakeCatalog(2));

  // A torn tail (crash) reads as truncation...
  auto torn = DecodeSnapshot(std::string_view(bytes).substr(
      0, bytes.size() - 5));
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(torn.status().message().find("truncated"), std::string::npos)
      << torn.status();

  // ...while a mid-file flip (bit rot) reads as a checksum mismatch.
  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x01;
  auto rotted = DecodeSnapshot(flipped);
  ASSERT_FALSE(rotted.ok());
  EXPECT_EQ(rotted.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(rotted.status().message().find("checksum mismatch"),
            std::string::npos)
      << rotted.status();

  // A file that is not a snapshot at all is data loss with its own message.
  auto alien = DecodeSnapshot("definitely not a snapshot");
  ASSERT_FALSE(alien.ok());
  EXPECT_EQ(alien.status().code(), StatusCode::kDataLoss);
}

// --- Corruption fuzzers ---------------------------------------------------

// One deterministic mutation of `original`: bit flips (single and
// scattered), byte overwrites, truncations, same-length splices and
// structural chunk erase/duplicate — the byte-level damage profile of bad
// disks, torn transfers and buggy copy tools.
std::string Mutate(const std::string& original, Rng& rng) {
  std::string m = original;
  if (m.empty()) return m;
  switch (rng.Below(6)) {
    case 0:
      m[rng.Below(m.size())] ^= static_cast<char>(1 << rng.Below(8));
      break;
    case 1: {
      const int flips = 2 + static_cast<int>(rng.Below(7));
      for (int i = 0; i < flips; ++i) {
        m[rng.Below(m.size())] ^= static_cast<char>(1 << rng.Below(8));
      }
      break;
    }
    case 2:
      m[rng.Below(m.size())] = static_cast<char>(rng.Below(256));
      break;
    case 3:
      m.resize(rng.Below(m.size() + 1));
      break;
    case 4: {
      // Same-length splice: a chunk lands over another offset, as when a
      // block device writes a sector to the wrong place.
      const size_t len = 1 + rng.Below(std::min<size_t>(64, m.size()));
      const size_t src = rng.Below(m.size() - len + 1);
      const size_t dst = rng.Below(m.size() - len + 1);
      m.replace(dst, len, m, src, len);
      break;
    }
    case 5: {
      // Structural splice: erase or duplicate a chunk (length changes).
      const size_t len = 1 + rng.Below(std::min<size_t>(64, m.size()));
      const size_t at = rng.Below(m.size() - len + 1);
      if (rng.Chance(0.5)) {
        m.erase(at, len);
      } else {
        m.insert(at, m, at, len);
      }
      break;
    }
  }
  return m;
}

TEST(StorageFuzzTest, MutatedRegal2NeverLoadsSilently) {
  const std::string original = SnapshotBytes(MakeCatalog(3));
  const size_t iters = FuzzIterations(10000);
  size_t rejected = 0;
  for (size_t i = 0; i < iters; ++i) {
    Rng rng(0x5eed + i);
    const std::string mutated = Mutate(original, rng);
    auto decoded = DecodeSnapshot(mutated);
    if (mutated == original) {
      // The mutation happened to be an identity (e.g. truncate-at-end);
      // the unchanged bytes must still round-trip bit-identically.
      ASSERT_TRUE(decoded.ok()) << decoded.status();
      EXPECT_EQ(SnapshotBytes(*decoded), original);
      continue;
    }
    // Every real mutation must surface as typed data loss: the framing
    // CRCs cover each section and the footer CRC covers the whole body, so
    // no flip, truncation or splice can be silently accepted.
    ASSERT_FALSE(decoded.ok())
        << "iteration " << i << " silently accepted corrupt bytes";
    ASSERT_EQ(decoded.status().code(), StatusCode::kDataLoss)
        << "iteration " << i << ": " << decoded.status();
    ++rejected;
  }
  EXPECT_GT(rejected, iters / 2);  // The identity mutations are rare.
}

TEST(StorageFuzzTest, EverySingleBitFlipIsDetected) {
  // Exhaustive, not sampled: a snapshot where *every* bit of the file has
  // been individually flipped, and every flip must read as data loss. This
  // is the strongest statement the format makes — there is no unprotected
  // byte anywhere in a REGAL2 file.
  Instance small;
  ASSERT_TRUE(
      small.AddRegionSet("w", RegionSet{Region{0, 3}, Region{5, 9}}).ok());
  const std::string bytes = SnapshotBytes(small);
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = bytes;
      flipped[byte] ^= static_cast<char>(1 << bit);
      auto decoded = DecodeSnapshot(flipped);
      ASSERT_FALSE(decoded.ok())
          << "flip of bit " << bit << " in byte " << byte << " was accepted";
      ASSERT_EQ(decoded.status().code(), StatusCode::kDataLoss)
          << "byte " << byte << " bit " << bit << ": " << decoded.status();
    }
  }
}

TEST(StorageFuzzTest, MutatedRegal1NeverCrashesTheLoader) {
  // REGAL1 has no checksums, so corruption that still parses loads silently
  // — that's why REGAL2 exists. What the legacy loader must still guarantee
  // is memory safety: no crash, no hang, and no allocation driven by a
  // corrupt declared count (the memory-bomb caps in storage/serialize.cc).
  // The seed is MakeCatalog(3) as the retired REGAL1 writer stored it.
  const std::string original = Regal1Fixture("catalog.regal1");
  ASSERT_EQ(original.rfind("REGAL1\n", 0), 0u);
  const size_t iters = FuzzIterations(10000) / 5;
  for (size_t i = 0; i < iters; ++i) {
    Rng rng(0xbeef + i);
    std::istringstream in(Mutate(original, rng));
    auto loaded = LoadInstance(in);  // ok or error: both acceptable.
    (void)loaded;
  }
}

// --- Checksums ------------------------------------------------------------

TEST(StorageChecksumTest, MatchesKnownCrc32cVectors) {
  // RFC 3720 test vectors — these pin the polynomial and bit order, and
  // validate whichever implementation (SSE4.2 or slice-by-8) the runtime
  // dispatch selected on this machine.
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0x00000000u);
  EXPECT_EQ(Crc32c(std::string(32, '\0')), 0x8A9136AAu);
  EXPECT_EQ(Crc32c(std::string(32, '\xff')), 0x62A8AB43u);
  // Incremental == one-shot across unaligned split points.
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t crc = Crc32cExtend(0, data.data(), split);
    crc = Crc32cExtend(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, Crc32c(data)) << "split at " << split;
  }
}

// --- The text LZ codec ----------------------------------------------------

TEST(StorageCompressTest, RoundTripsDiverseInputs) {
  std::vector<std::string> inputs = {
      "",
      "a",
      "abc",
      "abcd",
      std::string(100000, 'z'),  // Long run: overlapping matches.
      "the cat sat on the mat and the cat sat on the hat",
  };
  // Random binary (incompressible) and structured (compressible) inputs of
  // many sizes, including ones whose final token is literals-only.
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    std::string random;
    std::string structured;
    const size_t size = rng.Below(5000);
    for (size_t i = 0; i < size; ++i) {
      random.push_back(static_cast<char>(rng.Below(256)));
      structured.push_back(static_cast<char>('a' + rng.Below(4)));
    }
    inputs.push_back(random);
    inputs.push_back(structured);
  }
  for (const std::string& input : inputs) {
    const std::string compressed = LzCompress(input);
    auto decompressed = LzDecompress(compressed, input.size());
    ASSERT_TRUE(decompressed.ok())
        << decompressed.status() << " for input of " << input.size();
    EXPECT_EQ(*decompressed, input) << "input of " << input.size();
  }
}

TEST(StorageCompressTest, CompressesRealCorpusText) {
  const Instance catalog = MakeCatalog(0);
  const std::string& content = catalog.text()->content();
  const std::string compressed = LzCompress(content);
  EXPECT_LT(compressed.size(), content.size());
}

TEST(StorageCompressTest, RejectsImpossibleExpansionClaims) {
  // A crafted header cannot drive a multi-gigabyte allocation from a tiny
  // stream: the expansion bound fails first, before any reserve.
  auto bomb = LzDecompress("xy", uint64_t{1} << 40);
  ASSERT_FALSE(bomb.ok());
  EXPECT_EQ(bomb.status().code(), StatusCode::kDataLoss);
}

TEST(StorageCompressTest, MutatedStreamsNeverCrashTheDecoder) {
  const std::string original =
      LzCompress(MakeCatalog(2).text()->content());
  const uint64_t raw_size = MakeCatalog(2).text()->content().size();
  const size_t iters = FuzzIterations(10000) / 5;
  for (size_t i = 0; i < iters; ++i) {
    Rng rng(0xc0de + i);
    const std::string mutated = Mutate(original, rng);
    // Inside a snapshot the section CRC rejects these before decompression
    // ever runs; the decoder must still be memory-safe on its own — every
    // outcome is acceptable except a crash, overrun or unbounded allocation.
    auto decoded = LzDecompress(mutated, raw_size);
    if (decoded.ok()) {
      EXPECT_EQ(decoded->size(), raw_size);
    }
  }
}

// --- The shared payload codec (storage/wire.h) ----------------------------

// A named-region payload with a hand-written region body, for the
// malformed cases.
std::string RegionPayload(std::string_view name, uint64_t count,
                          std::string_view body) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(name.size()));
  out.append(name);
  PutU64(&out, count);
  out.append(body);
  return out;
}

std::string TextPayload(char codec, uint64_t raw_size, std::string_view body) {
  std::string out(1, codec);
  PutU64(&out, raw_size);
  out.append(body);
  return out;
}

TEST(StorageWireTest, PayloadsRoundTrip) {
  const std::vector<std::pair<std::string, RegionSet>> lists = {
      {"", RegionSet{}},
      {"sec", RegionSet{Region{-5, 3}, Region{0, 10}, Region{7, 7},
                        Region{100, 70000}}},
      {"p:alp*", RegionSet{Region{INT32_MIN, INT32_MAX}}},
  };
  for (const auto& [name, regions] : lists) {
    std::string payload;
    EncodeNamedRegions(&payload, name, regions);
    std::string got_name = "stale";
    RegionSet got;
    ASSERT_TRUE(DecodeNamedRegions(payload, &got_name, &got).ok()) << name;
    EXPECT_EQ(got_name, name);
    EXPECT_EQ(got, regions) << name;
  }
  // Codec 1 only when LZ is strictly smaller; stored otherwise.
  const std::vector<std::pair<std::string, char>> texts = {
      {"", '\x00'},
      {"ab", '\x00'},
      {"alpha beta alpha beta alpha beta alpha beta", '\x01'},
  };
  for (const auto& [text, codec] : texts) {
    std::string payload;
    EncodeText(&payload, text);
    EXPECT_EQ(payload[0], codec) << text;
    std::string got = "stale";
    ASSERT_TRUE(DecodeText(payload, &got).ok()) << text;
    EXPECT_EQ(got, text);
  }
}

// One case per malformed class; `why` is a fragment of the message that
// class must produce, so no case passes by tripping an earlier check.
TEST(StorageWireTest, EveryMalformedPayloadIsDataLoss) {
  auto region_list = [](const std::string& payload, const std::string& why) {
    std::string name;
    RegionSet regions;
    const Status status = DecodeNamedRegions(payload, &name, &regions);
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << why << ": " << status;
    EXPECT_NE(status.message().find(why), std::string::npos) << status;
  };
  region_list("abc", "shorter than its name length");
  std::string overrun;
  PutU32(&overrun, 100);
  overrun += "short name and no count";
  region_list(overrun, "name overruns");
  region_list(RegionPayload("r", 3, std::string(5, '\0')), "count exceeds");
  region_list(RegionPayload("r", 1, "\x80\x80"), "truncated region varints");
  // Left delta zigzag(2^31) = 2^32: a left one past INT32_MAX.
  region_list(RegionPayload("r", 1, std::string("\x80\x80\x80\x80\x10\x00", 6)),
              "offset out of range");
  // Left 10 (zigzag 20), width -1 (zigzag 1).
  region_list(RegionPayload("r", 1, "\x14\x01"), "left > right");
  region_list(RegionPayload("r", 1, std::string("\x14\x02\x00", 3)),
              "trailing bytes");

  auto text = [](const std::string& payload, const std::string& why) {
    std::string out;
    const Status status = DecodeText(payload, &out);
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << why << ": " << status;
    EXPECT_NE(status.message().find(why), std::string::npos) << status;
  };
  text(std::string("\x00\x01", 2), "shorter than its header");
  text(TextPayload('\x02', 0, ""), "unknown text codec");
  text(TextPayload('\x00', 5, "abc"), "stored text size");
  // A stream long enough that only the INT32_MAX cap, not the LZ
  // expansion bound, refuses the claimed size.
  text(TextPayload('\x01', uint64_t{INT32_MAX} + 1, std::string(1 << 24, 'x')),
       "text size out of range");
  text(TextPayload('\x01', 4, "\x40"), "lz stream");
}

// --- Cache interaction on reload ------------------------------------------

TEST(StorageReloadTest, ReloadedSnapshotCanNeverServeStaleCachedAnswers) {
  // The reindex-and-swap workflow: an engine answers queries (and caches
  // results) over catalog v1, then v2 is committed and reloaded in place.
  Instance v1;
  ASSERT_TRUE(v1.AddRegionSet("w", RegionSet{Region{0, 1}}).ok());
  Instance v2;
  ASSERT_TRUE(
      v2.AddRegionSet("w", RegionSet{Region{0, 1}, Region{4, 5}}).ok());

  const std::string path = TestPath("reload_epoch.regal2");
  ASSERT_TRUE(SaveSnapshotToFile(v2, path).ok());

  QueryEngine engine(std::move(v1));
  const uint64_t id_before = engine.instance().id();
  // Warm the result cache on the v1 catalog.
  for (int i = 0; i < 2; ++i) {
    auto answer = engine.Run("w");
    ASSERT_TRUE(answer.ok()) << answer.status();
    EXPECT_EQ(answer->regions.size(), 1u);
  }
  // A view defined against v1 must not survive the swap either.
  ASSERT_TRUE(engine.DefineView("v", "w").ok());

  ASSERT_TRUE(engine.ReloadSnapshot(path).ok());

  // Fresh identity: cached (id, epoch) keys from v1 are unreachable.
  EXPECT_NE(engine.instance().id(), id_before);
  auto fresh = engine.Run("w");
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_EQ(fresh->regions.size(), 2u)
      << "reload served a stale cached answer";
  auto dead_view = engine.Run("v");
  EXPECT_FALSE(dead_view.ok());
  EXPECT_EQ(dead_view.status().code(), StatusCode::kNotFound);
}

TEST(StorageReloadTest, EngineSaveAndOpenRoundTrip) {
  Instance catalog = MakeCatalog(2);
  const std::string expected = SnapshotBytes(catalog);
  QueryEngine engine(std::move(catalog));
  const std::string path = TestPath("engine_roundtrip.regal2");
  ASSERT_TRUE(engine.SaveSnapshot(path).ok());

  auto reopened = QueryEngine::OpenSnapshot(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(SnapshotBytes(reopened->instance()), expected);
  auto answer = reopened->Run("sec matching \"gamma\"");
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->regions.size(), 1u);

  // A failed reload leaves the engine untouched and answering.
  ASSERT_FALSE(
      reopened->ReloadSnapshot(path + ".does-not-exist").ok());
  auto still = reopened->Run("sec");
  ASSERT_TRUE(still.ok()) << still.status();
}

}  // namespace
}  // namespace storage
}  // namespace regal
