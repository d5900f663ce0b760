// Experiment: durability must not price snapshots out of use. The REGAL2
// write path carries framing CRCs, a whole-file checksum and the atomic
// temp+fsync+rename protocol; this bench measures each layer:
//
//   BM_SaveRegal2        REGAL2 binary + checksums + atomic commit
//   BM_EncodeRegal2 /    serialization alone (no filesystem), isolating
//   BM_DecodeRegal2      the format cost from the fsync cost
//   BM_LoadRegal2        the read path, with full checksum verification
//   BM_Crc32c            raw checksum throughput (bytes_per_second)
//
// The acceptance bar was BM_SaveRegal2 within ~10% of the pre-durability
// REGAL1 stream write on the largest bench corpus; BENCH_storage.json
// holds that comparison. REGAL1 is read-only now (storage/serialize.h),
// so its save variants are gone from this bench.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>

#include "bench_report.h"
#include "doc/dictionary.h"
#include "doc/sgml.h"
#include "storage/checksum.h"
#include "storage/snapshot.h"

namespace regal {
namespace {

// The largest corpus the benches use: a 2000-entry dictionary (~1 MB of
// text plus several hundred thousand regions).
Instance MakeCorpus() {
  DictionaryGeneratorOptions options;
  options.entries = 2000;
  auto instance = ParseSgml(GenerateDictionarySource(options));
  if (!instance.ok()) std::abort();
  return std::move(*instance);
}

std::string BenchPath(const char* name) {
  const char* tmpdir = std::getenv("TMPDIR");
  return std::string(tmpdir != nullptr ? tmpdir : "/tmp") + "/" + name;
}

void BM_SaveRegal2(benchmark::State& state) {
  const Instance corpus = MakeCorpus();
  const std::string path = BenchPath("bench_regal2.regal2");
  for (auto _ : state) {
    if (!storage::SaveSnapshotToFile(corpus, path).ok()) std::abort();
  }
}

void BM_EncodeRegal2(benchmark::State& state) {
  const Instance corpus = MakeCorpus();
  int64_t bytes = 0;
  for (auto _ : state) {
    auto encoded = storage::EncodeSnapshot(corpus);
    if (!encoded.ok()) std::abort();
    bytes += static_cast<int64_t>(encoded->size());
  }
  state.SetBytesProcessed(bytes);
}

void BM_DecodeRegal2(benchmark::State& state) {
  const Instance corpus = MakeCorpus();
  auto encoded = storage::EncodeSnapshot(corpus);
  if (!encoded.ok()) std::abort();
  int64_t bytes = 0;
  for (auto _ : state) {
    auto decoded = storage::DecodeSnapshot(*encoded);
    if (!decoded.ok()) std::abort();
    benchmark::DoNotOptimize(decoded->NumRegions());
    bytes += static_cast<int64_t>(encoded->size());
  }
  state.SetBytesProcessed(bytes);
}

void BM_LoadRegal2(benchmark::State& state) {
  const Instance corpus = MakeCorpus();
  const std::string path = BenchPath("bench_load.regal2");
  if (!storage::SaveSnapshotToFile(corpus, path).ok()) std::abort();
  for (auto _ : state) {
    auto loaded = storage::LoadSnapshotFromFile(path);
    if (!loaded.ok()) std::abort();
    benchmark::DoNotOptimize(loaded->NumRegions());
  }
}

void BM_Crc32c(benchmark::State& state) {
  const std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(storage::Crc32c(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}

BENCHMARK(BM_SaveRegal2);
BENCHMARK(BM_EncodeRegal2);
BENCHMARK(BM_DecodeRegal2);
BENCHMARK(BM_LoadRegal2);
BENCHMARK(BM_Crc32c)->Arg(1 << 12)->Arg(1 << 20);

}  // namespace
}  // namespace regal

int main(int argc, char** argv) {
  return regal::RunBenchmarksWithJson(argc, argv, "BENCH_storage.json");
}
