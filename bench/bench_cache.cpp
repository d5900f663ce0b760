// Experiment: the cross-query result cache must be free when it cannot help
// and decisive when it can. Three engines run the same heavy dictionary
// query: (a) cache disabled — the pre-cache engine; (b) cache enabled but
// cleared every iteration — the cold path, which pays canonical
// fingerprinting, probes and inserts on top of full evaluation and must
// stay within ~2% of (a); (c) cache warm — the steady state for the
// paper's assumed access pattern (analysts re-issuing structural
// sub-queries), which must be at least ~5x faster than (a) because the
// whole tree short-circuits at the root probe. BM_WarmCommuted shows the
// canonical fingerprint doing the work a textual key cannot: a commuted
// spelling of the query still hits. BM_WarmBesideWrites writes a name the
// query does not read before every run: keys stamped by the names each
// answer reads keep the answer valid, so every run is still a root hit.
// BM_Canonicalize isolates the per-query fingerprinting cost the cold
// path pays.

#include <benchmark/benchmark.h>

#include <string>

#include "bench_report.h"
#include "core/expr.h"
#include "doc/dictionary.h"
#include "doc/sgml.h"
#include "query/engine.h"
#include "query/parser.h"

namespace regal {
namespace {

// One mid-sized text-backed catalog per engine mode; construction is not
// the quantity under test.
QueryEngine MakeEngine() {
  DictionaryGeneratorOptions options;
  options.entries = 400;
  auto built = QueryEngine::FromSgmlSource(GenerateDictionarySource(options));
  if (!built.ok()) std::abort();
  return std::move(*built);
}

const char* kQuery =
    "(quote within sense) | (def within sense) | "
    "entry including (headword matching \"term*\")";

// The same query modulo commutativity of | — textually different, same
// canonical fingerprint.
const char* kCommutedQuery =
    "entry including (headword matching \"term*\") | "
    "(def within sense) | (quote within sense)";

void RunQuery(benchmark::State& state, QueryEngine& engine,
              const char* query) {
  for (auto _ : state) {
    auto answer = engine.Run(query);
    if (!answer.ok()) std::abort();
    benchmark::DoNotOptimize(answer->regions.size());
  }
}

void BM_CacheDisabled(benchmark::State& state) {
  QueryEngine engine = MakeEngine();
  engine.set_result_cache_enabled(false);
  RunQuery(state, engine, kQuery);
}

void BM_ColdCache(benchmark::State& state) {
  // Every iteration starts from an empty cache: full evaluation plus the
  // cache's bookkeeping (fingerprints, probes, inserts, byte accounting).
  QueryEngine engine = MakeEngine();
  for (auto _ : state) {
    engine.result_cache().Clear();
    auto answer = engine.Run(kQuery);
    if (!answer.ok()) std::abort();
    benchmark::DoNotOptimize(answer->regions.size());
  }
}

void BM_WarmCache(benchmark::State& state) {
  QueryEngine engine = MakeEngine();
  if (!engine.Run(kQuery).ok()) std::abort();  // Warm.
  RunQuery(state, engine, kQuery);
}

void BM_WarmCommuted(benchmark::State& state) {
  // Warmed with one spelling, measured with another: the hit comes from the
  // canonical fingerprint, not the query text.
  QueryEngine engine = MakeEngine();
  if (!engine.Run(kQuery).ok()) std::abort();
  RunQuery(state, engine, kCommutedQuery);
}

void BM_WarmBesideWrites(benchmark::State& state) {
  // `pos` is not read by kQuery; rewriting it with its own regions still
  // counts as a catalog write.
  QueryEngine engine = MakeEngine();
  const RegionSet pos = *engine.instance().Get("pos").value();
  if (!engine.Run(kQuery).ok()) std::abort();  // Warm.
  for (auto _ : state) {
    if (!engine.ReplaceRegions("pos", pos).ok()) std::abort();
    auto answer = engine.Run(kQuery);
    if (!answer.ok()) std::abort();
    benchmark::DoNotOptimize(answer->regions.size());
  }
}

void BM_Canonicalize(benchmark::State& state) {
  auto parsed = ParseQuery(kQuery);
  if (!parsed.ok()) std::abort();
  for (auto _ : state) {
    benchmark::DoNotOptimize((*parsed)->CanonicalHash());
  }
}

BENCHMARK(BM_CacheDisabled);
BENCHMARK(BM_ColdCache);
BENCHMARK(BM_WarmCache);
BENCHMARK(BM_WarmCommuted);
BENCHMARK(BM_WarmBesideWrites);
BENCHMARK(BM_Canonicalize);

}  // namespace
}  // namespace regal

int main(int argc, char** argv) {
  return regal::RunBenchmarksWithJson(argc, argv, "BENCH_cache.json");
}
