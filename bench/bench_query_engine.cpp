// Experiment E11: end-to-end engine throughput — parse + validate +
// optimize + evaluate over realistic document corpora, including view
// resolution. Complements E1 (which isolates the rewrite effect).

#include <benchmark/benchmark.h>

#include "bench_report.h"
#include "doc/dictionary.h"
#include "doc/sgml.h"
#include "query/engine.h"

namespace regal {
namespace {

QueryEngine MakeDictionaryEngine(int entries) {
  DictionaryGeneratorOptions options;
  options.entries = entries;
  options.seed = 4;
  auto engine =
      QueryEngine::FromSgmlSource(GenerateDictionarySource(options));
  if (!engine.ok()) std::abort();
  return std::move(engine).value();
}

// The query benches time evaluation, so they run with the result cache
// off: with it on, every iteration after the first is a root cache hit.
QueryEngine MakeUncachedEngine(int entries) {
  QueryEngine engine = MakeDictionaryEngine(entries);
  engine.set_result_cache_enabled(false);
  return engine;
}

void BM_StructuralQuery(benchmark::State& state) {
  QueryEngine engine = MakeUncachedEngine(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto answer = engine.Run("sense within entry within dictionary");
    if (!answer.ok()) state.SkipWithError("query failed");
    benchmark::DoNotOptimize(answer);
  }
}

// BM_StructuralQuery runs with tracing disabled (the null-sink fast path);
// this is the same query under `explain analyze`. The gap between the two is
// the full cost of span tracing — the disabled path itself is checked against
// the seed numbers of bench_operators, which never construct a tracer.
void BM_StructuralQueryProfiled(benchmark::State& state) {
  QueryEngine engine = MakeUncachedEngine(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto answer =
        engine.Run("explain analyze sense within entry within dictionary");
    if (!answer.ok()) state.SkipWithError("query failed");
    benchmark::DoNotOptimize(answer);
  }
}

void BM_ContentQuery(benchmark::State& state) {
  QueryEngine engine = MakeUncachedEngine(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto answer =
        engine.Run("entry including (author matching \"SHAKESPEARE\")");
    if (!answer.ok()) state.SkipWithError("query failed");
    benchmark::DoNotOptimize(answer);
  }
}

void BM_BothIncludedQuery(benchmark::State& state) {
  QueryEngine engine = MakeUncachedEngine(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto answer = engine.Run(
        "bi(entry, def matching \"term1\", qtext matching \"term2\")");
    if (!answer.ok()) state.SkipWithError("query failed");
    benchmark::DoNotOptimize(answer);
  }
}

void BM_ViewQuery(benchmark::State& state) {
  QueryEngine engine = MakeUncachedEngine(static_cast<int>(state.range(0)));
  if (!engine
           .DefineView("bard",
                       "entry including (author matching \"SHAKESPEARE\")")
           .ok()) {
    state.SkipWithError("view definition failed");
    return;
  }
  for (auto _ : state) {
    auto answer = engine.Run("headword within bard");
    if (!answer.ok()) state.SkipWithError("query failed");
    benchmark::DoNotOptimize(answer);
  }
}

void BM_ParseOnly(benchmark::State& state) {
  QueryEngine engine = MakeDictionaryEngine(16);
  (void)state.range(0);
  for (auto _ : state) {
    auto answer = engine.Run(
        "(headword | pos) within (entry - (entry including "
        "(qtext matching \"term9\")))");
    if (!answer.ok()) state.SkipWithError("query failed");
    benchmark::DoNotOptimize(answer);
  }
}

void BM_IndexBuild(benchmark::State& state) {
  DictionaryGeneratorOptions options;
  options.entries = static_cast<int>(state.range(0));
  options.seed = 4;
  std::string source = GenerateDictionarySource(options);
  for (auto _ : state) {
    auto engine = QueryEngine::FromSgmlSource(source);
    if (!engine.ok()) state.SkipWithError("index build failed");
    benchmark::DoNotOptimize(engine);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(source.size()));
}

BENCHMARK(BM_StructuralQuery)->RangeMultiplier(4)->Range(16, 4096);
BENCHMARK(BM_StructuralQueryProfiled)->RangeMultiplier(4)->Range(16, 4096);
BENCHMARK(BM_ContentQuery)->RangeMultiplier(4)->Range(16, 4096);
BENCHMARK(BM_BothIncludedQuery)->RangeMultiplier(4)->Range(16, 4096);
BENCHMARK(BM_ViewQuery)->RangeMultiplier(4)->Range(16, 4096);
BENCHMARK(BM_ParseOnly)->Arg(1);
BENCHMARK(BM_IndexBuild)->RangeMultiplier(4)->Range(16, 1024);

}  // namespace
}  // namespace regal

int main(int argc, char** argv) {
  return regal::RunBenchmarksWithJson(argc, argv, "BENCH_query_engine.json");
}
