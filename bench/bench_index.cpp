// Experiment E9: the PAT substrate [Gon87, Ope93]. Suffix-array
// construction and pattern search throughput over synthetic corpora, plus
// the word-index build, the whole SGML ingest it is part of, and the σ_p
// lookup path both indexes implement.
// Establishes that the selection operator runs against a real index.

#include <benchmark/benchmark.h>

#include "doc/dictionary.h"
#include "doc/sgml.h"
#include "index/suffix_array.h"
#include "index/word_index.h"
#include "util/random.h"

namespace regal {
namespace {

std::string MakeCorpus(int64_t target_bytes) {
  PlayGeneratorOptions options;
  options.acts = 1;
  options.scenes_per_act = 1;
  options.speeches_per_scene = static_cast<int>(target_bytes / 400 + 1);
  options.lines_per_speech = 3;
  options.vocabulary = 200;
  return GeneratePlaySource(options);
}

void BM_SuffixArrayBuild(benchmark::State& state) {
  std::string corpus = MakeCorpus(state.range(0));
  for (auto _ : state) {
    SuffixArray sa(corpus);
    benchmark::DoNotOptimize(sa.sa().size());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(corpus.size()));
}

void BM_SuffixArraySearch(benchmark::State& state) {
  std::string corpus = MakeCorpus(state.range(0));
  SuffixArray sa(corpus);
  Rng rng(1);
  for (auto _ : state) {
    std::string needle = "word" + std::to_string(rng.Below(200));
    benchmark::DoNotOptimize(sa.Count(needle));
  }
}

void BM_SuffixArrayOccurrences(benchmark::State& state) {
  std::string corpus = MakeCorpus(state.range(0));
  SuffixArray sa(corpus);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sa.Occurrences("word1"));
  }
}

// The build over the end-to-end benchmark's corpus shapes: dictionaries of
// 2,000 entries (warm_served, ingest_mixed) and 4,000 (cold_analyst).
void BM_WordIndexBuild(benchmark::State& state) {
  DictionaryGeneratorOptions options;
  options.entries = static_cast<int>(state.range(0));
  Text text(GenerateDictionarySource(options));
  for (auto _ : state) {
    SuffixArrayWordIndex index(&text);
    benchmark::DoNotOptimize(index.NumTokens());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
}

// A whole ParseSgml of the same dictionaries: the tag scan, the region sets
// and the word index, which is what a corpus costs before its first query.
void BM_ParseSgml(benchmark::State& state) {
  DictionaryGeneratorOptions options;
  options.entries = static_cast<int>(state.range(0));
  const std::string source = GenerateDictionarySource(options);
  for (auto _ : state) {
    Result<Instance> instance = ParseSgml(source);
    if (!instance.ok()) state.SkipWithError("ParseSgml failed");
    benchmark::DoNotOptimize(instance);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(source.size()));
}

void BM_WordIndexExact(benchmark::State& state) {
  Text text(MakeCorpus(state.range(0)));
  SuffixArrayWordIndex index(&text);
  Pattern p = *Pattern::Parse("word42");
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Matches(p));
  }
}

void BM_WordIndexPrefix(benchmark::State& state) {
  Text text(MakeCorpus(state.range(0)));
  SuffixArrayWordIndex index(&text);
  Pattern p = *Pattern::Parse("word1*");
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Matches(p));
  }
}

void BM_InvertedIndexPrefix(benchmark::State& state) {
  Text text(MakeCorpus(state.range(0)));
  InvertedWordIndex index(&text);
  Pattern p = *Pattern::Parse("word1*");
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Matches(p));
  }
}

BENCHMARK(BM_SuffixArrayBuild)->Range(1 << 12, 1 << 20);
BENCHMARK(BM_SuffixArraySearch)->Range(1 << 12, 1 << 20);
BENCHMARK(BM_SuffixArrayOccurrences)->Range(1 << 12, 1 << 20);
BENCHMARK(BM_WordIndexBuild)->Arg(2000)->Arg(4000);
BENCHMARK(BM_ParseSgml)->Arg(2000)->Arg(4000);
BENCHMARK(BM_WordIndexExact)->Range(1 << 12, 1 << 18);
BENCHMARK(BM_WordIndexPrefix)->Range(1 << 12, 1 << 18);
BENCHMARK(BM_InvertedIndexPrefix)->Range(1 << 12, 1 << 18);

}  // namespace
}  // namespace regal

BENCHMARK_MAIN();
