// Experiment E7: the minimal-set problem (Prop 6.1). Exact search is
// exponential (the problem is NP-complete — the harness uses the vertex
// cover reduction), while the single-operation case solves in polynomial
// time via min vertex cut. Expect exact time exploding with graph size and
// min-cut staying flat.

#include <benchmark/benchmark.h>

#include "rig/minimal_set.h"
#include "util/random.h"
#include "util/stringutil.h"

namespace regal {
namespace {

std::vector<std::pair<int, int>> RandomEdges(int vertices, double density,
                                             uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<int, int>> edges;
  for (int u = 0; u < vertices; ++u) {
    for (int w = u + 1; w < vertices; ++w) {
      if (rng.Chance(density)) edges.emplace_back(u, w);
    }
  }
  return edges;
}

void BM_ExactMinimalSetFromVertexCover(benchmark::State& state) {
  int vertices = static_cast<int>(state.range(0));
  auto edges = RandomEdges(vertices, 0.4, 3);
  auto [rig, chain] = VertexCoverToMinimalSet(vertices, edges);
  size_t size = 0;
  for (auto _ : state) {
    auto result = MinimalSetExact(rig, chain);
    if (!result.ok()) state.SkipWithError("exact search failed");
    size = result->size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["minimal_size"] = static_cast<double>(size);
  state.counters["rig_nodes"] = static_cast<double>(rig.NumNodes());
}

void BM_PairwiseCutsOnSameInstances(benchmark::State& state) {
  int vertices = static_cast<int>(state.range(0));
  auto edges = RandomEdges(vertices, 0.4, 3);
  auto [rig, chain] = VertexCoverToMinimalSet(vertices, edges);
  size_t size = 0;
  for (auto _ : state) {
    auto result = MinimalSetPairwiseCuts(rig, chain);
    if (!result.ok()) state.SkipWithError("pairwise cuts failed");
    size = result->size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["approx_size"] = static_cast<double>(size);
}

// The polynomial single-operation case on layered DAGs of growing size.
void BM_SingleOpMinCut(benchmark::State& state) {
  int width = static_cast<int>(state.range(0));
  Rng rng(5);
  Digraph rig;
  rig.AddNode("S");
  rig.AddNode("T");
  for (int w = 0; w < width; ++w) {
    std::string mid = StrCat({"m", std::to_string(w)});
    rig.AddEdge("S", mid);
    rig.AddEdge(mid, "T");
    // Cross edges for density.
    if (w > 0 && rng.Chance(0.5)) {
      rig.AddEdge(StrCat({"m", std::to_string(w - 1)}), mid);
    }
  }
  size_t size = 0;
  for (auto _ : state) {
    auto cut = MinimalSetSingleOp(rig, "S", "T");
    if (!cut.ok()) state.SkipWithError("min cut failed");
    size = cut->size();
    benchmark::DoNotOptimize(cut);
  }
  state.counters["cut_size"] = static_cast<double>(size);
}

BENCHMARK(BM_ExactMinimalSetFromVertexCover)->DenseRange(3, 9, 1);
BENCHMARK(BM_PairwiseCutsOnSameInstances)->DenseRange(3, 9, 1);
BENCHMARK(BM_SingleOpMinCut)->RangeMultiplier(4)->Range(4, 4096);

}  // namespace
}  // namespace regal

BENCHMARK_MAIN();
