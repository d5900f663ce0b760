// Experiment E5: inclusion expressions are optimizable in polynomial time
// (Section 5.1, citing [CM94]). Sweeps chain length and RIG size; expect
// near-linear growth in both — in sharp contrast to E4's exponential
// general-case emptiness testing.

#include <benchmark/benchmark.h>

#include "opt/chain.h"
#include "util/random.h"
#include "util/stringutil.h"

namespace regal {
namespace {

// A layered random DAG RIG of `layers` levels with `width` names each;
// consecutive layers are densely connected, so many middles are separators.
Digraph LayeredRig(int layers, int width, double density, uint64_t seed) {
  Rng rng(seed);
  Digraph rig;
  for (int l = 0; l < layers; ++l) {
    for (int w = 0; w < width; ++w) {
      rig.AddNode(StrCat({"L", std::to_string(l), "_", std::to_string(w)}));
    }
  }
  for (int l = 0; l + 1 < layers; ++l) {
    for (int a = 0; a < width; ++a) {
      for (int b = 0; b < width; ++b) {
        if (rng.Chance(density)) {
          rig.AddEdge(
              StrCat({"L", std::to_string(l), "_", std::to_string(a)}),
              StrCat({"L", std::to_string(l + 1), "_", std::to_string(b)}));
        }
      }
    }
  }
  return rig;
}

void BM_ChainOptimizeByLength(benchmark::State& state) {
  int length = static_cast<int>(state.range(0));
  Digraph rig = LayeredRig(length, 3, 0.7, 99);
  InclusionChain chain;
  chain.op = OpKind::kIncluded;
  for (int l = length - 1; l >= 0; --l) {
    chain.names.push_back(StrCat({"L", std::to_string(l), "_0"}));
  }
  size_t optimized_length = 0;
  for (auto _ : state) {
    InclusionChain optimized = OptimizeInclusionChain(rig, chain);
    optimized_length = optimized.names.size();
    benchmark::DoNotOptimize(optimized);
  }
  state.counters["chain_in"] = static_cast<double>(chain.names.size());
  state.counters["chain_out"] = static_cast<double>(optimized_length);
}

void BM_ChainOptimizeByRigSize(benchmark::State& state) {
  int width = static_cast<int>(state.range(0));
  Digraph rig = LayeredRig(6, width, 0.5, 7);
  InclusionChain chain;
  chain.op = OpKind::kIncluded;
  for (int l = 5; l >= 0; --l) {
    chain.names.push_back(StrCat({"L", std::to_string(l), "_0"}));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(OptimizeInclusionChain(rig, chain));
  }
  state.counters["rig_nodes"] = static_cast<double>(rig.NumNodes());
  state.counters["rig_edges"] = static_cast<double>(rig.NumEdges());
}

void BM_SeparatorTest(benchmark::State& state) {
  int width = static_cast<int>(state.range(0));
  Digraph rig = LayeredRig(4, width, 0.5, 11);
  InclusionChain chain;
  chain.op = OpKind::kIncluded;
  chain.names = {"L3_0", "L2_0", "L1_0", "L0_0"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsRedundantChainElement(rig, chain, 1));
    benchmark::DoNotOptimize(IsRedundantChainElement(rig, chain, 2));
  }
}

BENCHMARK(BM_ChainOptimizeByLength)->RangeMultiplier(2)->Range(4, 64);
BENCHMARK(BM_ChainOptimizeByRigSize)->RangeMultiplier(2)->Range(4, 256);
BENCHMARK(BM_SeparatorTest)->RangeMultiplier(4)->Range(4, 1024);

}  // namespace
}  // namespace regal

BENCHMARK_MAIN();
