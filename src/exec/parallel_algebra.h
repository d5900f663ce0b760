#ifndef REGAL_EXEC_PARALLEL_ALGEBRA_H_
#define REGAL_EXEC_PARALLEL_ALGEBRA_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/region_set.h"
#include "exec/thread_pool.h"
#include "safety/context.h"
#include "text/tokenizer.h"

namespace regal {
namespace exec {

/// Tuning for the partitioned operator kernels.
struct ParallelConfig {
  /// Pool to run on; nullptr means ThreadPool::Default().
  ThreadPool* pool = nullptr;
  /// Combined operand rows below which the kernels fall straight through to
  /// the sequential operators (partitioning overhead would dominate).
  size_t min_rows = 1u << 14;
  /// Cap on partitions; 0 means the pool's lane count.
  int max_partitions = 0;
  /// Governance state polled between chunks: once ShouldAbort() is true the
  /// remaining chunks bail without producing output. The caller (the
  /// evaluator) must then surface ctx->Check() and discard the partial
  /// result — the kernels never fabricate an answer after an abort.
  const safety::QueryContext* ctx = nullptr;
  /// Bumped once per kernel call that degrades to its sequential twin;
  /// nullptr means untracked. Per-query (unlike the global metrics counter)
  /// so concurrent queries never attribute each other's fallbacks.
  std::atomic<int64_t>* fallbacks = nullptr;
};

/// Data-parallel versions of the hot region-algebra operators. Each one
/// partitions the left operand into contiguous document-order chunks, runs
/// the *same* span kernel as the sequential operator per chunk on the pool,
/// and concatenates the per-chunk outputs:
///
///  * the set merges (∪, ∩, −) pair every chunk with the binary-searched
///    window of the right operand covering the same endpoint range;
///  * the semi-join sweeps (⊃, ⊂, σ) give every chunk the prefix or suffix of
///    the right operand its sweep can reach, seeded with the minimum (⊃, σ)
///    or maximum (⊂) right endpoint of the rest, found by one pass over the
///    right operand;
///  * the order semi-joins (<, >) filter every chunk against one endpoint.
///
/// Chunks are endpoint-ordered, so the concatenation is sorted and the
/// result is bit-identical to the sequential operator — enforced by
/// tests/parallel_exec_test.cpp across thread counts.
///
/// Operator work counters are flushed to the calling thread's obs sink once
/// per call. ⊃, ⊂, σ, < and > charge from the operand sizes alone, so their
/// totals equal the sequential operator's for every chunking. The set merges
/// tally per chunk, and each chunk restarts its gallop and dense-burst
/// decisions at its cut, so their totals can differ from the sequential
/// path's by the work at chunk boundaries. Inputs below cfg.min_rows
/// short-circuit to the sequential operator.
RegionSet ParallelUnion(const RegionSet& r, const RegionSet& s,
                        const ParallelConfig& cfg = {});
RegionSet ParallelIntersect(const RegionSet& r, const RegionSet& s,
                            const ParallelConfig& cfg = {});
RegionSet ParallelDifference(const RegionSet& r, const RegionSet& s,
                             const ParallelConfig& cfg = {});
RegionSet ParallelIncluding(const RegionSet& r, const RegionSet& s,
                            const ParallelConfig& cfg = {});
RegionSet ParallelIncluded(const RegionSet& r, const RegionSet& s,
                           const ParallelConfig& cfg = {});
RegionSet ParallelPrecedes(const RegionSet& r, const RegionSet& s,
                           const ParallelConfig& cfg = {});
RegionSet ParallelFollows(const RegionSet& r, const RegionSet& s,
                          const ParallelConfig& cfg = {});
RegionSet ParallelSelectByTokens(const RegionSet& r,
                                 const std::vector<Token>& tokens,
                                 const ParallelConfig& cfg = {});

}  // namespace exec
}  // namespace regal

#endif  // REGAL_EXEC_PARALLEL_ALGEBRA_H_
