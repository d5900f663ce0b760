#include "exec/parallel_algebra.h"

#include <algorithm>

#include "core/algebra.h"
#include "core/algebra_kernels.h"
#include "obs/metrics.h"
#include "safety/failpoint.h"

namespace regal {
namespace exec {

namespace {

// Chunks smaller than this are not worth a task dispatch.
constexpr size_t kMinChunkRows = 2048;

ThreadPool& PoolOf(const ParallelConfig& cfg) {
  return cfg.pool != nullptr ? *cfg.pool : ThreadPool::Default();
}

int PartitionCount(const ParallelConfig& cfg, size_t rows) {
  int lanes = cfg.max_partitions > 0 ? cfg.max_partitions
                                     : PoolOf(cfg).num_threads();
  size_t by_rows = rows / kMinChunkRows;
  if (by_rows < 1) by_rows = 1;
  return static_cast<int>(
      std::min(static_cast<size_t>(lanes), by_rows));
}

void CountParallelDispatch(const char* op) {
  obs::Registry::Default()
      .GetCounter("regal_exec_parallel_ops_total", {{"op", op}})
      ->Increment();
}

// Degradation failpoint shared by every kernel: when "exec.kernel.degrade"
// fires, the kernel runs its sequential twin instead of partitioning —
// same answer (the kernels are bit-identical to the sequential operators),
// recorded so the fallback is observable.
bool DegradeKernel(const char* op, const ParallelConfig& cfg) {
  if (!safety::FailpointFires("exec.kernel.degrade")) return false;
  obs::Registry::Default()
      .GetCounter("regal_safety_kernel_fallbacks_total", {{"op", op}})
      ->Increment();
  // The per-query tally feeds the explain-analyze profile; the labeled
  // global counter above is fleet metrics only.
  if (cfg.fallbacks != nullptr) {
    cfg.fallbacks->fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

std::vector<Region> Concatenate(std::vector<std::vector<Region>>* chunks) {
  size_t total = 0;
  for (const auto& c : *chunks) total += c.size();
  std::vector<Region> out;
  out.reserve(total);
  for (auto& c : *chunks) out.insert(out.end(), c.begin(), c.end());
  return out;
}

using MergeKernel = void (*)(const Region*, const Region*, const Region*,
                             const Region*, std::vector<Region>*,
                             obs::OpCounters*);
using SequentialOp = RegionSet (*)(const RegionSet&, const RegionSet&);

// Splits R at index boundaries, binary-searches the matching value window of
// S for every chunk (chunk k owns the endpoint interval
// [R[cut_k], R[cut_{k+1}})), and runs `kernel` per chunk on the pool. Chunk
// outputs cover disjoint, increasing endpoint intervals, so concatenation is
// the full sorted merge. One partition runs `sequential`, the operator that
// runs `kernel` over the whole operands.
RegionSet PartitionedMerge(const char* op, const RegionSet& r,
                           const RegionSet& s, MergeKernel kernel,
                           SequentialOp sequential,
                           const ParallelConfig& cfg) {
  const int parts = PartitionCount(cfg, r.size());
  if (parts <= 1) return sequential(r, s);
  const Region* rd = r.regions().data();
  const Region* sd = s.regions().data();
  const size_t np = static_cast<size_t>(parts);
  std::vector<size_t> rcut(np + 1), scut(np + 1);
  RegionDocumentOrder less;
  rcut[0] = 0;
  scut[0] = 0;
  rcut[np] = r.size();
  scut[np] = s.size();
  for (size_t k = 1; k < np; ++k) {
    rcut[k] = k * r.size() / np;
    scut[k] = static_cast<size_t>(
        std::lower_bound(sd, sd + s.size(), rd[rcut[k]], less) - sd);
  }
  std::vector<std::vector<Region>> outs(np);
  std::vector<obs::OpCounters> counters(np);
  PoolOf(cfg).ParallelFor(np, [&](size_t k) {
    // Chunk-granularity checkpoint: a cancelled/over-deadline query skips
    // the remaining chunks. The evaluator re-checks the context at the next
    // operator boundary — and once more before Evaluate() returns, which
    // covers a kernel running under the root operator — and discards this
    // (partial) result.
    if (cfg.ctx != nullptr && cfg.ctx->ShouldAbort()) return;
    outs[k].reserve((rcut[k + 1] - rcut[k]) + (scut[k + 1] - scut[k]));
    kernel(rd + rcut[k], rd + rcut[k + 1], sd + scut[k], sd + scut[k + 1],
           &outs[k], &counters[k]);
  });
  obs::OpCounters total;
  for (const obs::OpCounters& c : counters) total.Add(c);
  kernels::FlushCounters(total);
  CountParallelDispatch(op);
  return RegionSet::FromSortedUnique(Concatenate(&outs));
}

// Counter charge of the operators that charge from operand sizes alone (⊃,
// ⊂, σ, <, >), as core/algebra.cc does: one comparison per row of R, and one
// merge step per row plus `extra` for what they read of the right operand.
// It is independent of how R is chunked, so sequential and partitioned runs
// report identical counters.
obs::OpCounters SizeCharge(size_t rows, size_t extra) {
  return obs::OpCounters{static_cast<int64_t>(rows),
                         static_cast<int64_t>(rows + extra), 0};
}

// First index of R's chunk k when R is cut into np contiguous chunks.
size_t ChunkBegin(size_t rows, size_t np, size_t k) { return k * rows / np; }

// Runs `chunk(k, begin, end, &out_k)` for every one of the np index chunks
// of R on the pool, flushes `total` and concatenates the chunk outputs.
// Each chunk's output is a document-ordered subset of its slice of R, so
// the concatenation is the full filtered set.
template <typename ChunkFn>
RegionSet RunChunks(const char* op, const RegionSet& r, size_t np,
                    const obs::OpCounters& total, const ParallelConfig& cfg,
                    ChunkFn chunk) {
  std::vector<std::vector<Region>> outs(np);
  PoolOf(cfg).ParallelFor(np, [&](size_t k) {
    if (cfg.ctx != nullptr && cfg.ctx->ShouldAbort()) return;
    chunk(k, ChunkBegin(r.size(), np, k), ChunkBegin(r.size(), np, k + 1),
          &outs[k]);
  });
  kernels::FlushCounters(total);
  CountParallelDispatch(op);
  return RegionSet::FromSortedUnique(Concatenate(&outs));
}

// Partitioned endpoint filter of R behind Precedes/Follows: chunk k runs the
// dispatched filter kernel over its slice straight into its output vector.
using FilterKernel = void (*)(const Region*, size_t, Offset,
                              std::vector<Region>*);

RegionSet PartitionedEndpointFilter(const char* op, const RegionSet& r,
                                    FilterKernel kernel, Offset bound,
                                    const obs::OpCounters& total,
                                    const ParallelConfig& cfg) {
  const Region* rd = r.regions().data();
  const int parts = PartitionCount(cfg, r.size());
  if (parts <= 1) {
    std::vector<Region> out;
    kernel(rd, r.size(), bound, &out);
    kernels::FlushCounters(total);
    return RegionSet::FromSortedUnique(std::move(out));
  }
  return RunChunks(op, r, static_cast<size_t>(parts), total, cfg,
                   [&](size_t, size_t begin, size_t end,
                       std::vector<Region>* out) {
                     kernel(rd + begin, end - begin, bound, out);
                   });
}

// Where each chunk's semi-join sweep stops in the right operand W, and the
// extreme right endpoint of W beyond that stop: the chunk's seed.
struct SweepSeeds {
  std::vector<size_t> cut;
  std::vector<int64_t> seed;
};

// For the backward sweeps (⊃, σ): chunk k sweeps the prefix of W up to
// cut[k], the first witness whose left exceeds the chunk's last left, and
// seed[k] is the minimum right endpoint of W from cut[k] on. One backward
// pass over W fills every seed.
template <typename W>
SweepSeeds SuffixSeeds(const RegionSet& r, const std::vector<W>& w,
                       size_t np) {
  SweepSeeds out{std::vector<size_t>(np), std::vector<int64_t>(np)};
  for (size_t k = 0; k < np; ++k) {
    const Offset last = r[ChunkBegin(r.size(), np, k + 1) - 1].left;
    out.cut[k] = static_cast<size_t>(
        std::upper_bound(w.begin(), w.end(), last,
                         [](Offset v, const W& x) { return v < x.left; }) -
        w.begin());
  }
  int64_t min_right = kernels::kEmptyMin;
  size_t i = w.size();
  for (size_t k = np; k-- > 0;) {
    for (; i > out.cut[k]; --i) {
      min_right = std::min<int64_t>(min_right, w[i - 1].right);
    }
    out.seed[k] = min_right;
  }
  return out;
}

// For the forward sweep (⊂): chunk k sweeps the suffix of S from cut[k], the
// first region whose left is at least the chunk's first left, and seed[k] is
// the maximum right endpoint of S before cut[k]. One forward pass over S
// fills every seed.
SweepSeeds PrefixSeeds(const RegionSet& r, const RegionSet& s, size_t np) {
  SweepSeeds out{std::vector<size_t>(np), std::vector<int64_t>(np)};
  for (size_t k = 0; k < np; ++k) {
    const Offset first = r[ChunkBegin(r.size(), np, k)].left;
    out.cut[k] = static_cast<size_t>(
        std::lower_bound(s.begin(), s.end(), first,
                         [](const Region& x, Offset v) { return x.left < v; }) -
        s.begin());
  }
  int64_t max_right = kernels::kEmptyMax;
  size_t i = 0;
  for (size_t k = 0; k < np; ++k) {
    for (; i < out.cut[k]; ++i) {
      max_right = std::max<int64_t>(max_right, s[i].right);
    }
    out.seed[k] = max_right;
  }
  return out;
}

bool BelowGate(const ParallelConfig& cfg, size_t rows) {
  return rows < cfg.min_rows;
}

}  // namespace

RegionSet ParallelUnion(const RegionSet& r, const RegionSet& s,
                        const ParallelConfig& cfg) {
  if (BelowGate(cfg, r.size() + s.size())) return Union(r, s);
  if (DegradeKernel("union", cfg)) return Union(r, s);
  // Union is symmetric; partition the longer operand for balance.
  const RegionSet& a = r.size() >= s.size() ? r : s;
  const RegionSet& b = r.size() >= s.size() ? s : r;
  return PartitionedMerge("union", a, b, &kernels::UnionSpan, &Union, cfg);
}

RegionSet ParallelIntersect(const RegionSet& r, const RegionSet& s,
                            const ParallelConfig& cfg) {
  if (BelowGate(cfg, r.size() + s.size())) return Intersect(r, s);
  if (DegradeKernel("intersect", cfg)) return Intersect(r, s);
  const RegionSet& a = r.size() >= s.size() ? r : s;
  const RegionSet& b = r.size() >= s.size() ? s : r;
  return PartitionedMerge("intersect", a, b, &kernels::IntersectSpan,
                          &Intersect, cfg);
}

RegionSet ParallelDifference(const RegionSet& r, const RegionSet& s,
                             const ParallelConfig& cfg) {
  if (BelowGate(cfg, r.size() + s.size())) return Difference(r, s);
  if (DegradeKernel("difference", cfg)) return Difference(r, s);
  return PartitionedMerge("difference", r, s, &kernels::DifferenceSpan,
                          &Difference, cfg);
}

RegionSet ParallelIncluding(const RegionSet& r, const RegionSet& s,
                            const ParallelConfig& cfg) {
  if (BelowGate(cfg, r.size() + s.size())) return Including(r, s);
  if (DegradeKernel("including", cfg)) return Including(r, s);
  const int parts = PartitionCount(cfg, r.size());
  if (parts <= 1) return Including(r, s);
  const size_t np = static_cast<size_t>(parts);
  const SweepSeeds seeds = SuffixSeeds(r, s.regions(), np);
  const Region* rd = r.regions().data();
  const Region* sd = s.regions().data();
  return RunChunks("including", r, np, SizeCharge(r.size(), s.size()), cfg,
                   [&](size_t k, size_t begin, size_t end,
                       std::vector<Region>* out) {
                     kernels::IncludingSpan(rd + begin, rd + end, sd,
                                            sd + seeds.cut[k], seeds.seed[k],
                                            out);
                   });
}

RegionSet ParallelIncluded(const RegionSet& r, const RegionSet& s,
                           const ParallelConfig& cfg) {
  if (BelowGate(cfg, r.size() + s.size())) return Included(r, s);
  if (DegradeKernel("included", cfg)) return Included(r, s);
  const int parts = PartitionCount(cfg, r.size());
  if (parts <= 1) return Included(r, s);
  const size_t np = static_cast<size_t>(parts);
  const SweepSeeds seeds = PrefixSeeds(r, s, np);
  const Region* rd = r.regions().data();
  const Region* sd = s.regions().data();
  return RunChunks("included", r, np, SizeCharge(r.size(), s.size()), cfg,
                   [&](size_t k, size_t begin, size_t end,
                       std::vector<Region>* out) {
                     kernels::IncludedSpan(rd + begin, rd + end,
                                           sd + seeds.cut[k], sd + s.size(),
                                           seeds.seed[k], out);
                   });
}

RegionSet ParallelPrecedes(const RegionSet& r, const RegionSet& s,
                           const ParallelConfig& cfg) {
  if (BelowGate(cfg, r.size() + s.size())) return Precedes(r, s);
  if (DegradeKernel("precedes", cfg)) return Precedes(r, s);
  if (s.empty()) {
    kernels::FlushCounters(SizeCharge(r.size(), 0));
    return RegionSet();
  }
  const Offset max_left = s[s.size() - 1].left;
  return PartitionedEndpointFilter("precedes", r, &kernels::FilterRightBefore,
                                   max_left, SizeCharge(r.size(), 1), cfg);
}

RegionSet ParallelFollows(const RegionSet& r, const RegionSet& s,
                          const ParallelConfig& cfg) {
  if (BelowGate(cfg, r.size() + s.size())) return Follows(r, s);
  if (DegradeKernel("follows", cfg)) return Follows(r, s);
  if (s.empty()) {
    kernels::FlushCounters(SizeCharge(r.size(), 0));
    return RegionSet();
  }
  const Offset min_right = kernels::MinRightEndpoint(s.regions().data(), s.size());
  return PartitionedEndpointFilter("follows", r, &kernels::FilterLeftAfter,
                                   min_right, SizeCharge(r.size(), s.size()),
                                   cfg);
}

RegionSet ParallelSelectByTokens(const RegionSet& r,
                                 const std::vector<Token>& tokens,
                                 const ParallelConfig& cfg) {
  if (BelowGate(cfg, r.size() + tokens.size())) {
    return SelectByTokens(r, tokens);
  }
  if (DegradeKernel("select", cfg)) return SelectByTokens(r, tokens);
  const int parts = PartitionCount(cfg, r.size());
  if (parts <= 1) return SelectByTokens(r, tokens);
  const size_t np = static_cast<size_t>(parts);
  const SweepSeeds seeds = SuffixSeeds(r, tokens, np);
  const Region* rd = r.regions().data();
  return RunChunks("select", r, np, SizeCharge(r.size(), tokens.size()), cfg,
                   [&](size_t k, size_t begin, size_t end,
                       std::vector<Region>* out) {
                     kernels::SelectSpan(rd + begin, rd + end, tokens.data(),
                                         tokens.data() + seeds.cut[k],
                                         seeds.seed[k], out);
                   });
}

}  // namespace exec
}  // namespace regal
