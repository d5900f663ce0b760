#ifndef REGAL_CORE_ALGEBRA_KERNELS_H_
#define REGAL_CORE_ALGEBRA_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/region.h"
#include "obs/counters.h"
#include "text/tokenizer.h"

namespace regal {
namespace kernels {

/// Span-level kernels behind the set operators and the structural
/// semi-joins. The sequential operators in core/algebra.cc run them over the
/// full operands; the partitioned parallel kernels in
/// exec/parallel_algebra.cc run them per contiguous chunk. Sharing the loop
/// bodies is what makes the parallel results bit-identical to the sequential
/// ones by construction.
///
/// Inputs are document-ordered, duplicate-free ranges; output is appended to
/// `out` in document order. Work is tallied into `counters` (never into the
/// thread-local obs sink — chunks run on pool workers, and the coordinating
/// thread flushes the summed counters once via FlushCounters).
///
/// The filters and sweeps below find the regions they keep before they
/// store any, and grow `out` once by exactly that many, so an output that
/// starts empty ends with capacity() == size() and becomes a RegionSet
/// payload without a shrinking copy.
///
/// When one side is at least kGallopRatio times longer than the other, the
/// merges switch to galloping (exponential search + bulk append) so skewed
/// set operations cost O(small * log(large)) instead of O(small + large).
inline constexpr ptrdiff_t kGallopRatio = 16;

/// Every function below up to MinRightEndpoint dispatches once per call to
/// the active SIMD kernel set (core/simd), selected from the CPU's
/// capabilities and the REGAL_SIMD environment override. All variants are
/// bit-identical in output and exact in counters, so callers — sequential
/// and partitioned alike — see the same results on every tier; only
/// throughput differs.

void UnionSpan(const Region* rb, const Region* re, const Region* sb,
               const Region* se, std::vector<Region>* out,
               obs::OpCounters* counters);

void IntersectSpan(const Region* rb, const Region* re, const Region* sb,
                   const Region* se, std::vector<Region>* out,
                   obs::OpCounters* counters);

/// R - S restricted to the given spans.
void DifferenceSpan(const Region* rb, const Region* re, const Region* sb,
                    const Region* se, std::vector<Region>* out,
                    obs::OpCounters* counters);

/// Smallest position in [first, last) not ordered before `v` (lower bound by
/// document order), found by exponential search from `first`. The exponential
/// probes charge one comparison each; the binary phase then charges the
/// deterministic ceil(log2(window)) for the window it narrowed to, so the
/// charge is a pure function of the inputs and identical across ISA tiers.
const Region* GallopLowerBound(const Region* first, const Region* last,
                               const Region& v, int64_t* comparisons);

/// Order-preserving endpoint filters behind the ordering joins: append to
/// `out` every x in [b, b+n) with x.right < bound (FilterRightBefore), resp.
/// x.left > bound (FilterLeftAfter), counting them first. No counter
/// tallying — the join operators charge analytically per element scanned.
void FilterRightBefore(const Region* b, size_t n, Offset bound,
                       std::vector<Region>* out);
void FilterLeftAfter(const Region* b, size_t n, Offset bound,
                     std::vector<Region>* out);

/// Minimum right endpoint over [b, b+n); n must be > 0.
Offset MinRightEndpoint(const Region* b, size_t n);

/// Sweeps behind the structural semi-joins ⊃, ⊂ and σ, in O(|R span| +
/// |S span|). Plain scalar loops: no KernelTable entry, no dispatch count,
/// no counter tallying (the operators charge by operand size). Each finds
/// the x in [rb, re) that have a witness in the right operand, then appends
/// them to `out` in document order (AppendReversed, AppendKept). Running
/// extremes are int64_t, and kEmptyMin / kEmptyMax stand for "no region
/// yet", so an empty set never matches a region ending at the largest
/// Offset.
inline constexpr int64_t kEmptyMin = INT64_MAX;
inline constexpr int64_t kEmptyMax = INT64_MIN;

/// R ⊃ S: keeps x if some y of S is strictly included in x. Walks R backward
/// with the minimum right endpoint of the S regions whose left exceeds
/// x.left, and checks the last (smallest) member of S's group at x.left.
/// [sb, se) is a prefix of S holding every region whose left is at most the
/// last left in [rb, re); `min_right_beyond` is the minimum right endpoint
/// of the rest of S. A whole-operand call passes all of S and kEmptyMin.
void IncludingSpan(const Region* rb, const Region* re, const Region* sb,
                   const Region* se, int64_t min_right_beyond,
                   std::vector<Region>* out);

/// R ⊂ S: keeps x if some y of S strictly includes x. Walks R forward with
/// the maximum right endpoint of the S regions whose left is below x.left,
/// and checks the first (largest) member of S's group at x.left. [sb, se) is
/// a suffix of S holding every region whose left is at least the first left
/// in [rb, re); `max_right_before` is the maximum right endpoint of the rest
/// of S. A whole-operand call passes all of S and kEmptyMax.
void IncludedSpan(const Region* rb, const Region* re, const Region* sb,
                  const Region* se, int64_t max_right_before,
                  std::vector<Region>* out);

/// σ: keeps x if some token lies within x (equality allowed). Walks R
/// backward with the minimum right endpoint of the tokens whose left is at
/// least x.left. Tokens are sorted by left; [tb, te) and `min_right_beyond`
/// follow IncludingSpan's contract.
void SelectSpan(const Region* rb, const Region* re, const Token* tb,
                const Token* te, int64_t min_right_beyond,
                std::vector<Region>* out);

/// Appends to `out` the b[i] whose keep[i] is 1 (each keep[i] is 0 or 1),
/// growing it by exactly `kept`, their number: the store half of a forward
/// sweep.
void AppendKept(const Region* b, const uint8_t* keep, size_t kept,
                std::vector<Region>* out);

/// Appends `reversed` to `out` last-first, growing `out` by exactly its
/// size: the store half of a backward sweep, which collects its keepers in
/// reverse document order.
void AppendReversed(const std::vector<Region>& reversed,
                    std::vector<Region>* out);

/// Adds `counters` to the calling thread's obs sink, if one is installed —
/// the flush half of the tally-locally/flush-once discipline of
/// core/algebra.cc, exposed here so the parallel kernels follow it too.
void FlushCounters(const obs::OpCounters& counters);

}  // namespace kernels
}  // namespace regal

#endif  // REGAL_CORE_ALGEBRA_KERNELS_H_
