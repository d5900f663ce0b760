// Dispatching facade over the per-ISA kernel variants in core/simd. The
// merge/search loop bodies that used to live here moved to
// core/simd/kernels_body.inc, where one shared source is compiled per
// instruction set; these wrappers resolve the active table once and forward.
// Each dispatch bumps regal_exec_kernel_dispatch_total{isa=...} so operators
// can be attributed to the tier that actually ran them. The semi-join sweeps
// at the end are plain scalar loops defined here and dispatch nothing.

#include "core/algebra_kernels.h"

#include <algorithm>
#include <memory>

#include "core/simd/simd_kernels.h"
#include "obs/metrics.h"

namespace regal {
namespace kernels {

namespace {

// The active table and its dispatch counter never change after startup;
// resolve both once so the per-call cost is a load and a relaxed fetch_add.
const simd::KernelTable& Active() {
  static const simd::KernelTable& table = simd::ActiveKernels();
  return table;
}

obs::Counter* DispatchCounter() {
  static obs::Counter* counter = obs::Registry::Default().GetCounter(
      "regal_exec_kernel_dispatch_total", {{"isa", Active().name}});
  return counter;
}

}  // namespace

const Region* GallopLowerBound(const Region* first, const Region* last,
                               const Region& v, int64_t* comparisons) {
  DispatchCounter()->Increment();
  return Active().gallop_lower_bound(first, last, v, comparisons);
}

void UnionSpan(const Region* rb, const Region* re, const Region* sb,
               const Region* se, std::vector<Region>* out,
               obs::OpCounters* counters) {
  DispatchCounter()->Increment();
  Active().union_span(rb, re, sb, se, out, counters);
}

void IntersectSpan(const Region* rb, const Region* re, const Region* sb,
                   const Region* se, std::vector<Region>* out,
                   obs::OpCounters* counters) {
  DispatchCounter()->Increment();
  Active().intersect_span(rb, re, sb, se, out, counters);
}

void DifferenceSpan(const Region* rb, const Region* re, const Region* sb,
                    const Region* se, std::vector<Region>* out,
                    obs::OpCounters* counters) {
  DispatchCounter()->Increment();
  Active().difference_span(rb, re, sb, se, out, counters);
}

void FilterRightBefore(const Region* b, size_t n, Offset bound,
                       std::vector<Region>* out) {
  DispatchCounter()->Increment();
  Active().filter_right_before(b, n, bound, out);
}

void FilterLeftAfter(const Region* b, size_t n, Offset bound,
                     std::vector<Region>* out) {
  DispatchCounter()->Increment();
  Active().filter_left_after(b, n, bound, out);
}

Offset MinRightEndpoint(const Region* b, size_t n) {
  DispatchCounter()->Increment();
  return Active().min_right(b, n);
}

void AppendKept(const Region* b, const uint8_t* keep, size_t kept,
                std::vector<Region>* out) {
  const size_t base = out->size();
  out->reserve(base + kept);
  out->resize(base + kept);
  Region* d = out->data() + base;
  Region* const stop = d + kept;
  // Branch-free: every store lands below `stop`, which the last keeper
  // reaches.
  for (size_t i = 0; d != stop; ++i) {
    *d = b[i];
    d += keep[i];
  }
}

void AppendReversed(const std::vector<Region>& reversed,
                    std::vector<Region>* out) {
  out->reserve(out->size() + reversed.size());
  out->insert(out->end(), reversed.rbegin(), reversed.rend());
}

void IncludingSpan(const Region* rb, const Region* re, const Region* sb,
                   const Region* se, int64_t min_right_beyond,
                   std::vector<Region>* out) {
  std::vector<Region> reversed;
  reversed.reserve(static_cast<size_t>(re - rb));
  int64_t min_right = min_right_beyond;
  size_t j = static_cast<size_t>(se - sb);
  for (size_t i = static_cast<size_t>(re - rb); i-- > 0;) {
    const Region& x = rb[i];
    for (; j > 0 && sb[j - 1].left > x.left; --j) {
      min_right = std::min<int64_t>(min_right, sb[j - 1].right);
    }
    // sb[j - 1], if any, closes S's group at x.left and has its smallest
    // right; an equal left needs a strictly smaller right.
    if (min_right <= x.right ||
        (j > 0 && sb[j - 1].left == x.left && sb[j - 1].right < x.right)) {
      reversed.push_back(x);
    }
  }
  AppendReversed(reversed, out);
}

void IncludedSpan(const Region* rb, const Region* re, const Region* sb,
                  const Region* se, int64_t max_right_before,
                  std::vector<Region>* out) {
  const size_t n = static_cast<size_t>(re - rb);
  std::unique_ptr<uint8_t[]> keep(new uint8_t[n]);
  size_t kept = 0;
  int64_t max_right = max_right_before;
  const size_t m = static_cast<size_t>(se - sb);
  size_t j = 0;
  for (size_t i = 0; i < n; ++i) {
    const Region& x = rb[i];
    for (; j < m && sb[j].left < x.left; ++j) {
      max_right = std::max<int64_t>(max_right, sb[j].right);
    }
    // sb[j], if any, opens S's group at x.left and has its largest right;
    // an equal left needs a strictly larger right.
    const bool witnessed =
        max_right >= x.right ||
        (j < m && sb[j].left == x.left && sb[j].right > x.right);
    keep[i] = witnessed;
    kept += witnessed;
  }
  AppendKept(rb, keep.get(), kept, out);
}

void SelectSpan(const Region* rb, const Region* re, const Token* tb,
                const Token* te, int64_t min_right_beyond,
                std::vector<Region>* out) {
  std::vector<Region> reversed;
  reversed.reserve(static_cast<size_t>(re - rb));
  int64_t min_right = min_right_beyond;
  size_t j = static_cast<size_t>(te - tb);
  for (size_t i = static_cast<size_t>(re - rb); i-- > 0;) {
    const Region& x = rb[i];
    for (; j > 0 && tb[j - 1].left >= x.left; --j) {
      min_right = std::min<int64_t>(min_right, tb[j - 1].right);
    }
    if (min_right <= x.right) reversed.push_back(x);
  }
  AppendReversed(reversed, out);
}

void FlushCounters(const obs::OpCounters& counters) {
  if (obs::OpCounters* sink = obs::CountersSink()) sink->Add(counters);
}

}  // namespace kernels
}  // namespace regal
