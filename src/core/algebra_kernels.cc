// Dispatching facade over the per-ISA kernel variants in core/simd. The
// merge/search loop bodies that used to live here moved to
// core/simd/kernels_body.inc, where one shared source is compiled per
// instruction set; these wrappers resolve the active table once and forward.
// Each dispatch bumps regal_exec_kernel_dispatch_total{isa=...} so operators
// can be attributed to the tier that actually ran them. The semi-join sweeps
// at the end are plain scalar loops defined here and dispatch nothing.

#include "core/algebra_kernels.h"

#include <algorithm>

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

void IncludingSpan(const Region* rb, const Region* re, const Region* sb,
                   const Region* se, int64_t min_right_beyond,
                   std::vector<Region>* out) {
  const size_t base = out->size();
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
      out->push_back(x);
    }
  }
  std::reverse(out->begin() + static_cast<ptrdiff_t>(base), out->end());
}

void IncludedSpan(const Region* rb, const Region* re, const Region* sb,
                  const Region* se, int64_t max_right_before,
                  std::vector<Region>* out) {
  int64_t max_right = max_right_before;
  const size_t m = static_cast<size_t>(se - sb);
  size_t j = 0;
  for (const Region* x = rb; x != re; ++x) {
    for (; j < m && sb[j].left < x->left; ++j) {
      max_right = std::max<int64_t>(max_right, sb[j].right);
    }
    // sb[j], if any, opens S's group at x.left and has its largest right;
    // an equal left needs a strictly larger right.
    if (max_right >= x->right ||
        (j < m && sb[j].left == x->left && sb[j].right > x->right)) {
      out->push_back(*x);
    }
  }
}

void SelectSpan(const Region* rb, const Region* re, const Token* tb,
                const Token* te, int64_t min_right_beyond,
                std::vector<Region>* out) {
  const size_t base = out->size();
  int64_t min_right = min_right_beyond;
  size_t j = static_cast<size_t>(te - tb);
  for (size_t i = static_cast<size_t>(re - rb); i-- > 0;) {
    const Region& x = rb[i];
    for (; j > 0 && tb[j - 1].left >= x.left; --j) {
      min_right = std::min<int64_t>(min_right, tb[j - 1].right);
    }
    if (min_right <= x.right) out->push_back(x);
  }
  std::reverse(out->begin() + static_cast<ptrdiff_t>(base), out->end());
}

void FlushCounters(const obs::OpCounters& counters) {
  if (obs::OpCounters* sink = obs::CountersSink()) sink->Add(counters);
}

}  // namespace kernels
}  // namespace regal
