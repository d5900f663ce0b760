// Internal: entry points of the per-ISA kernel variant translation units.
// Each namespace below is one inclusion of kernels_body.inc compiled with a
// different (per-function) target attribute; simd_kernels.cc assembles them
// into KernelTables. Only simd_kernels.cc and the variant TUs include this.

#ifndef REGAL_CORE_SIMD_SIMD_VARIANTS_H_
#define REGAL_CORE_SIMD_SIMD_VARIANTS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/region.h"
#include "obs/counters.h"

// The SSE4.2 / AVX2 variants exist only where GCC-style per-function target
// attributes and x86 intrinsics do; elsewhere the scalar set serves every
// tier (util::CpuInfo reports no features there, so dispatch never asks for
// more).
#if defined(__x86_64__) && defined(__GNUC__)
#define REGAL_SIMD_X86 1
#endif

namespace regal {
namespace simd {

// The declarations carry the same per-function target attribute as the
// definitions (GCC merges attributes across declarations; keeping them
// identical avoids any ambiguity about which ISA a symbol may use).
#define REGAL_SIMD_DECLARE_VARIANT(ns, attr)                                   \
  namespace ns {                                                               \
  attr void UnionSpan(const Region* rb, const Region* re, const Region* sb,    \
                      const Region* se, std::vector<Region>* out,              \
                      obs::OpCounters* counters);                              \
  attr void IntersectSpan(const Region* rb, const Region* re,                  \
                          const Region* sb, const Region* se,                  \
                          std::vector<Region>* out, obs::OpCounters* counters);\
  attr void DifferenceSpan(const Region* rb, const Region* re,                 \
                           const Region* sb, const Region* se,                 \
                           std::vector<Region>* out,                           \
                           obs::OpCounters* counters);                         \
  attr const Region* GallopLowerBound(const Region* first, const Region* last, \
                                      const Region& v, int64_t* comparisons);  \
  attr void FilterRightBefore(const Region* b, size_t n, Offset bound,         \
                              std::vector<Region>* out);                       \
  attr void FilterLeftAfter(const Region* b, size_t n, Offset bound,           \
                            std::vector<Region>* out);                         \
  attr Offset MinRight(const Region* b, size_t n);                             \
  }  // namespace ns

#define REGAL_SIMD_NO_ATTR

REGAL_SIMD_DECLARE_VARIANT(scalar, REGAL_SIMD_NO_ATTR)
#ifdef REGAL_SIMD_X86
REGAL_SIMD_DECLARE_VARIANT(sse4, __attribute__((target("sse4.2"))))
REGAL_SIMD_DECLARE_VARIANT(avx2, __attribute__((target("avx2"))))
#endif

#undef REGAL_SIMD_NO_ATTR
#undef REGAL_SIMD_DECLARE_VARIANT

}  // namespace simd
}  // namespace regal

#endif  // REGAL_CORE_SIMD_SIMD_VARIANTS_H_
