#include "core/simd/simd_kernels.h"

#include <cstdlib>
#include <cstring>

#include "core/simd/simd_variants.h"
#include "util/cpu.h"

namespace regal {
namespace simd {

namespace {

#define REGAL_SIMD_TABLE_ENTRIES(ns)                                        \
  &ns::UnionSpan, &ns::IntersectSpan, &ns::DifferenceSpan,                  \
      &ns::GallopLowerBound, &ns::FilterRightBefore, &ns::FilterLeftAfter,  \
      &ns::MinRight

constexpr KernelTable kScalarTable = {Isa::kScalar, "scalar",
                                      REGAL_SIMD_TABLE_ENTRIES(scalar)};

#ifdef REGAL_SIMD_X86
constexpr KernelTable kSse4Table = {Isa::kSse4, "sse4",
                                    REGAL_SIMD_TABLE_ENTRIES(sse4)};
constexpr KernelTable kAvx2Table = {Isa::kAvx2, "avx2",
                                    REGAL_SIMD_TABLE_ENTRIES(avx2)};
#endif

#undef REGAL_SIMD_TABLE_ENTRIES

}  // namespace

const KernelTable& ScalarKernels() { return kScalarTable; }

const KernelTable& KernelsFor(Isa isa) {
#ifdef REGAL_SIMD_X86
  const util::CpuFeatures& f = util::CpuInfo();
  // Degrade to the best tier at or below the request that the CPU supports;
  // the caller never has to care whether the hardware keeps up.
  if (isa == Isa::kAvx2 && f.avx2) return kAvx2Table;
  if (isa >= Isa::kSse4 && f.sse42) return kSse4Table;
#else
  (void)isa;
#endif
  return kScalarTable;
}

Isa ResolveIsa(const char* override_value, const util::CpuFeatures& features) {
  const Isa best = features.avx2   ? Isa::kAvx2
                   : features.sse42 ? Isa::kSse4
                                    : Isa::kScalar;
  if (override_value == nullptr || *override_value == '\0') return best;
  Isa wanted = best;  // Unrecognized values are ignored, not fatal.
  if (std::strcmp(override_value, "scalar") == 0) {
    wanted = Isa::kScalar;
  } else if (std::strcmp(override_value, "sse4") == 0) {
    wanted = Isa::kSse4;
  } else if (std::strcmp(override_value, "avx2") == 0) {
    wanted = Isa::kAvx2;
  }
  // Clamp to hardware: asking for more than the CPU has falls back to best.
  return wanted <= best ? wanted : best;
}

const KernelTable& ActiveKernels() {
  static const KernelTable& table =
      KernelsFor(ResolveIsa(std::getenv("REGAL_SIMD"), util::CpuInfo()));
  return table;
}

}  // namespace simd
}  // namespace regal
