#ifndef REGAL_CORE_SIMD_SIMD_KERNELS_H_
#define REGAL_CORE_SIMD_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/region.h"
#include "obs/counters.h"
#include "util/cpu.h"

namespace regal {
namespace simd {

/// The vector lanes load Region pairs as raw 64-bit words and reorder them
/// into sortable keys with fixed shuffles, so the kernels are only correct
/// for exactly this layout. A future field addition must fail here at
/// compile time, not silently corrupt SIMD results.
static_assert(sizeof(Region) == 8,
              "SIMD kernels assume Region is exactly {int32 left, int32 "
              "right}; update core/simd before changing the layout");
static_assert(sizeof(Offset) == 4 && std::is_signed_v<Offset>,
              "SIMD kernels assume Offset is a signed 32-bit integer");
static_assert(offsetof(Region, left) == 0 && offsetof(Region, right) == 4,
              "SIMD kernels assume left precedes right within Region");
static_assert(std::is_trivially_copyable_v<Region>,
              "SIMD kernels bulk-copy Region with vector stores");

/// Instruction-set tiers of the kernel layer, worst to best. `kSse4` means
/// SSE4.2 (pcmpgtq is the instruction the 128-bit merges need).
enum class Isa { kScalar = 0, kSse4 = 1, kAvx2 = 2 };

inline const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kSse4:
      return "sse4";
    case Isa::kAvx2:
      return "avx2";
    default:
      return "scalar";
  }
}

/// One resolved set of kernel entry points. Every variant is bit-identical
/// in output and exact in counters to the scalar set: the loop structure
/// (gallop decision points, dense-burst budgets, charge formulas) is shared
/// source compiled per ISA, and only the data-parallel primitives differ.
struct KernelTable {
  Isa isa;
  const char* name;

  /// Sorted-span set merges (see core/algebra_kernels.h for the contract).
  void (*union_span)(const Region* rb, const Region* re, const Region* sb,
                     const Region* se, std::vector<Region>* out,
                     obs::OpCounters* counters);
  void (*intersect_span)(const Region* rb, const Region* re, const Region* sb,
                         const Region* se, std::vector<Region>* out,
                         obs::OpCounters* counters);
  void (*difference_span)(const Region* rb, const Region* re, const Region* sb,
                          const Region* se, std::vector<Region>* out,
                          obs::OpCounters* counters);

  /// Lower bound by document order via exponential search; the binary phase
  /// charges the deterministic ⌈log2(window)⌉ regardless of how it probes.
  const Region* (*gallop_lower_bound)(const Region* first, const Region* last,
                                      const Region& v, int64_t* comparisons);

  /// Order-preserving endpoint filters behind the ordering joins:
  /// keep x with x.right < bound, resp. x.left > bound.
  void (*filter_right_before)(const Region* b, size_t n, Offset bound,
                              std::vector<Region>* out);
  void (*filter_left_after)(const Region* b, size_t n, Offset bound,
                            std::vector<Region>* out);

  /// Minimum right endpoint over [b, b+n); n must be > 0.
  Offset (*min_right)(const Region* b, size_t n);
};

/// The kernel set for `isa`, degraded to the nearest tier the CPU actually
/// supports (requesting avx2 on an SSE4.2-only machine returns sse4, etc.).
/// Always returns a usable table.
const KernelTable& KernelsFor(Isa isa);

/// The scalar oracle set, unconditionally available.
const KernelTable& ScalarKernels();

/// The process-wide active set: the best CPU-supported tier, overridable
/// with REGAL_SIMD=avx2|sse4|scalar (clamped to what the CPU supports;
/// unrecognized values are ignored). Resolved once on first use.
const KernelTable& ActiveKernels();

/// Pure resolution rule behind ActiveKernels, exposed for tests:
/// `override_value` is the REGAL_SIMD value or nullptr.
Isa ResolveIsa(const char* override_value, const util::CpuFeatures& features);

}  // namespace simd
}  // namespace regal

#endif  // REGAL_CORE_SIMD_SIMD_KERNELS_H_
