// AVX2 instantiation of the shared kernel body: 4 regions per ymm compare,
// in the merges and in the endpoint filters. Per-function target
// attributes keep the rest of the binary baseline; util::CpuInfo gates
// whether these symbols are ever called (including the xgetbv check for OS
// ymm-state support).

#include "core/simd/simd_variants.h"

#ifdef REGAL_SIMD_X86

#include <immintrin.h>

#define REGAL_ISA_ATTR __attribute__((target("avx2")))
#define REGAL_ISA_NS avx2
#define REGAL_ISA_LEVEL 2

#include "core/simd/kernels_body.inc"

#endif  // REGAL_SIMD_X86
