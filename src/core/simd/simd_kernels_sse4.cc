// SSE4.2 instantiation of the shared kernel body (pcmpgtq for the 64-bit
// document-order key compares, 2 regions per endpoint-filter compare). Compiled
// with per-function target attributes, so this TU is safe to link into a
// binary that must also run on pre-SSE4.2 machines: the dispatcher simply
// never calls these symbols there.

#include "core/simd/simd_variants.h"

#ifdef REGAL_SIMD_X86

#include <immintrin.h>

#define REGAL_ISA_ATTR __attribute__((target("sse4.2")))
#define REGAL_ISA_NS sse4
#define REGAL_ISA_LEVEL 1

#include "core/simd/kernels_body.inc"

#endif  // REGAL_SIMD_X86
