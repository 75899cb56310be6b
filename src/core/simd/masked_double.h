// Branch-free selects on doubles for the segmented max-per-row sweep
// (core/operators.h SegmentedMaxPerRowSums). GCC compiles `?:` on doubles
// into jumps, which mispredict on the sweep's data-dependent conditions, so
// its selects are bit masks. On x86-64 they stay in SSE2 registers, which
// the ISA always has (no flags, no runtime dispatch); a mask built in an
// integer register costs two moves per select. Other targets and
// -DFSIM_SIMD_FORCE_SCALAR builds use integer masks. Both realizations give
// the same bits.
//
// Header-only, so it compiles with the including TU's flags: the kernel
// TUs of this directory, built with FMA enabled, do not include it.
#ifndef FSIM_CORE_SIMD_MASKED_DOUBLE_H_
#define FSIM_CORE_SIMD_MASKED_DOUBLE_H_

#include <bit>
#include <cstdint>

#if defined(__SSE2__) && !defined(FSIM_SIMD_FORCE_SCALAR)
#include <emmintrin.h>
#define FSIM_MASKED_DOUBLE_SSE2 1
#endif

namespace fsim {
namespace simd {

#if defined(FSIM_MASKED_DOUBLE_SSE2)

/// A double in the low lane of an SSE2 register.
using MaskedDouble = __m128d;

inline MaskedDouble ToMasked(double x) { return _mm_set_sd(x); }
inline double FromMasked(MaskedDouble x) { return _mm_cvtsd_f64(x); }

alignas(16) inline constexpr double kMaskTable[2][2] = {
    {0.0, 0.0}, {std::bit_cast<double>(~uint64_t{0}), 0.0}};

/// All ones when c, else zero.
inline MaskedDouble MaskOf(bool c) { return _mm_load_pd(kMaskTable[c]); }
/// mask ? x : +0.0
inline MaskedDouble Keep(MaskedDouble x, MaskedDouble mask) {
  return _mm_and_pd(x, mask);
}
/// mask ? +0.0 : x
inline MaskedDouble Clear(MaskedDouble x, MaskedDouble mask) {
  return _mm_andnot_pd(mask, x);
}
/// a > b ? a : b
inline MaskedDouble Max(MaskedDouble a, MaskedDouble b) {
  return _mm_max_sd(a, b);
}
inline MaskedDouble Add(MaskedDouble a, MaskedDouble b) {
  return _mm_add_sd(a, b);
}

#else

/// A double's bits.
using MaskedDouble = uint64_t;

inline MaskedDouble ToMasked(double x) { return std::bit_cast<uint64_t>(x); }
inline double FromMasked(MaskedDouble x) { return std::bit_cast<double>(x); }
inline MaskedDouble MaskOf(bool c) { return uint64_t{0} - uint64_t{c}; }
inline MaskedDouble Keep(MaskedDouble x, MaskedDouble mask) {
  return x & mask;
}
inline MaskedDouble Clear(MaskedDouble x, MaskedDouble mask) {
  return x & ~mask;
}
inline MaskedDouble Max(MaskedDouble a, MaskedDouble b) {
  return FromMasked(a) > FromMasked(b) ? a : b;
}
inline MaskedDouble Add(MaskedDouble a, MaskedDouble b) {
  return ToMasked(FromMasked(a) + FromMasked(b));
}

#endif

}  // namespace simd
}  // namespace fsim

#endif  // FSIM_CORE_SIMD_MASKED_DOUBLE_H_
