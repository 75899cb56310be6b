// AVX2 realization of the kernel table (core/simd/kernels.h). This file is
// the only AVX2 translation unit: CMake compiles it with -mavx2 (plus
// -ffp-contract=off so no source expression is silently fused), and the
// whole body is guarded on __AVX2__ so a build without the flag — non-x86
// targets, -DFSIM_SIMD_FORCE_SCALAR — degrades to a nullptr table that the
// dispatcher clamps to scalar.
//
// Bit-identity notes (the contract of kernels.h):
//  * maxima use VMAXPD only — exact and order-free on the non-negative
//    score domain, and masked-out gather lanes contribute +0.0, matching
//    the scalar `best = 0.0` seed;
//  * combine_row uses VMULPD + VADDPD in the scalar association
//    ((w+·o) + (w-·i)) + L; never VFMADD, whose single rounding would
//    diverge from the scalar kernels;
//  * |delta| is a sign-bit VANDPD; the horizontal max reduction is exact.
#include "core/simd/kernels.h"

#if defined(__AVX2__) && !defined(FSIM_SIMD_FORCE_SCALAR)

#include <immintrin.h>

#include <cmath>

namespace fsim {
namespace simd {

namespace {

constexpr uint32_t kNoEntry = ~0u;

/// Nibble -> 4-lane double mask (sign bit per 64-bit lane), the AVX2 form
/// of a work item's candidate bits: one lookup per 4-slot item, one
/// masked gather per item.
alignas(32) constexpr uint64_t kNibbleMask[16][4] = {
    {0, 0, 0, 0},       {~0ull, 0, 0, 0},
    {0, ~0ull, 0, 0},   {~0ull, ~0ull, 0, 0},
    {0, 0, ~0ull, 0},   {~0ull, 0, ~0ull, 0},
    {0, ~0ull, ~0ull, 0},   {~0ull, ~0ull, ~0ull, 0},
    {0, 0, 0, ~0ull},   {~0ull, 0, 0, ~0ull},
    {0, ~0ull, 0, ~0ull},   {~0ull, ~0ull, 0, ~0ull},
    {0, 0, ~0ull, ~0ull},   {~0ull, 0, ~0ull, ~0ull},
    {0, ~0ull, ~0ull, ~0ull},   {~0ull, ~0ull, ~0ull, ~0ull},
};

inline __m256d NibbleMask(uint32_t nibble) {
  return _mm256_load_pd(
      reinterpret_cast<const double*>(kNibbleMask[nibble]));
}

inline double HorizontalMax(__m256d v) {
  const __m256d swapped = _mm256_permute2f128_pd(v, v, 1);
  const __m256d m = _mm256_max_pd(v, swapped);
  const __m256d m2 = _mm256_max_pd(m, _mm256_permute_pd(m, 0x5));
  return _mm256_cvtsd_f64(m2);
}

template <bool kColmax>
void TileRowPassImpl(const PanelWorkItem* items, size_t n_items,
                     const int32_t* ids, const double* prev_row, double* acc,
                     double* colmax) {
  const __m256d zero = _mm256_setzero_pd();
  uint32_t cur = kNoEntry;
  __m256d best = zero;
  for (size_t k = 0; k < n_items; ++k) {
    const PanelWorkItem it = items[k];
    if (it.entry != cur) {
      if (cur != kNoEntry) {
        const double b = HorizontalMax(best);
        if (b > 0.0) acc[cur] += b;
      }
      cur = it.entry;
      best = zero;
    }
    const __m128i idx = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(ids + it.slot));
    const __m256d mask = NibbleMask(it.mask);
    const __m256d g = _mm256_mask_i32gather_pd(zero, prev_row, idx, mask, 8);
    best = _mm256_max_pd(best, g);
    if constexpr (kColmax) {
      double* c = colmax + it.slot;
      _mm256_store_pd(c, _mm256_max_pd(_mm256_load_pd(c), g));
    }
  }
  if (cur != kNoEntry) {
    const double b = HorizontalMax(best);
    if (b > 0.0) acc[cur] += b;
  }
}

void TileRowPass(const PanelWorkItem* items, size_t n_items,
                 const int32_t* ids, const double* prev_row, double* acc) {
  TileRowPassImpl<false>(items, n_items, ids, prev_row, acc, nullptr);
}

void TileRowPassColmax(const PanelWorkItem* items, size_t n_items,
                       const int32_t* ids, const double* prev_row,
                       double* acc, double* colmax) {
  TileRowPassImpl<true>(items, n_items, ids, prev_row, acc, colmax);
}

void NormalizeTile(const double* sums, const uint32_t* sizes, size_t n,
                   uint32_t omega_kind, double m1, double* out) {
  const __m256d vm1 = _mm256_set1_pd(m1);
  size_t t = 0;
  // Per-kind vector loops: IEEE convert/add/mul/sqrt/divide are per-lane
  // identical to the scalar OmegaValue expression (kernels.h contract).
  switch (omega_kind) {
    case 0:  // kSizeS1
      for (; t + 4 <= n; t += 4) {
        _mm256_storeu_pd(out + t,
                         _mm256_div_pd(_mm256_loadu_pd(sums + t), vm1));
      }
      for (; t < n; ++t) out[t] = sums[t] / m1;
      return;
    case 1:  // kSumSizes
      for (; t + 4 <= n; t += 4) {
        const __m256d n2 = _mm256_cvtepi32_pd(_mm_loadu_si128(
            reinterpret_cast<const __m128i*>(sizes + t)));
        _mm256_storeu_pd(out + t, _mm256_div_pd(_mm256_loadu_pd(sums + t),
                                                _mm256_add_pd(vm1, n2)));
      }
      for (; t < n; ++t) {
        out[t] = sums[t] / (m1 + static_cast<double>(sizes[t]));
      }
      return;
    case 2:  // kGeoMean
      for (; t + 4 <= n; t += 4) {
        const __m256d n2 = _mm256_cvtepi32_pd(_mm_loadu_si128(
            reinterpret_cast<const __m128i*>(sizes + t)));
        _mm256_storeu_pd(
            out + t,
            _mm256_div_pd(_mm256_loadu_pd(sums + t),
                          _mm256_sqrt_pd(_mm256_mul_pd(vm1, n2))));
      }
      for (; t < n; ++t) {
        out[t] = sums[t] / std::sqrt(m1 * static_cast<double>(sizes[t]));
      }
      return;
    case 3:  // kMaxSize
      for (; t + 4 <= n; t += 4) {
        const __m256d n2 = _mm256_cvtepi32_pd(_mm_loadu_si128(
            reinterpret_cast<const __m128i*>(sizes + t)));
        _mm256_storeu_pd(out + t, _mm256_div_pd(_mm256_loadu_pd(sums + t),
                                                _mm256_max_pd(vm1, n2)));
      }
      for (; t < n; ++t) {
        const double n2 = static_cast<double>(sizes[t]);
        out[t] = sums[t] / (n2 > m1 ? n2 : m1);
      }
      return;
    default:  // kProduct
      for (; t + 4 <= n; t += 4) {
        const __m256d n2 = _mm256_cvtepi32_pd(_mm_loadu_si128(
            reinterpret_cast<const __m128i*>(sizes + t)));
        _mm256_storeu_pd(out + t, _mm256_div_pd(_mm256_loadu_pd(sums + t),
                                                _mm256_mul_pd(vm1, n2)));
      }
      for (; t < n; ++t) {
        out[t] = sums[t] / (m1 * static_cast<double>(sizes[t]));
      }
      return;
  }
}

void CombineRow(const double* out_scores, const double* in_scores, double wo,
                double wi, const double* term_base, const int32_t* labels2,
                const double* prev_row, double* curr_row, size_t n,
                double* max_delta) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d vwo = _mm256_set1_pd(wo);
  const __m256d vwi = _mm256_set1_pd(wi);
  const __m256d abs_mask = _mm256_castsi256_pd(
      _mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFll));
  __m256d vdelta = zero;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d o =
        out_scores ? _mm256_mul_pd(vwo, _mm256_loadu_pd(out_scores + i))
                   : zero;
    const __m256d in =
        in_scores ? _mm256_mul_pd(vwi, _mm256_loadu_pd(in_scores + i))
                  : zero;
    __m256d term = zero;
    if (term_base) {
      const __m128i idx = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(labels2 + i));
      term = _mm256_i32gather_pd(term_base, idx, 8);
    }
    const __m256d value = _mm256_add_pd(_mm256_add_pd(o, in), term);
    _mm256_storeu_pd(curr_row + i, value);
    const __m256d d = _mm256_and_pd(
        abs_mask, _mm256_sub_pd(value, _mm256_loadu_pd(prev_row + i)));
    vdelta = _mm256_max_pd(vdelta, d);
  }
  double delta = HorizontalMax(vdelta);
  for (; i < n; ++i) {
    const double o = out_scores ? wo * out_scores[i] : 0.0;
    const double in = in_scores ? wi * in_scores[i] : 0.0;
    const double term = term_base ? term_base[labels2[i]] : 0.0;
    const double value = (o + in) + term;
    curr_row[i] = value;
    const double d = std::abs(value - prev_row[i]);
    if (d > delta) delta = d;
  }
  if (delta > *max_delta) *max_delta = delta;
}

void Fill(double* dst, size_t n, double value) {
  const __m256d v = _mm256_set1_pd(value);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) _mm256_storeu_pd(dst + i, v);
  for (; i < n; ++i) dst[i] = value;
}

void GatherRow(const double* base, const int32_t* idx, size_t n,
               double* dst) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i vidx = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(idx + i));
    _mm256_storeu_pd(dst + i, _mm256_i32gather_pd(base, vidx, 8));
  }
  for (; i < n; ++i) dst[i] = base[idx[i]];
}

void DegreeRatioRow(double d1, const double* d2, size_t n, double* dst) {
  const __m256d vd1 = _mm256_set1_pd(d1);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d ones = _mm256_set1_pd(1.0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d b = _mm256_loadu_pd(d2 + i);
    const __m256d mn = _mm256_min_pd(vd1, b);
    const __m256d mx = _mm256_max_pd(vd1, b);
    // Degrees are non-negative, so mx == 0 iff both degrees are 0 — the
    // scalar both-zero -> 1.0 convention; elsewhere IEEE division matches
    // the scalar quotient bit-for-bit (the 0/0 NaN lanes are blended away).
    const __m256d ratio = _mm256_div_pd(mn, mx);
    const __m256d both_zero = _mm256_cmp_pd(mx, zero, _CMP_EQ_OQ);
    _mm256_storeu_pd(dst + i, _mm256_blendv_pd(ratio, ones, both_zero));
  }
  for (; i < n; ++i) {
    const double b = d2[i];
    if (d1 == 0.0 && b == 0.0) {
      dst[i] = 1.0;
    } else {
      const double mn = d1 < b ? d1 : b;
      const double mx = d1 < b ? b : d1;
      dst[i] = mn / mx;
    }
  }
}

size_t FindFirstGe(const double* vals, size_t n, double threshold) {
  const __m256d thr = _mm256_set1_pd(threshold);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(vals + i);
    const int m =
        _mm256_movemask_pd(_mm256_cmp_pd(v, thr, _CMP_GE_OQ));
    if (m != 0) {
      return i + static_cast<size_t>(__builtin_ctz(static_cast<unsigned>(m)));
    }
  }
  for (; i < n; ++i) {
    if (vals[i] >= threshold) return i;
  }
  return n;
}

}  // namespace

const SimdKernels* Avx2Kernels() {
  static const SimdKernels kernels = {
      SimdLevel::kAvx2, &TileRowPass,    &TileRowPassColmax,
      &NormalizeTile,   &CombineRow,     &Fill,
      &GatherRow,       &DegreeRatioRow, &FindFirstGe,
  };
  return &kernels;
}

}  // namespace simd
}  // namespace fsim

#else  // !__AVX2__ || FSIM_SIMD_FORCE_SCALAR

namespace fsim {
namespace simd {

const SimdKernels* Avx2Kernels() { return nullptr; }

}  // namespace simd
}  // namespace fsim

#endif
