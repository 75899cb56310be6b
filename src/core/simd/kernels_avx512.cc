// AVX-512 realization of the kernel table (core/simd/kernels.h). Compiled
// per-file with -mavx512f -mavx512bw -mavx512dq -mavx512vl (plus
// -ffp-contract=off); guarded so any build missing those flags degrades to
// a nullptr table the dispatcher clamps down past.
//
// The row pass uses the VL subset at 256-bit width: one PanelWorkItem
// nibble is four panel slots, one __mmask8 (low four bits), one 256-bit
// masked gather (see kernels.h), and the mask feeds the gather directly
// with no LUT. The flat kernels (combine, seeding, normalize,
// prescan) run full 512-bit. Bit-identity follows the same contract as
// the AVX2 file: VMAXPD only for maxima (+0.0 masked lanes = scalar
// seed), VMULPD + VADDPD in scalar association for combine_row, never
// VFMADD.
#include "core/simd/kernels.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512DQ__) && \
    defined(__AVX512VL__) && !defined(FSIM_SIMD_FORCE_SCALAR)

#include <immintrin.h>

#include <cmath>

namespace fsim {
namespace simd {

namespace {

constexpr uint32_t kNoEntry = ~0u;

inline double HorizontalMax256(__m256d v) {
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
        const double b = HorizontalMax256(best);
        if (b > 0.0) acc[cur] += b;
      }
      cur = it.entry;
      best = zero;
    }
    const __mmask8 m = static_cast<__mmask8>(it.mask);
    const __m128i idx = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(ids + it.slot));
    const __m256d g = _mm256_mmask_i32gather_pd(zero, m, idx, prev_row, 8);
    best = _mm256_max_pd(best, g);
    if constexpr (kColmax) {
      double* c = colmax + it.slot;
      _mm256_store_pd(c, _mm256_max_pd(_mm256_load_pd(c), g));
    }
  }
  if (cur != kNoEntry) {
    const double b = HorizontalMax256(best);
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
  const __m512d vm1 = _mm512_set1_pd(m1);
  size_t t = 0;
  // Per-kind vector loops: IEEE convert/add/mul/sqrt/divide are per-lane
  // identical to the scalar OmegaValue expression (kernels.h contract).
  switch (omega_kind) {
    case 0:  // kSizeS1
      for (; t + 8 <= n; t += 8) {
        _mm512_storeu_pd(out + t,
                         _mm512_div_pd(_mm512_loadu_pd(sums + t), vm1));
      }
      for (; t < n; ++t) out[t] = sums[t] / m1;
      return;
    case 1:  // kSumSizes
      for (; t + 8 <= n; t += 8) {
        const __m512d n2 = _mm512_cvtepi32_pd(_mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(sizes + t)));
        _mm512_storeu_pd(out + t, _mm512_div_pd(_mm512_loadu_pd(sums + t),
                                                _mm512_add_pd(vm1, n2)));
      }
      for (; t < n; ++t) {
        out[t] = sums[t] / (m1 + static_cast<double>(sizes[t]));
      }
      return;
    case 2:  // kGeoMean
      for (; t + 8 <= n; t += 8) {
        const __m512d n2 = _mm512_cvtepi32_pd(_mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(sizes + t)));
        _mm512_storeu_pd(
            out + t,
            _mm512_div_pd(_mm512_loadu_pd(sums + t),
                          _mm512_sqrt_pd(_mm512_mul_pd(vm1, n2))));
      }
      for (; t < n; ++t) {
        out[t] = sums[t] / std::sqrt(m1 * static_cast<double>(sizes[t]));
      }
      return;
    case 3:  // kMaxSize
      for (; t + 8 <= n; t += 8) {
        const __m512d n2 = _mm512_cvtepi32_pd(_mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(sizes + t)));
        _mm512_storeu_pd(out + t, _mm512_div_pd(_mm512_loadu_pd(sums + t),
                                                _mm512_max_pd(vm1, n2)));
      }
      for (; t < n; ++t) {
        const double n2 = static_cast<double>(sizes[t]);
        out[t] = sums[t] / (n2 > m1 ? n2 : m1);
      }
      return;
    default:  // kProduct
      for (; t + 8 <= n; t += 8) {
        const __m512d n2 = _mm512_cvtepi32_pd(_mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(sizes + t)));
        _mm512_storeu_pd(out + t, _mm512_div_pd(_mm512_loadu_pd(sums + t),
                                                _mm512_mul_pd(vm1, n2)));
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
  const __m512d zero = _mm512_setzero_pd();
  const __m512d vwo = _mm512_set1_pd(wo);
  const __m512d vwi = _mm512_set1_pd(wi);
  __m512d vdelta = zero;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d o =
        out_scores ? _mm512_mul_pd(vwo, _mm512_loadu_pd(out_scores + i))
                   : zero;
    const __m512d in =
        in_scores ? _mm512_mul_pd(vwi, _mm512_loadu_pd(in_scores + i))
                  : zero;
    __m512d term = zero;
    if (term_base) {
      const __m256i idx = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(labels2 + i));
      term = _mm512_i32gather_pd(idx, term_base, 8);
    }
    const __m512d value = _mm512_add_pd(_mm512_add_pd(o, in), term);
    _mm512_storeu_pd(curr_row + i, value);
    const __m512d d =
        _mm512_abs_pd(_mm512_sub_pd(value, _mm512_loadu_pd(prev_row + i)));
    vdelta = _mm512_max_pd(vdelta, d);
  }
  double delta = _mm512_reduce_max_pd(vdelta);
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
  const __m512d v = _mm512_set1_pd(value);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) _mm512_storeu_pd(dst + i, v);
  for (; i < n; ++i) dst[i] = value;
}

void GatherRow(const double* base, const int32_t* idx, size_t n,
               double* dst) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i vidx = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(idx + i));
    _mm512_storeu_pd(dst + i, _mm512_i32gather_pd(vidx, base, 8));
  }
  for (; i < n; ++i) dst[i] = base[idx[i]];
}

void DegreeRatioRow(double d1, const double* d2, size_t n, double* dst) {
  const __m512d vd1 = _mm512_set1_pd(d1);
  const __m512d zero = _mm512_setzero_pd();
  const __m512d ones = _mm512_set1_pd(1.0);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d b = _mm512_loadu_pd(d2 + i);
    const __m512d mn = _mm512_min_pd(vd1, b);
    const __m512d mx = _mm512_max_pd(vd1, b);
    // mx == 0 iff both degrees are zero (degrees are non-negative): those
    // lanes take the scalar 1.0 convention, the rest the exact IEEE
    // quotient.
    const __m512d ratio = _mm512_div_pd(mn, mx);
    const __mmask8 both_zero = _mm512_cmp_pd_mask(mx, zero, _CMP_EQ_OQ);
    _mm512_storeu_pd(dst + i, _mm512_mask_mov_pd(ratio, both_zero, ones));
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
  const __m512d thr = _mm512_set1_pd(threshold);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __mmask8 m = _mm512_cmp_pd_mask(_mm512_loadu_pd(vals + i), thr,
                                          _CMP_GE_OQ);
    if (m != 0) {
      return i + static_cast<size_t>(
                     __builtin_ctz(static_cast<unsigned>(m)));
    }
  }
  for (; i < n; ++i) {
    if (vals[i] >= threshold) return i;
  }
  return n;
}

}  // namespace

const SimdKernels* Avx512Kernels() {
  static const SimdKernels kernels = {
      SimdLevel::kAvx512, &TileRowPass,    &TileRowPassColmax,
      &NormalizeTile,     &CombineRow,     &Fill,
      &GatherRow,         &DegreeRatioRow, &FindFirstGe,
  };
  return &kernels;
}

}  // namespace simd
}  // namespace fsim

#else  // missing AVX-512 subset || FSIM_SIMD_FORCE_SCALAR

namespace fsim {
namespace simd {

const SimdKernels* Avx512Kernels() { return nullptr; }

}  // namespace simd
}  // namespace fsim

#endif
