// The vectorized kernel table of the θ = 0 tile-panel loop
// (core/panel_engine.h) and of FSimScores::TopKInto's prescan
// (docs/performance.md "Vectorized tile kernels").
//
// Three interchangeable realizations — scalar (always built, the
// reference), AVX2 and AVX-512 (compiled per-file with the matching -m
// flags, selected at runtime via core/simd/dispatch.h) — implement the
// same value contract:
//
//  * tile_row_pass / tile_row_pass_colmax — one S1-row pass over a tile
//    panel's work list (core/simd/tile_panel.h): masked gathers
//    of previous-iteration scores, a running per-tile-entry maximum, and
//    (for the both-sides operator) a slot-space column-maximum panel.
//  * normalize_tile — the tile finalize sums[t] / Ωχ(|S1|, |S2_t|), the
//    per-entry omega switch hoisted out and the division vectorized.
//  * combine_row — the iterate loop's w+·out + w-·in + label-term
//    combine with running max-|delta| reduction.
//  * fill / gather_row / degree_ratio_row — the full-matrix FSim^0
//    seeding pass, one kernel per InitKind shape.
//  * find_first_ge — the TopKInto score-reject prescan.
//
// Bit-identity contract: every vector kernel produces results bit-identical
// to the scalar kernels (kernels_scalar.cc), so the panel loop returns
// the same scores at every level. The load-bearing facts are (1) max
// over doubles is exact and order-free, (2) scores are non-negative, so a
// masked-out lane contributing +0.0 equals the scalar loop's `best = 0.0`
// seed, and (3) combine_row uses separate
// multiply and add (never FMA — its single rounding would diverge from
// the scalar expression) in the scalar association ((w+·o) + (w-·i)) + L.
// tests/simd_kernel_test.cc sweeps all levels against each other.
#ifndef FSIM_CORE_SIMD_KERNELS_H_
#define FSIM_CORE_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace fsim {
namespace simd {

/// Kernel realization, ordered by capability. Numeric values are stable
/// (reported through FSimStats::simd_level and the fsim_simd_level gauge).
enum class SimdLevel : uint8_t {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// One unit of tile-row work: a 4-slot nibble of a tile panel holding at
/// least one candidate. Each panel precomputes its work list — see
/// TilePanel — so the row pass never scans pad slots. The 4-slot
/// granularity matches one AVX2 gather of doubles; only an entry's last
/// nibble can be partially masked.
struct PanelWorkItem {
  uint32_t slot;   // first panel slot of the nibble; always a multiple of 4
  uint16_t entry;  // tile entry the nibble belongs to
  uint8_t mask;    // candidate bits 0..3: bit i = slot + i is a
                   // candidate; != 0, bits 4..7 always clear
  uint8_t reserved = 0;
};
static_assert(sizeof(PanelWorkItem) == 8, "work items are 8-byte packed");

/// One S1-row pass over a panel's work list. Items are sorted by slot,
/// hence grouped by ascending entry. Per entry present in the list:
///   best = max over set mask bits of prev_row[ids[slot + i]]  (>= 0)
///   if best > 0: acc[entry] += best
/// Skipping the += for best == 0 is bit-identical to the scalar
/// `acc[t] += best` (adding +0.0 to a non-negative accumulator is exact).
/// Entries absent from the list (no candidate) contribute nothing,
/// exactly like the scalar best = 0.0 rows.
typedef void (*TileRowPassFn)(const PanelWorkItem* items, size_t n_items,
                              const int32_t* ids, const double* prev_row,
                              double* acc);

/// tile_row_pass plus the both-sides column maxima: for every slot of each
/// item's nibble, colmax[slot + i] = max(colmax[slot + i], masked value),
/// where masked-out lanes contribute +0.0 (a no-op against the
/// non-negative colmax panel). colmax must be 64-byte aligned; item slots
/// are multiples of 4 so each nibble's 4 doubles are one aligned 32-byte
/// vector.
typedef void (*TileRowPassColmaxFn)(const PanelWorkItem* items,
                                    size_t n_items, const int32_t* ids,
                                    const double* prev_row, double* acc,
                                    double* colmax);

/// The iterate loop's per-row combine over one v-tile segment:
///   curr[i] = (out ? wo·out[i] : 0.0) + (in ? wi·in[i] : 0.0) + term_i
///   term_i  = term_base ? term_base[labels2[i]] : 0.0
///   *max_delta = max(*max_delta, max_i |curr[i] - prev[i]|)
/// out_scores / in_scores / term_base may be null (zero-weight direction,
/// empty label-term table); the association and rounding match the scalar
/// expression exactly (multiply then add; no FMA).
typedef void (*CombineRowFn)(const double* out_scores,
                             const double* in_scores, double wo, double wi,
                             const double* term_base, const int32_t* labels2,
                             const double* prev_row, double* curr_row,
                             size_t n, double* max_delta);

/// The tile finalize: out[t] = sums[t] / Ωχ(|S1|, sizes[t]) for t in
/// [0, n). `omega_kind` is the OmegaKind enum's integer value
/// (static_asserted at the engine's call site):
///   0 = |S1|, 1 = |S1| + |S2|, 2 = sqrt(|S1| · |S2|), 3 = max(|S1|, |S2|),
///   4 = |S1| · |S2|.
/// `m1` is the pre-converted double of |S1|. Bit-identical to the scalar
/// per-entry OmegaValue + divide: the integer-to-double conversions are
/// exact (sizes < 2^31 << 2^53, so size_t addition before conversion
/// equals double addition after), and IEEE multiply/sqrt/divide are
/// per-lane deterministic. A zero omega (e.g. the product family against
/// an empty S2) yields the same NaN/inf the scalar division does.
typedef void (*NormalizeTileFn)(const double* sums, const uint32_t* sizes,
                                size_t n, uint32_t omega_kind, double m1,
                                double* out);

/// dst[i] = value for i in [0, n).
typedef void (*FillFn)(double* dst, size_t n, double value);

/// dst[i] = base[idx[i]] (the kLabelSim seeding gather: base is the row's
/// L(ℓ(u), ·) value per g2 label, idx g2's per-node label numbers).
typedef void (*GatherRowFn)(const double* base, const int32_t* idx, size_t n,
                            double* dst);

/// dst[i] = (d1 == 0 && d2[i] == 0) ? 1.0 : min(d1, d2[i]) / max(d1, d2[i])
/// — the RoleSim kDegreeRatio seed; IEEE division makes the vector and
/// scalar values identical.
typedef void (*DegreeRatioRowFn)(double d1, const double* d2, size_t n,
                                 double* dst);

/// Index of the first vals[i] >= threshold, or n when none qualifies — the
/// exact complement of TopKInto's `score < heap_top` reject, so the
/// candidate set (and hence the result) is unchanged at any level.
typedef size_t (*FindFirstGeFn)(const double* vals, size_t n,
                                double threshold);

/// One level's kernel realization. All pointers are non-null in a table
/// returned by the accessors below.
struct SimdKernels {
  SimdLevel level = SimdLevel::kScalar;
  TileRowPassFn tile_row_pass = nullptr;
  TileRowPassColmaxFn tile_row_pass_colmax = nullptr;
  NormalizeTileFn normalize_tile = nullptr;
  CombineRowFn combine_row = nullptr;
  FillFn fill = nullptr;
  GatherRowFn gather_row = nullptr;
  DegreeRatioRowFn degree_ratio_row = nullptr;
  FindFirstGeFn find_first_ge = nullptr;
};

/// The always-available scalar reference kernels.
const SimdKernels& ScalarKernels();

/// The AVX2 kernels, or nullptr when this binary was not built with the
/// AVX2 code path (non-x86 target or -DFSIM_SIMD_FORCE_SCALAR). Host
/// support is NOT checked here — dispatch.h gates on HostCpuFeatures().
const SimdKernels* Avx2Kernels();

/// The AVX-512 kernels, or nullptr when not compiled in (see Avx2Kernels).
const SimdKernels* Avx512Kernels();

}  // namespace simd
}  // namespace fsim

#endif  // FSIM_CORE_SIMD_KERNELS_H_
