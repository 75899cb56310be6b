// Runtime selection of the vectorized kernel level (core/simd/kernels.h).
//
// Precedence, resolved per ComputeFSim run on the θ = 0 tile panels
// (core/panel_engine.h; runs on the CSR neighbor index use no kernels),
// and once for the process-wide consumers that have no config, like
// TopKInto:
//   1. -DFSIM_SIMD_FORCE_SCALAR (build flag): always scalar.
//   2. FSIM_SIMD environment variable: off | avx2 | avx512 | auto
//      (invalid values are ignored).
//   3. FSimConfig::simd (default kAuto).
// The requested ceiling then clamps down to the best level that is both
// compiled into this binary (kernel table non-null) and usable on the host
// (HostCpuFeatures), so requesting avx512 on an AVX2-only machine runs the
// AVX2 kernels and a portable build runs scalar everywhere.
#ifndef FSIM_CORE_SIMD_DISPATCH_H_
#define FSIM_CORE_SIMD_DISPATCH_H_

#include <string_view>

#include "core/fsim_config.h"
#include "core/simd/kernels.h"

namespace fsim {
namespace simd {

/// "off" | "avx2" | "avx512" — the stable spelling used by FSIM_SIMD, the
/// fsim_cli --simd flag, STATS and the bench output.
const char* SimdLevelName(SimdLevel level);

/// Parses a SimdMode spelling (off|scalar|avx2|avx512|auto). Returns false
/// (and leaves *out untouched) on anything else.
bool ParseSimdMode(std::string_view text, SimdMode* out);

/// Resolves the effective kernel level for the given config ceiling, per
/// the precedence above, and publishes it to the fsim_simd_level gauge.
SimdLevel ResolveSimdLevel(SimdMode config_mode);

/// The kernel table for a resolved level. Always non-null: levels come out
/// of ResolveSimdLevel, which only returns compiled-in usable levels.
const SimdKernels& KernelsFor(SimdLevel level);

}  // namespace simd
}  // namespace fsim

#endif  // FSIM_CORE_SIMD_DISPATCH_H_
