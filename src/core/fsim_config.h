// Configuration of the FSimχ computation framework (§3-§4). A config selects
// the simulation variant (which fixes the mapping/normalizing operators of
// Table 3), the weighting factors w+ / w-, the label function L(·), the two
// optimizations (label-constrained mapping θ, upper-bound updating α/β), the
// convergence policy and the degree of parallelism. Factory functions
// produce the SimRank and RoleSim configurations of §4.3.
#ifndef FSIM_CORE_FSIM_CONFIG_H_
#define FSIM_CORE_FSIM_CONFIG_H_

#include <cstdint>
#include <optional>

#include "exact/exact_simulation.h"
#include "label/label_similarity.h"

namespace fsim {

/// How the mapping operator Mχ selects node pairs from S1 x S2 (Table 3).
enum class MappingKind {
  /// fs: every x in S1 maps to its best compatible y (simple simulation).
  kMaxPerRow,
  /// fdp: injective mapping of min(|S1|,|S2|) nodes; vacuously perfect when
  /// S1 is empty (degree-preserving simulation).
  kInjectiveRow,
  /// fb: every x in S1 maps to its best y AND every y in S2 maps to its best
  /// x (bisimulation).
  kMaxBothSides,
  /// fbj: injective mapping from the smaller side into the larger;
  /// vacuously perfect only when both sides are empty (bijective
  /// simulation, RoleSim).
  kInjectiveSym,
  /// All pairs S1 x S2 (the SimRank configuration of §4.3).
  kProduct,
};

/// The normalizing operator Ωχ (Table 3).
enum class OmegaKind {
  kSizeS1,    // |S1|            (s, dp)
  kSumSizes,  // |S1| + |S2|     (b)
  kGeoMean,   // sqrt(|S1||S2|)  (bj)
  kMaxSize,   // max(|S1|,|S2|)  (RoleSim)
  kProduct,   // |S1| * |S2|     (SimRank)
};

/// How the injective operators realize the maximum mapping (C3 of
/// Theorem 1). The paper uses the greedy ½-approximate Hungarian [23];
/// kHungarian is the exact O(n^3) algorithm under which C3 (and hence the
/// simulation-definiteness proof) holds exactly.
enum class MatchingAlgo { kGreedy, kHungarian };

/// A (mapping, normalizing) operator pair.
struct OperatorConfig {
  MappingKind mapping = MappingKind::kInjectiveSym;
  OmegaKind omega = OmegaKind::kGeoMean;
};

/// The Table 3 operators for a χ variant.
OperatorConfig OperatorsForVariant(SimVariant variant);

/// FSim^0 initialization (§3.3 and §4.3).
enum class InitKind {
  kLabelSim,            // L(u,v) — the paper's default
  kIndicatorDiagonal,   // 1 iff u == v (SimRank)
  kDegreeRatio,         // min(d+(u),d+(v)) / max(d+(u),d+(v)) (RoleSim)
  kOnes,                // 1 everywhere
};

/// The additive (1 - w+ - w-) * L(u,v) term of Equation 1/3.
enum class LabelTermKind {
  kLabelSim,  // L(u,v)
  kZero,      // 0 (SimRank: label-free)
  kOne,       // 1 (RoleSim: the β "decay" becomes an additive constant)
};

/// Which vectorized kernel level ComputeFSim's θ = 0 tile-panel loop for
/// the s and b mappings may use (core/simd/dispatch.h; docs/performance.md
/// "Vectorized tile kernels"); runs on the CSR neighbor index ignore it.
/// A request above what the binary carries or the host supports clamps
/// down (kAvx512 -> kAvx2 -> scalar); every level runs the same tile-panel
/// loop and produces bit-identical scores, so this is purely a performance
/// knob. The FSIM_SIMD environment variable (off|avx2|avx512|auto)
/// overrides the config value.
enum class SimdMode {
  kOff,     // scalar kernels only
  kAvx2,    // at most the AVX2 kernels
  kAvx512,  // at most the AVX-512 kernels
  kAuto,    // best compiled-in level the host supports (the default)
};

/// Full configuration of a ComputeFSim run.
struct FSimConfig {
  /// Simulation variant χ; fixes Mχ/Ωχ unless operator_override is set.
  SimVariant variant = SimVariant::kBijective;

  /// Weighting factors: w+ (out-neighbors) and w- (in-neighbors);
  /// 0 <= w+, 0 <= w-, w+ + w- < 1 (Equation 1). The paper's experiments
  /// use w+ = w- = 0.4 (i.e. w* = 0.2).
  double w_out = 0.4;
  double w_in = 0.4;

  /// Label function L(·): indicator, normalized edit distance or
  /// Jaro-Winkler (§3.2).
  LabelSimKind label_sim = LabelSimKind::kIndicator;

  /// Label-constrained mapping threshold θ (Remark 2): only pairs with
  /// L >= θ participate (θ=0: arbitrary mapping; θ=1: same label only).
  double theta = 0.0;

  /// Upper-bound updating (§3.4, Eq. 6): drop candidate pairs whose bound is
  /// <= beta and approximate their lookups by alpha * bound. The paper
  /// defaults to beta = 0.5 and alpha = 0.
  bool upper_bound = false;
  double alpha = 0.0;
  double beta = 0.5;

  /// Convergence: stop when max |FSim^k - FSim^(k-1)| < epsilon. The
  /// experiments terminate "when the values changed by less than 0.01".
  /// Every iteration is Algorithm 1's synchronous full sweep over all
  /// maintained pairs, which Theorem 1 and Corollary 1 speak about; only
  /// IncrementalFSim's edit repair skips pairs (IncrementalOptions).
  double epsilon = 0.01;

  /// Hard iteration cap; 0 uses the Corollary 1 bound
  /// ceil(log_{w+ + w-}(epsilon)).
  uint32_t max_iterations = 0;

  /// Worker threads for the per-pair update loop (§3.4 Parallelization).
  int num_threads = 1;

  InitKind init = InitKind::kLabelSim;
  LabelTermKind label_term = LabelTermKind::kLabelSim;
  MatchingAlgo matching = MatchingAlgo::kGreedy;

  /// Overrides the Table 3 operators (used by the SimRank/RoleSim
  /// configurations of §4.3).
  std::optional<OperatorConfig> operator_override;

  /// Keep FSim(u,u) pinned to 1 on every iteration (SimRank semantics; only
  /// meaningful for self-similarity runs).
  bool pin_diagonal = false;

  /// Record max-delta per iteration (for the Theorem 1 monotonicity tests).
  bool record_delta_history = false;

  /// Abort with InvalidArgument if the candidate-pair count would exceed
  /// this (memory safety valve).
  uint64_t pair_limit = 100'000'000;

  /// Memory ceiling for the neighbor index every engine iterates through
  /// (bytes): the sparse engines' pair-graph CSR index (PairStore), which
  /// materializes per maintained pair the label-compatible candidate pairs
  /// of N±(u) x N±(v) as direct score-array references — the incremental
  /// engine keeps the same index under edits, always in its reverse-span
  /// layout; the tile panels plus the label-term table of a θ = 0 s/b
  /// ComputeFSim run (core/panel_engine.h).
  /// A run whose index bound exceeds it fails with ResourceExhausted naming
  /// the bytes it needs, and an incremental edge insert that could grow the
  /// index past it is rejected before the graph changes. Must be positive.
  /// The budget covers the index itself; the sparse build additionally
  /// holds one chunk (PairStore::kChunkPairs pairs) of classification
  /// scratch per worker while it runs.
  uint64_t neighbor_index_budget_bytes = 1ULL << 30;

  /// Vectorized kernel ceiling for the θ = 0 tile panels (see SimdMode).
  /// The FSIM_SIMD environment variable takes precedence when set to a
  /// valid value; -DFSIM_SIMD_FORCE_SCALAR builds ignore both.
  SimdMode simd = SimdMode::kAuto;

  /// The effective operator pair.
  OperatorConfig operators() const {
    return operator_override ? *operator_override
                             : OperatorsForVariant(variant);
  }
};

/// The Corollary 1 convergence bound ⌈log_w(ε)⌉ (>= 1; 1 when w <= 0),
/// w = w+ + w-: after that many sweeps every change is below ε.
uint32_t CorollaryOneBound(double w, double epsilon);

/// The engines' shared iteration cap: config.max_iterations when set,
/// otherwise CorollaryOneBound(w+ + w-, ε).
uint32_t FSimIterationBound(const FSimConfig& config);

/// §4.3: FSimχ configured to compute SimRank with decay factor c on a single
/// (label-free) graph: w+ = 0, w- = c, M = S1 x S2, Ω = |S1||S2|, L = 0,
/// FSim^0 = 1 iff u = v, diagonal pinned.
FSimConfig SimRankFSimConfig(double c = 0.8);

/// §4.3: FSimχ configured to compute RoleSim with decay β on an undirected
/// adaptation (Graph::AsUndirected): w+ = 1-β, w- = 0, bj-style injective
/// mapping with Ω = max(|S1|,|S2|) (RoleSim's own normalizer), L = 1,
/// FSim^0 = degree ratio.
FSimConfig RoleSimFSimConfig(double beta = 0.1);

}  // namespace fsim

#endif  // FSIM_CORE_FSIM_CONFIG_H_
