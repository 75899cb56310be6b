// Dense-mode FSimχ engine: the same iterative computation as ComputeFSim
// (Algorithm 1) carried out over the full |V1| x |V2| score matrix in two
// flat buffers, with no candidate store, no hashing and no pruning.
//
// It exists for the one case where it beats the sparse engine: the
// max-family mappings (s, b) at θ = 0, where every pair is a candidate
// (docs/performance.md "Dense engine"). Other mappings are rejected with
// InvalidArgument; ComputeFSim serves them. bench/bench_ablation keeps the
// sparse-vs-dense table that decides whether the engine stays.
//
// Dense mode computes a score for *every* pair, including label-incompatible
// ones (which the sparse engine does not maintain); those extra scores follow
// the same recurrence but never feed back through the mapping operators, so
// agreement on compatible pairs is exact.
//
// The iterate loop is one realization at every SIMD level: per (8-row
// chunk, 256-column v-tile), each S1 row walks its label class's work list
// in the tile's SoA candidate panel (core/simd/tile_panel.h) through the
// kernel table of the resolved level (core/simd/kernels.h; FSIM_SIMD=off
// selects the scalar kernels). The panels are built from the label-class
// index of core/dense_index.h. Index and panels are bounded together
// against FSimConfig::neighbor_index_budget_bytes before either is built: a
// run that does not fit fails with ResourceExhausted. tests/naive_fsim.h
// keeps the per-visit label-check + lookup evaluation of Equation 3 as the
// oracle the engine is checked against.
#ifndef FSIM_CORE_DENSE_ENGINE_H_
#define FSIM_CORE_DENSE_ENGINE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/aligned.h"
#include "common/result.h"
#include "core/fsim_config.h"
#include "core/fsim_scores.h"
#include "graph/graph.h"

namespace fsim {

/// The converged dense score matrix of a ComputeFSimDense run.
class DenseFSimScores {
 public:
  DenseFSimScores() = default;
  DenseFSimScores(size_t n1, size_t n2, AlignedVector<double> values,
                  FSimStats stats)
      : n1_(n1), n2_(n2), values_(std::move(values)), stats_(std::move(stats)) {
    FSIM_DCHECK(values_.size() == n1_ * n2_);
  }

  size_t n1() const { return n1_; }
  size_t n2() const { return n2_; }

  /// FSimχ(u, v); defined for every pair (dense storage).
  double Score(NodeId u, NodeId v) const {
    FSIM_DCHECK(u < n1_ && v < n2_);
    return values_[static_cast<size_t>(u) * n2_ + v];
  }

  /// The k highest-scoring v for a fixed u, descending (ties by node id).
  std::vector<std::pair<NodeId, double>> TopK(NodeId u, size_t k) const;

  /// Row-major n1 x n2 matrix, 64-byte aligned (the engine's double-buffer
  /// panels are AlignedVector so the vectorized kernels see aligned bases).
  const AlignedVector<double>& values() const { return values_; }
  const FSimStats& stats() const { return stats_; }

 private:
  size_t n1_ = 0;
  size_t n2_ = 0;
  AlignedVector<double> values_;  // row-major, n1 x n2
  FSimStats stats_;
};

/// Computes fractional χ-simulation scores for all |V1| x |V2| pairs with
/// dense-matrix iteration. Semantics match ComputeFSim for every pair the
/// sparse engine maintains; the label-constrained mapping (θ) is honored
/// inside the operators.
///
/// Restrictions (InvalidArgument unless noted), checked before anything is
/// allocated except the last: the mapping must be kMaxPerRow or
/// kMaxBothSides; upper-bound updating is not supported (config.upper_bound
/// must be false — pruning is exactly what dense mode ablates away);
/// |V1| * |V2| must not exceed config.pair_limit; and the label-class index
/// plus the tile panels must fit config.neighbor_index_budget_bytes
/// (ResourceExhausted otherwise).
Result<DenseFSimScores> ComputeFSimDense(const Graph& g1, const Graph& g2,
                                         const FSimConfig& config);

}  // namespace fsim

#endif  // FSIM_CORE_DENSE_ENGINE_H_
