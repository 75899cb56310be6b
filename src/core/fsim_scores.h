// The result of a ComputeFSim run: per-pair fractional χ-simulation scores
// with lookup and top-k queries, plus run statistics.
#ifndef FSIM_CORE_FSIM_SCORES_H_
#define FSIM_CORE_FSIM_SCORES_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/pair_space.h"
#include "graph/graph.h"

namespace fsim {

/// Statistics of a ComputeFSim run.
struct FSimStats {
  size_t theta_candidates = 0;  // pairs after the θ filter
  size_t maintained_pairs = 0;  // pairs actually iterated (after β pruning)
  size_t pruned_pairs = 0;      // pairs removed by upper-bound updating
  uint32_t iterations = 0;
  bool converged = false;
  double final_delta = 0.0;
  double build_seconds = 0.0;
  double iterate_seconds = 0.0;
  /// Heap footprint of the neighbor index the iterate loop ran on: the
  /// CSR index, or for a θ = 0 s/b run its tile panels plus its
  /// label-term table.
  size_t neighbor_index_bytes = 0;
  /// True when the index used the packed 8-byte entry layout (16-bit
  /// row/col), chosen whenever no weighted direction has a degree above
  /// 65536; false means the 12-byte layout.
  bool packed_neighbor_refs = false;
  /// max_{(u,v)} |FSim^k - FSim^{k-1}| per iteration, when
  /// FSimConfig::record_delta_history is set (Theorem 1: strictly
  /// decreasing).
  std::vector<double> delta_history;
  /// True when the iterate loop ran under tolerance frontiers
  /// (FSimConfig::frontier_tolerance > 0 and the neighbor index carries
  /// reverse-dependency spans — it does not when only the widened span
  /// layout would have exceeded the budget). Always false for a θ = 0 s/b
  /// run, which iterates on the tile panels in full sweeps.
  bool active_set = false;
  /// Pairs evaluated per iteration under tolerance frontiers (the first
  /// entry is the full maintained-pair count; later entries shrink as
  /// pairs freeze). Empty when active_set is false.
  std::vector<size_t> active_pairs_history;
  /// Fraction of the iterate loop's pair evaluations the frontiers
  /// skipped: 1 - evaluated / (iterations * maintained_pairs). 0 when
  /// active_set is false.
  double frozen_fraction = 0.0;
  /// Accumulated time spent building frontiers from the per-worker
  /// influence marks (part of iterate_seconds).
  double frontier_build_seconds = 0.0;
  /// Iterations that ran as full sweeps: the first one, plus every
  /// frontier at or above FSimConfig::frontier_density_threshold.
  uint32_t full_sweep_iterations = 0;
  /// Resolved vectorized kernel level of the run (core/simd/kernels.h
  /// SimdLevel: 0 = scalar, 1 = AVX2, 2 = AVX-512). Only θ = 0 s/b runs
  /// iterate on the kernels (core/panel_engine.h); every other run
  /// reports 0.
  uint32_t simd_level = 0;
  /// The part of neighbor_index_bytes taken by the precomputed SoA tile
  /// panels (core/simd/tile_panel.h) of a θ = 0 s/b run, built at every
  /// SIMD level; 0 for runs on the CSR neighbor index.
  size_t simd_panel_bytes = 0;
};

/// Immutable score container: one value per pair of a shared PairSpace.
/// Pairs are sorted (u-major), so all scores for one u form a contiguous
/// range.
class FSimScores {
 public:
  /// No pairs: every lookup answers 0.
  FSimScores() : space_(PairSpace::Empty()) {}
  /// `values` holds one score per pair of `space`, in slot order.
  FSimScores(std::shared_ptr<const PairSpace> space,
             std::vector<double> values, FSimStats stats);

  /// FSimχ(u, v); 0 for pairs outside the maintained candidate set,
  /// including out-of-range ids.
  double Score(NodeId u, NodeId v) const {
    const uint32_t slot = space_->Find(u, v);
    return slot == PairSpace::kNotFound ? 0.0 : values_[slot];
  }

  /// True if (u,v) was maintained (score 0 is then a real score, not a
  /// missing pair).
  bool Contains(NodeId u, NodeId v) const {
    return space_->Find(u, v) != PairSpace::kNotFound;
  }

  size_t NumPairs() const { return values_.size(); }

  /// The k highest-scoring v for a fixed u, descending (ties by node id).
  /// This is the paper's future-work top-k similarity query, answerable
  /// directly from the container. Bounded-heap selection: O(row log k) time
  /// and O(k) extra space, so serving-path calls never materialize a row.
  std::vector<std::pair<NodeId, double>> TopK(NodeId u, size_t k) const;

  /// TopK appending into a caller-owned buffer (no per-call allocation once
  /// out has capacity >= k); returns the number of entries appended. The
  /// snapshot top-k cache builder (serve/snapshot.h) calls this per row.
  size_t TopKInto(NodeId u, size_t k,
                  std::vector<std::pair<NodeId, double>>* out) const;

  /// All (v, score) for one u (unsorted by score; ascending v).
  std::vector<std::pair<NodeId, double>> Row(NodeId u) const;

  const std::vector<uint64_t>& keys() const { return space_->keys(); }
  const std::vector<double>& values() const { return values_; }
  const FSimStats& stats() const { return stats_; }
  /// The pair space the values are laid out in, shared by every container
  /// built on it.
  const std::shared_ptr<const PairSpace>& space() const { return space_; }

 private:
  std::shared_ptr<const PairSpace> space_;
  std::vector<double> values_;
  FSimStats stats_;
};

/// A frozen, shareable score container. Snapshot-based consumers (the
/// serving layer) hold one of these per version; copies are refcount bumps.
using SharedFSimScores = std::shared_ptr<const FSimScores>;

/// Freezes a score container into shared ownership without copying the
/// score table (the moved-from object is left empty).
inline SharedFSimScores FreezeScores(FSimScores&& scores) {
  return std::make_shared<const FSimScores>(std::move(scores));
}

}  // namespace fsim

#endif  // FSIM_CORE_FSIM_SCORES_H_
