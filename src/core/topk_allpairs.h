// Certified all-pairs top-k similarity search — the paper's §7 future work
// ("end-users are also interested in the top-k similarity search") for the
// *global* query: the k highest-scoring pairs (u, v) across V1 x V2.
//
// Rather than running Algorithm 1 to full convergence and sorting, the
// search exploits the Theorem 1 contraction: after a sweep with observed
// max-delta Δk, every final score lies within
//
//   r = Δk * w / (1 - w),       w = w+ + w-,
//
// of its current value. As soon as the k-th best current score exceeds the
// (k+1)-th best by more than 2r, the *identity* of the top-k set is certified
// and iteration can stop early — typically well before the ε-convergence the
// full computation needs. Reported scores carry the residual radius r.
//
// Certification is exact under MatchingAlgo::kHungarian (the contraction
// argument needs the true maximum mapping, Theorem 1's C3); under the greedy
// default it is sharp in practice and validated by the property tests.
//
// The steps are the shared solver's (core/fsim_solver.h), so the search
// takes ComputeFSim's path: the tile panels at θ = 0 for s and b, the CSR
// index otherwise, in full sweeps on both.
#ifndef FSIM_CORE_TOPK_ALLPAIRS_H_
#define FSIM_CORE_TOPK_ALLPAIRS_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/fsim_config.h"
#include "graph/graph.h"

namespace fsim {

/// Options for the global top-k search.
struct TopKPairsOptions {
  /// How many pairs to return.
  size_t k = 10;

  /// Skip pairs with u == v (useful for self-similarity runs, where the
  /// diagonal trivially dominates).
  bool exclude_diagonal = false;

  /// Keep sweeping past set-certification until ε-convergence, so the
  /// reported *scores* (not just the set) are final.
  bool converge_scores = false;
};

/// One result pair.
struct ScoredPair {
  NodeId u = 0;
  NodeId v = 0;
  double score = 0.0;  // current-iteration score, within `radius` of final
};

/// The outcome of a ComputeTopKPairs run.
struct TopKPairsResult {
  /// Descending by score (ties by (u, v)); size min(k, eligible pairs).
  std::vector<ScoredPair> pairs;

  /// True if the returned *set* provably equals the converged top-k set
  /// (strict 2r separation at the boundary). False when iteration hit the
  /// Corollary 1 cap with the boundary still ambiguous (e.g. exact ties).
  bool certified = false;

  /// Residual bound: every reported score is within this of its converged
  /// value.
  double radius = 0.0;

  uint32_t iterations = 0;

  /// Sweeps saved relative to the Corollary 1 full-convergence bound.
  uint32_t iteration_bound = 0;
};

/// Runs the iterative computation just long enough to certify the global
/// top-k pair set. Honors the full FSimConfig (variant, θ, upper-bound
/// updating — the search is then over the maintained candidate set), and
/// fails as ComputeFSim does, against the same index budget.
Result<TopKPairsResult> ComputeTopKPairs(const Graph& g1, const Graph& g2,
                                         const FSimConfig& config,
                                         const TopKPairsOptions& options);

}  // namespace fsim

#endif  // FSIM_CORE_TOPK_ALLPAIRS_H_
