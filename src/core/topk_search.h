// Single-source top-k similarity search — the paper's stated future work
// (§7): "end-users are also interested in the top-k similarity search".
//
// For one source node u* the exact FSimχ(u*, ·) row can be obtained without
// materializing the all-pairs computation: after d iterations, FSim^d(u, v)
// depends only on pairs whose left node is within (undirected) distance d of
// u. TopKSearch therefore:
//   1. takes d from options.depth, or else from the Corollary 1 bound
//      (FSimIterationBound without config.max_iterations), and collects the
//      radius-d ball around u*;
//   2. hands it to the shared solver (core/fsim_solver.h): a partial ball
//      fills only its rows of the PairStore and runs d full sweeps, which
//      reproduces the unrestricted FSim^d(u*, ·) exactly; a
//      ball of every row is the all-pairs solve, on the tile panels when
//      the config runs on them, and a derived depth then stops once the
//      max delta drops below ε, as ComputeFSim does;
//   3. ranks row u* (FSimScores::TopK) with a certified error radius: over
//      every row the Theorem 1 residual Δ·w/(1 - w) of the last step's max
//      delta Δ, over a partial ball the Corollary 1 tail
//      |FSim(u*,v) - FSim^d(u*,v)| <= w^(d+1) / (1 - w), w = w+ + w-.
#ifndef FSIM_CORE_TOPK_SEARCH_H_
#define FSIM_CORE_TOPK_SEARCH_H_

#include <vector>

#include "common/result.h"
#include "core/fsim_config.h"
#include "graph/graph.h"

namespace fsim {

struct TopKResult {
  /// Candidates sorted by descending approximate score (ties by node id).
  std::vector<std::pair<NodeId, double>> ranking;
  /// Certified bound on |true score - reported score| for every candidate.
  double error_bound = 0.0;
  /// Pairs actually iterated (vs |ball| * |V2| worst case).
  size_t pairs_computed = 0;
  /// Steps run: options.depth, or the derived depth unless the delta
  /// stopped the solve earlier.
  uint32_t depth = 0;
};

struct TopKOptions {
  /// Iteration/locality depth d; 0 derives it from config.epsilon via the
  /// Corollary 1 bound (exact up to epsilon).
  uint32_t depth = 0;
  size_t k = 10;
};

/// Computes the top-k nodes of g2 most similar to `source` in g1 under the
/// given FSim configuration, honoring pin_diagonal, upper_bound (with α/β)
/// and num_threads as ComputeFSim does. The depth replaces
/// config.max_iterations (it controls both locality and iterations); the
/// epsilon stop applies only to a derived depth whose ball covers every
/// row. The steps always run as full sweeps, whatever
/// config.frontier_tolerance says. Fails with ResourceExhausted when the
/// ball's index (or, over every row at θ = 0 for s and b, the tile panels)
/// cannot fit config.neighbor_index_budget_bytes.
Result<TopKResult> TopKSearch(const Graph& g1, const Graph& g2, NodeId source,
                              const FSimConfig& config,
                              const TopKOptions& options = {});

}  // namespace fsim

#endif  // FSIM_CORE_TOPK_SEARCH_H_
