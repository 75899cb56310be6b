// Single-source top-k similarity search — the paper's stated future work
// (§7): "end-users are also interested in the top-k similarity search".
//
// For one source node u* the exact FSimχ(u*, ·) row can be obtained without
// materializing the all-pairs computation: after d iterations, FSim^d(u, v)
// depends only on pairs whose left node is within (undirected) distance d of
// u. TopKSearch therefore:
//   1. builds the shared PairStore with only the rows of the radius-d ball
//      around u* filled (right nodes only θ-filtered),
//   2. runs d exact active-set steps of the shared sparse driver
//      (ActiveSetDriver + PairEvaluator, as ComputeFSim) on it — which
//      reproduces the unrestricted FSim^d(u*, ·) exactly,
//   3. ranks row u* (FSimScores::TopK), carrying the Corollary-1 tail bound
//      |FSim(u*,v) - FSim^d(u*,v)| <= (w+ + w-)^(d+1) / (1 - w+ - w-)
//      as a certified error radius.
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
/// config.max_iterations and the epsilon stop (it controls both locality
/// and iterations; epsilon only derives a zero options.depth), and the
/// steps always run in exact active-set mode, whatever config.active_set
/// says. Fails with ResourceExhausted when the ball's neighbor index
/// cannot fit config.neighbor_index_budget_bytes.
Result<TopKResult> TopKSearch(const Graph& g1, const Graph& g2, NodeId source,
                              const FSimConfig& config,
                              const TopKOptions& options = {});

}  // namespace fsim

#endif  // FSIM_CORE_TOPK_SEARCH_H_
