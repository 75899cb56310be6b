#include "core/topk_search.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/fsim_engine.h"
#include "core/fsim_solver.h"
#include "graph/traversal.h"

namespace fsim {

Result<TopKResult> TopKSearch(const Graph& g1, const Graph& g2, NodeId source,
                              const FSimConfig& config,
                              const TopKOptions& options) {
  FSIM_RETURN_NOT_OK(ValidateFSimConfig(g1, g2, config));
  if (source >= g1.NumNodes()) {
    return Status::InvalidArgument("source node out of range");
  }
  // The solve runs `depth` full sweeps at most.
  FSimConfig solve = config;
  solve.max_iterations = 0;
  const uint32_t depth =
      options.depth > 0 ? options.depth : FSimIterationBound(solve);
  solve.max_iterations = depth;

  // The rows of left nodes within the radius-`depth` ball of the source
  // (the full dependency cone of FSim^depth(source, ·)); every other row
  // is left unfilled, so its pairs read 0. A ball of every row is the
  // all-pairs solve.
  auto dist = BfsDistances(g1, source, /*undirected=*/true);
  std::vector<bool> ball(g1.NumNodes());
  bool every_row = true;
  for (NodeId x = 0; x < g1.NumNodes(); ++x) {
    ball[x] = dist[x] != kUnreachable && dist[x] <= depth;
    every_row = every_row && ball[x];
  }
  FSimSolver::Options solver_options;
  if (!every_row) solver_options.rows = &ball;
  FSIM_ASSIGN_OR_RETURN(std::unique_ptr<FSimSolver> solver,
                        FSimSolver::Create(g1, g2, solve, solver_options));

  // A derived depth over every row stops on the delta as ComputeFSim does;
  // otherwise the row must be exactly FSim^depth.
  TopKResult result;
  double max_delta = 0.0;
  if (options.depth == 0 && every_row) {
    FSimStats stats;
    solver->Run(&stats);
    result.depth = stats.iterations;
    max_delta = stats.final_delta;
  } else {
    for (result.depth = 0; result.depth < depth; ++result.depth) {
      max_delta = solver->Step();
    }
  }
  result.pairs_computed = solver->space().size();
  // Over every row the solve is the all-pairs one, so the Theorem 1
  // residual of the last step bounds the distance to the fixpoint. A
  // partial ball has only the Corollary 1 tail after `depth` steps:
  // sum_{t > depth} w^t <= w^(depth+1) / (1 - w).
  const double w = config.w_out + config.w_in;
  if (w > 0.0) {
    result.error_bound =
        std::min(1.0, every_row ? max_delta * w / (1.0 - w)
                                : std::pow(w, depth + 1) / (1.0 - w));
  }
  result.ranking = solver->TakeScores({}).TopK(source, options.k);
  return result;
}

}  // namespace fsim
