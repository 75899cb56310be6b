#include "core/topk_search.h"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.h"
#include "core/fsim_engine.h"
#include "core/pair_evaluator.h"
#include "core/pair_store.h"
#include "graph/traversal.h"
#include "label/label_similarity.h"

namespace fsim {

Result<TopKResult> TopKSearch(const Graph& g1, const Graph& g2, NodeId source,
                              const FSimConfig& config,
                              const TopKOptions& options) {
  FSIM_RETURN_NOT_OK(ValidateFSimConfig(g1, g2, config));
  if (source >= g1.NumNodes()) {
    return Status::InvalidArgument("source node out of range");
  }
  const double w = config.w_out + config.w_in;
  uint32_t depth = options.depth;
  if (depth == 0) {
    depth = w <= 0.0
                ? 1
                : static_cast<uint32_t>(std::max(
                      1.0, std::ceil(std::log(config.epsilon) / std::log(w))));
  }

  // The rows of left nodes within the radius-`depth` ball of the source
  // (the full dependency cone of FSim^depth(source, ·)); every other row
  // is left unfilled, so its pairs read 0.
  auto dist = BfsDistances(g1, source, /*undirected=*/true);
  std::vector<bool> ball(g1.NumNodes());
  for (NodeId x = 0; x < g1.NumNodes(); ++x) {
    ball[x] = dist[x] != kUnreachable && dist[x] <= depth;
  }
  // Exact active-set steps are bit-identical to full sweeps.
  FSimConfig exact = config;
  exact.active_set = ActiveSetMode::kExact;
  ThreadPool pool(config.num_threads);
  LabelSimilarityCache lsim(*g1.dict(), config.label_sim);
  FSIM_ASSIGN_OR_RETURN(PairStore store,
                        PairStore::Build(g1, g2, exact, lsim, &pool, &ball));
  const PairEvaluator evaluator(g1, g2, exact, lsim, store);
  ActiveSetDriver driver(pool, store, evaluator, g1, g2, exact);
  for (uint32_t iter = 0; iter < depth; ++iter) driver.Step();

  TopKResult result;
  result.depth = depth;
  result.pairs_computed = store.size();
  // Corollary 1 tail: the remaining change after `depth` iterations is at
  // most sum_{t > depth} w^t <= w^(depth+1) / (1 - w).
  result.error_bound =
      w <= 0.0 ? 0.0
               : std::min(1.0, std::pow(w, depth + 1) / (1.0 - w));
  result.ranking = FSimScores(store.space(), store.TakeScores(), {})
                       .TopK(source, options.k);
  return result;
}

}  // namespace fsim
