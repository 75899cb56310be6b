#include "core/topk_search.h"

#include <algorithm>
#include <cmath>

#include "core/fsim_engine.h"
#include "core/init_value.h"
#include "core/operators.h"
#include "core/pair_space.h"
#include "graph/traversal.h"
#include "label/label_similarity.h"
#include "matching/greedy_matching.h"

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

  LabelSimilarityCache lsim(*g1.dict(), config.label_sim);

  // Restricted pair space: the rows of left nodes within the
  // radius-`depth` ball of the source (the full dependency cone of
  // FSim^depth(source, ·)); every other row is empty.
  auto dist = BfsDistances(g1, source, /*undirected=*/true);
  std::vector<bool> ball(g1.NumNodes());
  for (NodeId x = 0; x < g1.NumNodes(); ++x) {
    ball[x] = dist[x] != kUnreachable && dist[x] <= depth;
  }
  FSIM_ASSIGN_OR_RETURN(
      PairSpace space,
      PairSpace::Build(g1, g2, config, lsim, /*pool=*/nullptr, &ball));
  const std::vector<uint64_t>& keys = space.keys();

  std::vector<double> prev(keys.size());
  std::vector<double> curr(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    prev[i] =
        InitValue(config, lsim, g1, g2, PairFirst(keys[i]), PairSecond(keys[i]));
  }

  const OperatorConfig op = config.operators();
  const double label_weight = 1.0 - config.w_out - config.w_in;
  // Pairs outside the space (θ-incompatible, or outside the ball) read 0,
  // which no operator counts.
  auto lookup = [&](NodeId x, NodeId y) -> double {
    const uint32_t slot = space.Find(x, y);
    return slot == PairSpace::kNotFound ? 0.0 : prev[slot];
  };

  MatchingScratch scratch;
  for (uint32_t iter = 0; iter < depth; ++iter) {
    for (size_t i = 0; i < keys.size(); ++i) {
      const NodeId u = PairFirst(keys[i]);
      const NodeId v = PairSecond(keys[i]);
      const double out_score =
          DirectionScore(op, config.matching, g1.OutNeighbors(u),
                         g2.OutNeighbors(v), lookup, &scratch);
      const double in_score =
          DirectionScore(op, config.matching, g1.InNeighbors(u),
                         g2.InNeighbors(v), lookup, &scratch);
      curr[i] = config.w_out * out_score + config.w_in * in_score +
                label_weight *
                    LabelTermValue(config, lsim, g1.Label(u), g2.Label(v));
    }
    prev.swap(curr);
  }

  TopKResult result;
  result.depth = depth;
  result.pairs_computed = keys.size();
  // Corollary 1 tail: the remaining change after `depth` iterations is at
  // most sum_{t > depth} w^t <= w^(depth+1) / (1 - w).
  result.error_bound =
      w <= 0.0 ? 0.0
               : std::min(1.0, std::pow(w, depth + 1) / (1.0 - w));
  const auto [first, last] = space.Row(source);
  for (size_t i = first; i < last; ++i) {
    result.ranking.emplace_back(PairSecond(keys[i]), prev[i]);
  }
  auto cmp = [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  };
  if (result.ranking.size() > options.k) {
    std::partial_sort(result.ranking.begin(),
                      result.ranking.begin() + static_cast<ptrdiff_t>(options.k),
                      result.ranking.end(), cmp);
    result.ranking.resize(options.k);
  } else {
    std::sort(result.ranking.begin(), result.ranking.end(), cmp);
  }
  return result;
}

}  // namespace fsim
