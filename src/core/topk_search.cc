#include "core/topk_search.h"

#include <algorithm>
#include <cmath>

#include "common/flat_pair_map.h"
#include "core/fsim_engine.h"
#include "core/init_value.h"
#include "core/operators.h"
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

  // Restricted pair set: left nodes within the radius-`depth` ball of the
  // source (the full dependency cone of FSim^depth(source, ·)).
  auto dist = BfsDistances(g1, source, /*undirected=*/true);
  std::vector<NodeId> ball;
  for (NodeId x = 0; x < g1.NumNodes(); ++x) {
    if (dist[x] != kUnreachable && dist[x] <= depth) ball.push_back(x);
  }
  std::vector<std::vector<NodeId>> by_label(g1.dict()->size());
  for (NodeId v = 0; v < g2.NumNodes(); ++v) {
    by_label[g2.Label(v)].push_back(v);
  }

  std::vector<uint64_t> keys;
  for (NodeId x : ball) {
    if (config.theta <= 0.0) {
      for (NodeId y = 0; y < g2.NumNodes(); ++y) {
        keys.push_back(PairKey(x, y));
      }
    } else {
      for (LabelId l = 0; l < by_label.size(); ++l) {
        if (by_label[l].empty() ||
            !lsim.Compatible(g1.Label(x), static_cast<LabelId>(l),
                             config.theta)) {
          continue;
        }
        for (NodeId y : by_label[l]) keys.push_back(PairKey(x, y));
      }
    }
    if (keys.size() > config.pair_limit) {
      return Status::InvalidArgument("TopKSearch pair limit exceeded");
    }
  }
  std::sort(keys.begin(), keys.end());

  FlatPairMap index(keys.size());
  std::vector<double> prev(keys.size());
  std::vector<double> curr(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    index.Insert(keys[i], static_cast<uint32_t>(i));
    prev[i] =
        InitValue(config, lsim, g1, g2, PairFirst(keys[i]), PairSecond(keys[i]));
  }

  const OperatorConfig op = config.operators();
  const double label_weight = 1.0 - config.w_out - config.w_in;
  auto lookup = [&](NodeId x, NodeId y) -> double {
    if (!lsim.Compatible(g1.Label(x), g2.Label(y), config.theta)) return -1.0;
    const uint32_t idx = index.Find(PairKey(x, y));
    return idx == FlatPairMap::kNotFound ? 0.0 : prev[idx];
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
  const uint64_t lo = PairKey(source, 0);
  const uint64_t hi = PairKey(source, ~0U);
  auto first = std::lower_bound(keys.begin(), keys.end(), lo);
  auto last = std::upper_bound(keys.begin(), keys.end(), hi);
  for (auto it = first; it != last; ++it) {
    const size_t i = static_cast<size_t>(it - keys.begin());
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
