// A naive realization of Algorithm 1: Jacobi iteration of Equation 3 that
// reads every FSim^{k-1}(x, y) through a hash lookup plus a label check,
// the way the paper's Hc/Hp maps do. The engines iterate through
// a precomputed neighbor index or tile panels instead (core/pair_store.h,
// core/panel_engine.h); this header is the shared
// oracle their indexed evaluations are checked against. It enumerates its
// own pair set by brute force, so it checks the engines' candidate
// enumeration too.
#ifndef FSIM_TESTS_NAIVE_FSIM_H_
#define FSIM_TESTS_NAIVE_FSIM_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/fsim_config.h"
#include "core/fsim_engine.h"
#include "core/init_value.h"
#include "core/operators.h"
#include "graph/graph.h"
#include "label/label_similarity.h"

namespace fsim {
namespace testing {

struct NaiveFSimResult {
  std::vector<uint64_t> keys;  // ascending PairKey order (u-major)
  std::vector<double> values;
  uint32_t iterations = 0;
  bool converged = false;
};

/// Runs Equation 3 to convergence (config.epsilon) or the
/// FSimIterationBound cap. The pair set is the sparse engines': pairs with
/// L(u, v) >= θ, minus the upper-bound-pruned ones (Eq. 6 bound <= β,
/// pin_diagonal pairs kept) when config.upper_bound is set; a tracked
/// pruned pair (α > 0) reads α times its bound rounded through float, as
/// the engines store it. Label-incompatible pairs never feed the mapping
/// operators (Remark 2).
inline NaiveFSimResult NaiveFSim(const Graph& g1, const Graph& g2,
                                 const FSimConfig& config) {
  const LabelSimilarityCache lsim(*g1.dict(), config.label_sim);
  const OperatorConfig op = config.operators();
  const double label_weight = 1.0 - config.w_out - config.w_in;
  auto compat = [&](NodeId x, NodeId y) {
    return lsim.Compatible(g1.Label(x), g2.Label(y), config.theta);
  };
  auto label_term = [&](NodeId u, NodeId v) {
    return LabelTermValue(config, lsim, g1.Label(u), g2.Label(v));
  };

  NaiveFSimResult result;
  std::unordered_map<uint64_t, float> pruned_bound;
  for (NodeId u = 0; u < g1.NumNodes(); ++u) {
    for (NodeId v = 0; v < g2.NumNodes(); ++v) {
      if (!compat(u, v)) continue;
      if (config.upper_bound) {
        const double bound =
            config.w_out * DirectionUpperBound(op, g1.OutNeighbors(u),
                                               g2.OutNeighbors(v), compat) +
            config.w_in * DirectionUpperBound(op, g1.InNeighbors(u),
                                              g2.InNeighbors(v), compat) +
            label_weight * label_term(u, v);
        if (!(bound > config.beta || (config.pin_diagonal && u == v))) {
          if (config.alpha > 0.0) {
            pruned_bound[PairKey(u, v)] = static_cast<float>(bound);
          }
          continue;
        }
      }
      result.keys.push_back(PairKey(u, v));
    }
  }

  const size_t n = result.keys.size();
  std::unordered_map<uint64_t, size_t> index;
  std::vector<double> prev(n);
  std::vector<double> curr(n);
  for (size_t i = 0; i < n; ++i) {
    index[result.keys[i]] = i;
    prev[i] = InitValue(config, lsim, g1, g2, PairFirst(result.keys[i]),
                        PairSecond(result.keys[i]));
  }
  const double alpha = config.upper_bound ? config.alpha : 0.0;
  // FSim^{k-1}(x, y); negative marks a pair the mapping may not use.
  auto lookup = [&](NodeId x, NodeId y) -> double {
    if (!compat(x, y)) return -1.0;
    const uint64_t key = PairKey(x, y);
    if (auto it = index.find(key); it != index.end()) return prev[it->second];
    if (alpha > 0.0) {
      if (auto it = pruned_bound.find(key); it != pruned_bound.end()) {
        return alpha * static_cast<double>(it->second);
      }
    }
    return 0.0;
  };

  MatchingScratch scratch;
  const uint32_t max_iters = FSimIterationBound(config);
  for (uint32_t iter = 1; iter <= max_iters; ++iter) {
    double max_delta = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const NodeId u = PairFirst(result.keys[i]);
      const NodeId v = PairSecond(result.keys[i]);
      double value = 1.0;
      if (!(config.pin_diagonal && u == v)) {
        double out_score = 0.0;
        double in_score = 0.0;
        if (config.w_out > 0.0) {
          out_score = DirectionScore(op, config.matching, g1.OutNeighbors(u),
                                     g2.OutNeighbors(v), lookup, &scratch);
        }
        if (config.w_in > 0.0) {
          in_score = DirectionScore(op, config.matching, g1.InNeighbors(u),
                                    g2.InNeighbors(v), lookup, &scratch);
        }
        value = config.w_out * out_score + config.w_in * in_score +
                label_weight * label_term(u, v);
      }
      curr[i] = value;
      max_delta = std::max(max_delta, std::abs(value - prev[i]));
    }
    prev.swap(curr);
    result.iterations = iter;
    if (max_delta < config.epsilon) {
      result.converged = true;
      break;
    }
  }
  result.values = std::move(prev);
  return result;
}

}  // namespace testing
}  // namespace fsim

#endif  // FSIM_TESTS_NAIVE_FSIM_H_
