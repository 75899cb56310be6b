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
#include <span>
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

// The lookup realization of the Table 3 operators (Equation 2): one
// direction's normalized mapping sum over two neighbor sets, reading each
// FSim^{k-1}(x, y) through `lookup`, which returns a negative value when x
// may not be mapped to y (Remark 2). The engines evaluate the same
// operators over their neighbor index (DirectionScoreIndexed and the
// segmented SegmentedMaxPerRowSums in core/operators.h); this is the oracle
// those are checked against, with MaxPerRowSumIndexed below as the
// per-span reference of the segmented sum.

namespace internal {

/// Σ over the max-weight injective mapping between s1 and s2 (the M_dp/M_bj
/// realization). Greedy is the paper's ½-approximation; Hungarian is exact.
template <typename Lookup>
double InjectiveMappingSum(std::span<const NodeId> s1,
                           std::span<const NodeId> s2, Lookup&& lookup,
                           MatchingAlgo algo, MatchingScratch* scratch) {
  if (s1.size() == 1 || s2.size() == 1) {
    // An injective mapping out of (or into) a singleton keeps exactly the
    // best edge; greedy and Hungarian both reduce to this maximum.
    double best = 0.0;
    for (NodeId x : s1) {
      for (NodeId y : s2) {
        const double score = lookup(x, y);
        if (score > best) best = score;
      }
    }
    return best;
  }
  scratch->edges.clear();
  for (size_t i = 0; i < s1.size(); ++i) {
    for (size_t j = 0; j < s2.size(); ++j) {
      double score = lookup(s1[i], s2[j]);
      // Zero-weight edges cannot increase the matching sum; dropping them
      // keeps the sort cheap.
      if (score > 0.0) {
        scratch->edges.push_back({static_cast<uint32_t>(i),
                                  static_cast<uint32_t>(j), score});
      }
    }
  }
  double tiny = 0.0;
  if (::fsim::internal::TinyMatchingSum(scratch->edges, &tiny)) return tiny;
  if (algo == MatchingAlgo::kHungarian) {
    // Reuse the scratch's flat weight matrix — the per-call
    // vector<vector<double>> allocation dominated Hungarian runs.
    scratch->weights.assign(s1.size() * s2.size(), 0.0);
    for (const WeightedEdge& e : scratch->edges) {
      scratch->weights[e.left * s2.size() + e.right] = e.weight;
    }
    return HungarianMaxWeightMatching(scratch->weights.data(), s1.size(),
                                      s2.size());
  }
  return GreedyMaxWeightMatching(scratch, s1.size(), s2.size());
}

/// Σ of per-row maxima: every x in s1 maps to its best compatible y.
template <typename Lookup>
double MaxPerRowSum(std::span<const NodeId> s1, std::span<const NodeId> s2,
                    Lookup&& lookup) {
  double sum = 0.0;
  for (NodeId x : s1) {
    double best = 0.0;
    for (NodeId y : s2) {
      double score = lookup(x, y);
      if (score > best) best = score;
    }
    sum += best;
  }
  return sum;
}

}  // namespace internal

/// The per-span reference of SegmentedMaxPerRowSums (core/operators.h):
/// Σ of per-row maxima over one span's CSR entries, summed row by row from
/// 0.0 in row order. Rows without entries contribute 0, exactly like rows
/// whose lookups are all non-positive. `Ref` is NeighborRef or
/// PackedNeighborRef.
template <typename Ref, typename ScoreFn>
double MaxPerRowSumIndexed(std::span<const Ref> refs, ScoreFn&& score_of) {
  double sum = 0.0;
  size_t k = 0;
  const size_t m = refs.size();
  while (k < m) {
    const uint32_t row = refs[k].row;
    double best = 0.0;
    for (; k < m && refs[k].row == row; ++k) {
      const double score = score_of(refs[k].ref);
      if (score > best) best = score;
    }
    sum += best;
  }
  return sum;
}

/// One direction's contribution in [0, 1]: Σ_{Mχ} / Ωχ with the empty-set
/// conventions listed above.
template <typename Lookup>
double DirectionScore(const OperatorConfig& op, MatchingAlgo algo,
                      std::span<const NodeId> s1, std::span<const NodeId> s2,
                      Lookup&& lookup, MatchingScratch* scratch) {
  const size_t n1 = s1.size();
  const size_t n2 = s2.size();
  double sum = 0.0;
  switch (op.mapping) {
    case MappingKind::kMaxPerRow:
      if (n1 == 0) return 1.0;
      sum = internal::MaxPerRowSum(s1, s2, lookup);
      break;
    case MappingKind::kInjectiveRow:
      if (n1 == 0) return 1.0;
      if (n2 == 0) return 0.0;
      sum = internal::InjectiveMappingSum(s1, s2, lookup, algo, scratch);
      break;
    case MappingKind::kMaxBothSides: {
      if (n1 == 0 && n2 == 0) return 1.0;
      sum = internal::MaxPerRowSum(s1, s2, lookup);
      // The converse side: every y in s2 maps to its best x in s1.
      for (NodeId y : s2) {
        double best = 0.0;
        for (NodeId x : s1) {
          double score = lookup(x, y);
          if (score > best) best = score;
        }
        sum += best;
      }
      break;
    }
    case MappingKind::kInjectiveSym:
      if (n1 == 0 && n2 == 0) return 1.0;
      if (n1 == 0 || n2 == 0) return 0.0;
      sum = internal::InjectiveMappingSum(s1, s2, lookup, algo, scratch);
      break;
    case MappingKind::kProduct: {
      if (n1 == 0 || n2 == 0) return 0.0;
      for (NodeId x : s1) {
        for (NodeId y : s2) {
          double score = lookup(x, y);
          if (score > 0.0) sum += score;
        }
      }
      break;
    }
  }
  const double omega = OmegaValue(op.omega, n1, n2);
  FSIM_DCHECK(omega > 0.0);
  return sum / omega;
}

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
