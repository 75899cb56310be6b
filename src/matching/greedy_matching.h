// Greedy ½-approximate maximum-weight bipartite matching — the "popular
// greedy approximate of Hungarian" [Avis 1983] that the paper uses to realize
// the injective mapping operators M_dp and M_bj in
// O(|S1||S2| log(|S1||S2|)).
#ifndef FSIM_MATCHING_GREEDY_MATCHING_H_
#define FSIM_MATCHING_GREEDY_MATCHING_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace fsim {

/// A candidate assignment of left node `left` to right node `right`.
struct WeightedEdge {
  uint32_t left;
  uint32_t right;
  double weight;
};

/// Reusable matching state so the hot loop of the FSim engine does not
/// allocate per pair.
struct MatchingScratch {
  std::vector<WeightedEdge> edges;
  std::vector<uint8_t> left_used;
  std::vector<uint8_t> right_used;
  /// Flattened row-major weight matrix for the Hungarian realization.
  std::vector<double> weights;
  /// Per-column maxima for the bisimulation operator's converse side.
  std::vector<double> col_best;
};

/// Greedily selects edges in descending weight order (ties broken by
/// (left,right) for determinism), skipping edges whose endpoint is already
/// matched. Returns the total selected weight; appends the selected pairs to
/// `out_pairs` when non-null.
///
/// Guarantees: the result is a maximal matching whose weight is at least half
/// the maximum-weight matching (classic ½-approximation bound).
double GreedyMaxWeightMatching(MatchingScratch* scratch, size_t num_left,
                               size_t num_right,
                               std::vector<std::pair<uint32_t, uint32_t>>*
                                   out_pairs = nullptr);

/// Convenience wrapper building the scratch from an explicit edge list.
double GreedyMaxWeightMatching(std::vector<WeightedEdge> edges,
                               size_t num_left, size_t num_right,
                               std::vector<std::pair<uint32_t, uint32_t>>*
                                   out_pairs = nullptr);

}  // namespace fsim

#endif  // FSIM_MATCHING_GREEDY_MATCHING_H_
