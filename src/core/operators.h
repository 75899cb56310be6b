// The mapping and normalizing operators Mχ / Ωχ of Table 3, evaluated over
// two neighbor sets. DirectionScoreIndexed computes one direction's
// normalized contribution FSimχ(S1, S2) = Σ_{(x,y)∈Mχ} FSim(x,y) / Ωχ(S1,S2)
// (Equation 2), including the empty-set conventions that make simulation
// definiteness (P2 of Definition 4) hold:
//
//   s / dp:  S1 = ∅              -> 1   (Definition 1's ∀ is vacuous)
//   b:       S1 = ∅ and S2 = ∅   -> 1   (otherwise the unmatched side
//                                        contributes zeros naturally)
//   bj:      both empty -> 1; exactly one empty -> 0 (no bijection exists)
//   product: either empty -> 0 (SimRank's convention)
//
// It reads the label-compatible pairs of S1 x S2 from the pair-graph CSR
// neighbor index (PairStore). The realization that looks each score up by
// node pair instead lives in the test oracle (tests/naive_fsim.h), which
// the indexed one is checked against.
#ifndef FSIM_CORE_OPERATORS_H_
#define FSIM_CORE_OPERATORS_H_

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "core/fsim_config.h"
#include "graph/graph.h"
#include "matching/greedy_matching.h"
#include "matching/hungarian.h"

namespace fsim {

/// One label-compatible candidate pair (x, y) ∈ S1 x S2 in the pair-graph
/// CSR neighbor index: `row`/`col` are the positions of x in S1 and y in S2,
/// and `ref` locates the previous-iteration score — a PairStore index, or
/// (when the kNeighborRefPrunedTag bit is set) an index into the pruned
/// upper-bound side table whose lookup value is α * bound. Entries are
/// sorted by (row, col), so per-row spans are contiguous.
struct NeighborRef {
  uint32_t row;
  uint32_t col;
  uint32_t ref;
};

/// Tag bit marking a NeighborRef::ref that points into the pruned-pair
/// upper-bound table instead of the maintained score array.
inline constexpr uint32_t kNeighborRefPrunedTag = 0x80000000u;

/// True when `ref` points into the pruned upper-bound side table. Pruned
/// pairs are never re-evaluated and their bounds never change, so the
/// active-set frontier marking skips tagged refs outright.
inline constexpr bool IsPrunedRef(uint32_t ref) {
  return (ref & kNeighborRefPrunedTag) != 0;
}

/// 8-byte packed variant of NeighborRef for degree-bounded graphs: when
/// every relevant neighbor-list position fits in 16 bits, row/col shrink to
/// uint16_t, halving the index memory and doubling the entries per cache
/// line. PairStore::Build selects it whenever no weighted direction has a
/// degree above 65536; the indexed operators below are templated over the
/// entry type, so both layouts share one code path.
struct PackedNeighborRef {
  uint16_t row;
  uint16_t col;
  uint32_t ref;
};

/// Ωχ(S1, S2) of Table 3.
inline double OmegaValue(OmegaKind kind, size_t n1, size_t n2) {
  switch (kind) {
    case OmegaKind::kSizeS1:
      return static_cast<double>(n1);
    case OmegaKind::kSumSizes:
      return static_cast<double>(n1 + n2);
    case OmegaKind::kGeoMean:
      return std::sqrt(static_cast<double>(n1) * static_cast<double>(n2));
    case OmegaKind::kMaxSize:
      return static_cast<double>(std::max(n1, n2));
    case OmegaKind::kProduct:
      return static_cast<double>(n1) * static_cast<double>(n2);
  }
  return 0.0;
}

/// The sharpened per-entry influence bound c / Ωχ(S1, S2) of one direction:
/// a change of magnitude delta in one input entry moves the direction's
/// normalized sum by at most c · delta / Ωχ (the mapping operators are
/// 1-Lipschitz per entry; c = 2 for the both-sides mapping, whose entries
/// feed a row and a column maximum). Clamped at 1 so it is never looser
/// than the coarse "Ωχ >= 1" bound; 0 when the direction has an empty side
/// (its span has no entries, so the factor is never read). Read by
/// ActiveSetDriver's tolerance-mode frontier marking.
inline double PairInfluenceFactor(const OperatorConfig& op, size_t n1,
                                  size_t n2) {
  if (n1 == 0 || n2 == 0) return 0.0;
  const double c = op.mapping == MappingKind::kMaxBothSides ? 2.0 : 1.0;
  return std::min(1.0, c / OmegaValue(op.omega, n1, n2));
}

namespace internal {

/// Closed-form max-weight matching value for edge sets of size <= 2; the
/// caller dispatches to the full algorithm above this size. Greedy and
/// Hungarian coincide exactly here (a singleton keeps its edge; two edges
/// keep both when endpoint-disjoint, else the heavier one), so this is a
/// value-identical shortcut for either realization — and the dominant case
/// on sparse labeled graphs, where most candidate neighborhoods induce at
/// most a couple of positive-score pairs.
inline bool TinyMatchingSum(const std::vector<WeightedEdge>& edges,
                            double* sum) {
  switch (edges.size()) {
    case 0:
      *sum = 0.0;
      return true;
    case 1:
      *sum = edges[0].weight;
      return true;
    case 2: {
      const WeightedEdge& a = edges[0];
      const WeightedEdge& b = edges[1];
      *sum = (a.left != b.left && a.right != b.right)
                 ? a.weight + b.weight
                 : std::max(a.weight, b.weight);
      return true;
    }
    default:
      return false;
  }
}

/// MaxPerRowSum over CSR entries: Σ of per-row maxima. Rows without entries
/// contribute 0, exactly like rows whose lookups are all non-positive.
/// `Ref` is NeighborRef or PackedNeighborRef.
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

/// InjectiveMappingSum over CSR entries.
template <typename Ref, typename ScoreFn>
double InjectiveMappingSumIndexed(size_t n1, size_t n2,
                                  std::span<const Ref> refs,
                                  ScoreFn&& score_of, MatchingAlgo algo,
                                  MatchingScratch* scratch) {
  if (refs.empty()) return 0.0;
  if (n1 == 1 || n2 == 1) {
    // Singleton side: the matching keeps exactly the best edge (identical
    // to what greedy and Hungarian would select).
    double best = 0.0;
    for (const Ref& e : refs) {
      const double score = score_of(e.ref);
      if (score > best) best = score;
    }
    return best;
  }
  scratch->edges.clear();
  for (const Ref& e : refs) {
    const double score = score_of(e.ref);
    if (score > 0.0) scratch->edges.push_back({e.row, e.col, score});
  }
  double tiny = 0.0;
  if (TinyMatchingSum(scratch->edges, &tiny)) return tiny;
  if (algo == MatchingAlgo::kHungarian) {
    scratch->weights.assign(n1 * n2, 0.0);
    for (const WeightedEdge& e : scratch->edges) {
      scratch->weights[e.left * n2 + e.right] = e.weight;
    }
    return HungarianMaxWeightMatching(scratch->weights.data(), n1, n2);
  }
  return GreedyMaxWeightMatching(scratch, n1, n2);
}

}  // namespace internal

/// One direction's contribution in [0, 1] over the pair-graph CSR neighbor
/// index: identical results to the oracle's lookup-based DirectionScore
/// (the entries enumerate exactly the label-compatible pairs, in the same
/// (x, y) order its nested loops visit), but previous-iteration scores are
/// read by direct array indexing through `score_of(ref)` — zero hash probes
/// and zero label checks. n1/n2 are the full neighbor-set sizes |S1|/|S2|
/// (the empty-set conventions and Ωχ depend on them, not on the
/// compatible-entry count).
template <typename Ref, typename ScoreFn>
double DirectionScoreIndexed(const OperatorConfig& op, MatchingAlgo algo,
                             size_t n1, size_t n2,
                             std::span<const Ref> refs,
                             ScoreFn&& score_of, MatchingScratch* scratch) {
  double sum = 0.0;
  switch (op.mapping) {
    case MappingKind::kMaxPerRow:
      if (n1 == 0) return 1.0;
      sum = internal::MaxPerRowSumIndexed(refs, score_of);
      break;
    case MappingKind::kInjectiveRow:
      if (n1 == 0) return 1.0;
      if (n2 == 0) return 0.0;
      sum = internal::InjectiveMappingSumIndexed(n1, n2, refs, score_of, algo,
                                                 scratch);
      break;
    case MappingKind::kMaxBothSides: {
      if (n1 == 0 && n2 == 0) return 1.0;
      sum = internal::MaxPerRowSumIndexed(refs, score_of);
      // The converse side: every y in s2 maps to its best x in s1. Column
      // maxima accumulate into scratch, then reduce in ascending-y order
      // (the order the lookup-based loop adds them in).
      auto& col_best = scratch->col_best;
      col_best.assign(n2, 0.0);
      for (const Ref& e : refs) {
        const double score = score_of(e.ref);
        if (score > col_best[e.col]) col_best[e.col] = score;
      }
      for (double best : col_best) sum += best;
      break;
    }
    case MappingKind::kInjectiveSym:
      if (n1 == 0 && n2 == 0) return 1.0;
      if (n1 == 0 || n2 == 0) return 0.0;
      sum = internal::InjectiveMappingSumIndexed(n1, n2, refs, score_of, algo,
                                                 scratch);
      break;
    case MappingKind::kProduct: {
      if (n1 == 0 || n2 == 0) return 0.0;
      for (const Ref& e : refs) {
        const double score = score_of(e.ref);
        if (score > 0.0) sum += score;
      }
      break;
    }
  }
  const double omega = OmegaValue(op.omega, n1, n2);
  FSIM_DCHECK(omega > 0.0);
  return sum / omega;
}

/// Upper bound of one direction's contribution (Eq. 6): the direction score with
/// every mappable pair's score over-approximated by 1, i.e. |Mχ| / Ωχ under
/// the label-compatibility relation. |Mχ| itself is over-approximated for
/// the injective operators (min of the side counts), which keeps the bound
/// sound — pruning with a looser bound only prunes less.
template <typename CompatFn>
double DirectionUpperBound(const OperatorConfig& op,
                           std::span<const NodeId> s1,
                           std::span<const NodeId> s2, CompatFn&& compat) {
  const size_t n1 = s1.size();
  const size_t n2 = s2.size();
  auto rows_with_any = [&]() {
    size_t count = 0;
    for (NodeId x : s1) {
      for (NodeId y : s2) {
        if (compat(x, y)) {
          ++count;
          break;
        }
      }
    }
    return count;
  };
  auto cols_with_any = [&]() {
    size_t count = 0;
    for (NodeId y : s2) {
      for (NodeId x : s1) {
        if (compat(x, y)) {
          ++count;
          break;
        }
      }
    }
    return count;
  };

  double mapped = 0.0;
  switch (op.mapping) {
    case MappingKind::kMaxPerRow:
      if (n1 == 0) return 1.0;
      mapped = static_cast<double>(rows_with_any());
      break;
    case MappingKind::kInjectiveRow:
      if (n1 == 0) return 1.0;
      if (n2 == 0) return 0.0;
      mapped = static_cast<double>(
          std::min({rows_with_any(), cols_with_any(), std::min(n1, n2)}));
      break;
    case MappingKind::kMaxBothSides:
      if (n1 == 0 && n2 == 0) return 1.0;
      mapped = static_cast<double>(rows_with_any() + cols_with_any());
      break;
    case MappingKind::kInjectiveSym:
      if (n1 == 0 && n2 == 0) return 1.0;
      if (n1 == 0 || n2 == 0) return 0.0;
      mapped = static_cast<double>(
          std::min({rows_with_any(), cols_with_any(), std::min(n1, n2)}));
      break;
    case MappingKind::kProduct: {
      if (n1 == 0 || n2 == 0) return 0.0;
      size_t count = 0;
      for (NodeId x : s1) {
        for (NodeId y : s2) {
          if (compat(x, y)) ++count;
        }
      }
      mapped = static_cast<double>(count);
      break;
    }
  }
  return mapped / OmegaValue(op.omega, n1, n2);
}

}  // namespace fsim

#endif  // FSIM_CORE_OPERATORS_H_
