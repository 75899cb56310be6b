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
// neighbor index (PairStore). The per-row-maximum sum of the max family
// (all of s, the row half of b) is not computed per span: the one
// realization is SegmentedMaxPerRowSums, which sweeps a run of consecutive
// spans in one branch-free pass, and DirectionScoreIndexed takes its
// result. The realization that looks each score up by node pair instead
// lives in the test oracle (tests/naive_fsim.h), together with the
// per-span reference of the segmented sum; the indexed ones are checked
// against them.
#ifndef FSIM_CORE_OPERATORS_H_
#define FSIM_CORE_OPERATORS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "core/fsim_config.h"
#include "core/simd/masked_double.h"
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

/// The max-per-row mapping sum Σ_rows max(0, max_entries score) of every
/// span of a run of consecutive CSR spans, in one branch-free pass over
/// their entries. Span k of the run is entries[offsets[k], offsets[k + 1]);
/// its sum goes to sums[k] (0 for an empty span, as for a span whose
/// scores are all non-positive). `span_starts` is caller-owned scratch.
///
/// The values are == to summing per span row by row from 0.0 in row order
/// (tests/naive_fsim.h MaxPerRowSumIndexed): every entry adds either its
/// row's best (at the row's last entry) or +0.0 to its span's running sum,
/// and adding +0.0 to a non-negative sum leaves it unchanged. The span of
/// each entry comes from the offsets, so there is no loop per span and no
/// exit per row, and the selects are bit masks (core/simd/masked_double.h).
/// `Ref` is NeighborRef or PackedNeighborRef.
template <typename Ref, typename ScoreFn>
void SegmentedMaxPerRowSums(const Ref* entries,
                            std::span<const uint32_t> offsets,
                            ScoreFn&& score_of,
                            std::vector<uint16_t>* span_starts, double* sums) {
  const size_t num_spans = offsets.size() - 1;
  FSIM_DCHECK(num_spans <= 0xFFFF);
  std::fill(sums, sums + num_spans, 0.0);
  const uint32_t base = offsets[0];
  const size_t m = offsets[num_spans] - base;
  if (m == 0) return;
  // span_at[k]: 1 + the last span that starts at entry k, 0 if none does.
  // Spans ascend, so entry k's span is the largest such id up to k.
  span_starts->assign(m + 1, 0);
  uint16_t* span_at = span_starts->data();
  for (size_t k = 0; k < num_spans; ++k) {
    span_at[offsets[k] - base] = static_cast<uint16_t>(k + 1);
  }
  const Ref* e = entries + base;
  size_t span = 0;  // 1 + the span of entry k
  using simd::MaskedDouble;
  using simd::MaskOf;
  MaskedDouble best = simd::ToMasked(0.0);  // the running maximum of k's row
  MaskedDouble sum = simd::ToMasked(0.0);   // the running sum of k's span
  MaskedDouble new_row = MaskOf(true);
  // Entry k's span_at and row, carried from the previous step's lookahead.
  uint16_t at = span_at[0];
  uint32_t row = e[0].row;
  auto step = [&](size_t k, uint16_t at_next, uint32_t row_next, bool last) {
    span = std::max<size_t>(span, at);
    const MaskedDouble row_end =
        MaskOf(last | (at_next != 0) | (row_next != row));
    best = simd::Max(simd::ToMasked(score_of(e[k].ref)),
                     simd::Clear(best, new_row));
    sum = simd::Add(simd::Clear(sum, MaskOf(at != 0)),
                    simd::Keep(best, row_end));
    sums[span - 1] = simd::FromMasked(sum);
    new_row = row_end;
    at = at_next;
    row = row_next;
  };
  for (size_t k = 0; k + 1 < m; ++k) {
    step(k, span_at[k + 1], e[k + 1].row, false);
  }
  step(m - 1, 0, row, true);
}

/// b's converse side: every y in S2 maps to its best x in S1. Adds the
/// column maxima to `sum` in ascending-y order, the order the lookup-based
/// loop adds them in. A column without entries adds +0.0, which leaves the
/// non-negative sum unchanged, so spans of at most one entry skip the
/// column array.
template <typename Ref, typename ScoreFn>
double AddColumnMaxima(double sum, size_t n2, std::span<const Ref> refs,
                       ScoreFn&& score_of, MatchingScratch* scratch) {
  if (refs.size() <= 1) {
    for (const Ref& e : refs) sum += std::max(0.0, score_of(e.ref));
    return sum;
  }
  auto& col_best = scratch->col_best;
  col_best.assign(n2, 0.0);
  for (const Ref& e : refs) {
    const double score = score_of(e.ref);
    if (score > col_best[e.col]) col_best[e.col] = score;
  }
  for (double best : col_best) sum += best;
  return sum;
}

/// Equation 2 of a max-family mapping (s, b) from Σ of its mapped scores:
/// the empty-set convention, else Σ / Ωχ.
inline double MaxFamilyDirectionScore(const OperatorConfig& op, size_t n1,
                                      size_t n2, double sum) {
  if (n1 == 0 && (op.mapping == MappingKind::kMaxPerRow || n2 == 0)) {
    return 1.0;
  }
  const double omega = OmegaValue(op.omega, n1, n2);
  FSIM_DCHECK(omega > 0.0);
  return sum / omega;
}

/// One direction's contribution in [0, 1] over the pair-graph CSR neighbor
/// index: identical results to the oracle's lookup-based DirectionScore
/// (the entries enumerate exactly the label-compatible pairs, in the same
/// (x, y) order its nested loops visit), but previous-iteration scores are
/// read by direct array indexing through `score_of(ref)` — zero hash probes
/// and zero label checks. n1/n2 are the full neighbor-set sizes |S1|/|S2|
/// (the empty-set conventions and Ωχ depend on them, not on the
/// compatible-entry count). `row_max_sum` is the span's sum from
/// SegmentedMaxPerRowSums: the max-family mappings take it as their row
/// half, the others ignore it.
template <typename Ref, typename ScoreFn>
double DirectionScoreIndexed(const OperatorConfig& op, MatchingAlgo algo,
                             size_t n1, size_t n2,
                             std::span<const Ref> refs, double row_max_sum,
                             ScoreFn&& score_of, MatchingScratch* scratch) {
  double sum = 0.0;
  switch (op.mapping) {
    case MappingKind::kMaxPerRow:
      return MaxFamilyDirectionScore(op, n1, n2, row_max_sum);
    case MappingKind::kMaxBothSides:
      return MaxFamilyDirectionScore(
          op, n1, n2,
          AddColumnMaxima(row_max_sum, n2, refs, score_of, scratch));
    case MappingKind::kInjectiveRow:
      if (n1 == 0) return 1.0;
      if (n2 == 0) return 0.0;
      sum = internal::InjectiveMappingSumIndexed(n1, n2, refs, score_of, algo,
                                                 scratch);
      break;
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
