// The mapping and normalizing operators Mχ / Ωχ of Table 3, evaluated over
// two neighbor sets. DirectionScore computes one direction's normalized
// contribution FSimχ(S1, S2) = Σ_{(x,y)∈Mχ} FSim(x,y) / Ωχ(S1,S2)
// (Equation 2), including the empty-set conventions that make simulation
// definiteness (P2 of Definition 4) hold:
//
//   s / dp:  S1 = ∅              -> 1   (Definition 1's ∀ is vacuous)
//   b:       S1 = ∅ and S2 = ∅   -> 1   (otherwise the unmatched side
//                                        contributes zeros naturally)
//   bj:      both empty -> 1; exactly one empty -> 0 (no bijection exists)
//   product: either empty -> 0 (SimRank's convention)
//
// The score lookup is a template parameter returning the previous-iteration
// score of (x, y), or a negative value when x may not be mapped to y (label
// constraint of Remark 2).
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
/// line. PairStore::Build selects the layout automatically (see
/// FSimConfig::use_packed_neighbor_refs); the indexed operators below are
/// templated over the entry type, so both layouts share one code path.
struct PackedNeighborRef {
  uint16_t row;
  uint16_t col;
  uint32_t ref;
};

/// One same-label-class run inside a label-class-grouped neighbor list:
/// [begin, end) index the grouped node/position arrays of the owning
/// GroupedNeighborhood. Runs are ordered by ascending class id; within a
/// run, nodes keep ascending node-id (hence ascending original-position)
/// order.
struct ClassGroup {
  LabelId label;
  uint32_t begin;
  uint32_t end;
};

/// A label-class-grouped view of one neighbor set S = N±(u): nodes[k] is
/// the k-th neighbor in (class, id) order and pos[k] its position in the
/// original id-sorted neighbor list — the row/col index the ungrouped
/// operators use, which keeps matching tie-breaks and Ωχ identical between
/// the grouped and the nested-loop enumeration. `size` is |S|.
/// class_offsets is the node's dense per-class index: the class-c run is
/// [class_offsets[c], class_offsets[c+1]) (empty for absent classes), so a
/// compatible class resolves to its candidate run with one lookup.
struct GroupedNeighborhood {
  std::span<const ClassGroup> groups;
  const NodeId* nodes = nullptr;
  const uint32_t* pos = nullptr;
  const uint32_t* class_offsets = nullptr;
  size_t size = 0;
};

/// The class-compatibility interface the grouped operators consume
/// (provided by core/dense_index.h LabelClassTable): the θ-thresholded
/// per-class bitsets plus, per class, the precomputed ascending list of
/// compatible classes — so the iterate loop intersects class lists without
/// re-testing θ anywhere.
struct ClassCompatView {
  const uint64_t* bits = nullptr;      // per-class bitset rows
  size_t words = 0;                    // 64-bit words per row
  const uint32_t* list_offsets = nullptr;  // per-class compat-list CSR
  const LabelId* list = nullptr;

  bool Compatible(LabelId a, LabelId b) const {
    return (bits[a * words + (b >> 6)] >> (b & 63)) & 1u;
  }
  std::span<const LabelId> CompatClasses(LabelId a) const {
    return {list + list_offsets[a], list + list_offsets[a + 1]};
  }
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
  if (TinyMatchingSum(scratch->edges, &tiny)) return tiny;
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

namespace internal {

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

/// DirectionScore over the pair-graph CSR neighbor index: identical results
/// to the lookup-based overload (the entries enumerate exactly the
/// label-compatible pairs, in the same (x, y) order the nested loops visit),
/// but previous-iteration scores are read by direct array indexing through
/// `score_of(ref)` — zero hash probes and zero label checks. n1/n2 are the
/// full neighbor-set sizes |S1|/|S2| (the empty-set conventions and Ωχ
/// depend on them, not on the compatible-entry count).
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

namespace internal {

/// Invokes visit(run_begin, run_end) for every non-empty S2 candidate run
/// compatible with class `a`, ascending by class — by walking a's
/// precomputed compatible-class list against S2's dense class index, or by
/// scanning S2's present classes against the bitset, whichever loop is
/// shorter (both produce the same runs in the same order). No intermediate
/// buffers: the runs resolve to offset pairs inline.
template <typename VisitFn>
inline void ForEachCompatRun(LabelId a, const GroupedNeighborhood& s2,
                             const ClassCompatView& compat, VisitFn&& visit) {
  const std::span<const LabelId> classes = compat.CompatClasses(a);
  if (classes.size() <= s2.groups.size()) {
    for (LabelId c : classes) {
      const uint32_t begin = s2.class_offsets[c];
      const uint32_t end = s2.class_offsets[c + 1];
      if (begin != end) visit(begin, end);
    }
  } else {
    for (const ClassGroup& g : s2.groups) {
      if (compat.Compatible(a, g.label)) visit(g.begin, g.end);
    }
  }
}

/// Total candidate count of class a against S2 (0 = the whole row class
/// can be skipped).
inline uint32_t CompatCandidateCount(LabelId a, const GroupedNeighborhood& s2,
                                     const ClassCompatView& compat) {
  uint32_t total = 0;
  ForEachCompatRun(a, s2, compat,
                   [&](uint32_t begin, uint32_t end) { total += end - begin; });
  return total;
}

/// InjectiveMappingSum over grouped candidates. Edge endpoints are the
/// original neighbor-list positions, so the greedy tie-break total order
/// (weight, left, right) — and hence the selected matching — is identical
/// to the ungrouped enumeration's.
template <typename ScoreFn>
double InjectiveMappingSumGrouped(const GroupedNeighborhood& s1,
                                  const GroupedNeighborhood& s2,
                                  const ClassCompatView& compat,
                                  ScoreFn&& score, MatchingAlgo algo,
                                  MatchingScratch* scratch) {
  if (s1.size == 1 || s2.size == 1) {
    // Singleton side: the matching keeps exactly the best edge.
    double best = 0.0;
    for (const ClassGroup& ga : s1.groups) {
      for (uint32_t i = ga.begin; i < ga.end; ++i) {
        const NodeId x = s1.nodes[i];
        ForEachCompatRun(ga.label, s2, compat,
                         [&](uint32_t rb, uint32_t re) {
                           for (uint32_t j = rb; j < re; ++j) {
                             const double v = score(x, s2.nodes[j]);
                             if (v > best) best = v;
                           }
                         });
      }
    }
    return best;
  }
  scratch->edges.clear();
  for (const ClassGroup& ga : s1.groups) {
    for (uint32_t i = ga.begin; i < ga.end; ++i) {
      const NodeId x = s1.nodes[i];
      ForEachCompatRun(
          ga.label, s2, compat, [&](uint32_t rb, uint32_t re) {
            for (uint32_t j = rb; j < re; ++j) {
              const double v = score(x, s2.nodes[j]);
              if (v > 0.0) scratch->edges.push_back({s1.pos[i], s2.pos[j], v});
            }
          });
    }
  }
  double tiny = 0.0;
  if (TinyMatchingSum(scratch->edges, &tiny)) return tiny;
  if (algo == MatchingAlgo::kHungarian) {
    scratch->weights.assign(s1.size * s2.size, 0.0);
    for (const WeightedEdge& e : scratch->edges) {
      scratch->weights[e.left * s2.size + e.right] = e.weight;
    }
    return HungarianMaxWeightMatching(scratch->weights.data(), s1.size,
                                      s2.size);
  }
  return GreedyMaxWeightMatching(scratch, s1.size, s2.size);
}

}  // namespace internal

/// DirectionScore over label-class-grouped neighborhoods (the dense-engine
/// fast path, core/dense_index.h): candidate pairs are enumerated by
/// intersecting the class runs of S1 and S2 — one compatibility test per
/// *class pair* instead of per element, and incompatible classes are
/// skipped wholesale. `compat(a, b)` is the θ-thresholded label-class
/// compatibility (one bit test against the LabelClassTable); `score(x, y)`
/// reads the previous-iteration score of an enumerated (hence compatible)
/// candidate directly — no per-visit label work.
///
/// Candidates are visited class-grouped rather than in the nested loops'
/// (x, y) order, but the results are bit-identical to the ungrouped
/// enumeration for every operator except one corner: row/column maxima are
/// order-exact and reduced in ascending original-position order, the
/// matchings key their total orders on the *original* positions
/// (s1.pos / s2.pos), and the product operator walks rows ascending with a
/// raw ascending column walk whenever the row's class is compatible with
/// every class present in S2 (always true at θ = 0). Only a product row
/// with *partially* compatible classes sums its columns class-grouped —
/// a within-row reassociation of an order-eps tail that the dense
/// equivalence sweep pins to 1e-12 (tests/dense_engine_test.cc).
template <MappingKind M, typename ScoreFn>
double DirectionScoreGroupedT(OmegaKind omega_kind, MatchingAlgo algo,
                              const GroupedNeighborhood& s1,
                              const GroupedNeighborhood& s2,
                              const ClassCompatView& compat, ScoreFn&& score,
                              MatchingScratch* scratch) {
  const size_t n1 = s1.size;
  const size_t n2 = s2.size;
  double sum = 0.0;
  if constexpr (M == MappingKind::kMaxPerRow ||
                M == MappingKind::kMaxBothSides) {
    constexpr bool kBothSides = M == MappingKind::kMaxBothSides;
    if constexpr (kBothSides) {
      if (n1 == 0 && n2 == 0) return 1.0;
      scratch->col_best.assign(n2, 0.0);
    } else {
      if (n1 == 0) return 1.0;
    }
    // Group-major pass: per-row maxima land in row_best[original position]
    // (and column maxima in col_best for the bisimulation operator), exact
    // regardless of visit order; reduced ascending afterwards. Every
    // position is written exactly once (the runs partition the rows), so
    // the buffer needs sizing but no zero-fill.
    auto& row_best = scratch->row_best;
    if (row_best.size() < n1) row_best.resize(n1);
    for (const ClassGroup& ga : s1.groups) {
      for (uint32_t i = ga.begin; i < ga.end; ++i) {
        const NodeId x = s1.nodes[i];
        double best = 0.0;
        internal::ForEachCompatRun(
            ga.label, s2, compat, [&](uint32_t rb, uint32_t re) {
              for (uint32_t j = rb; j < re; ++j) {
                const double v = score(x, s2.nodes[j]);
                if (v > best) best = v;
                if constexpr (kBothSides) {
                  if (v > scratch->col_best[s2.pos[j]]) {
                    scratch->col_best[s2.pos[j]] = v;
                  }
                }
              }
            });
        row_best[s1.pos[i]] = best;
      }
    }
    for (size_t p = 0; p < n1; ++p) sum += row_best[p];
    if constexpr (kBothSides) {
      for (double best : scratch->col_best) sum += best;
    }
  } else if constexpr (M == MappingKind::kInjectiveRow ||
                       M == MappingKind::kInjectiveSym) {
    if constexpr (M == MappingKind::kInjectiveRow) {
      if (n1 == 0) return 1.0;
      if (n2 == 0) return 0.0;
    } else {
      if (n1 == 0 && n2 == 0) return 1.0;
      if (n1 == 0 || n2 == 0) return 0.0;
    }
    sum = internal::InjectiveMappingSumGrouped(s1, s2, compat, score, algo,
                                               scratch);
  } else {
    static_assert(M == MappingKind::kProduct);
    if (n1 == 0 || n2 == 0) return 0.0;
    // The product sum has no per-row reduction to anchor on, so restore
    // the nested loops' running-accumulator order: walk rows ascending
    // via position->(class, node) maps, and columns ascending whenever
    // the row's class is compatible with every class present in S2.
    auto& row_class = scratch->row_class;
    auto& row_node = scratch->row_node;
    auto& col_node = scratch->col_node;
    row_class.resize(n1);
    row_node.resize(n1);
    col_node.resize(n2);
    for (const ClassGroup& ga : s1.groups) {
      for (uint32_t i = ga.begin; i < ga.end; ++i) {
        row_class[s1.pos[i]] = ga.label;
        row_node[s1.pos[i]] = s1.nodes[i];
      }
    }
    for (const ClassGroup& gb : s2.groups) {
      for (uint32_t j = gb.begin; j < gb.end; ++j) {
        col_node[s2.pos[j]] = s2.nodes[j];
      }
    }
    LabelId covered_class = kInvalidNode;  // memoized count input
    uint32_t covered = 0;
    for (size_t p = 0; p < n1; ++p) {
      if (row_class[p] != covered_class) {
        covered_class = row_class[p];
        covered = internal::CompatCandidateCount(covered_class, s2, compat);
      }
      if (covered == 0) continue;
      const NodeId x = row_node[p];
      if (covered == n2) {
        for (size_t q = 0; q < n2; ++q) {
          const double v = score(x, col_node[q]);
          if (v > 0.0) sum += v;
        }
      } else {
        internal::ForEachCompatRun(
            static_cast<LabelId>(row_class[p]), s2, compat,
            [&](uint32_t rb, uint32_t re) {
              for (uint32_t j = rb; j < re; ++j) {
                const double v = score(x, s2.nodes[j]);
                if (v > 0.0) sum += v;
              }
            });
      }
    }
  }
  const double omega = OmegaValue(omega_kind, n1, n2);
  FSIM_DCHECK(omega > 0.0);
  return sum / omega;
}

/// Evaluates one direction of a fixed left neighborhood S1 against a tile
/// of right neighborhoods s2s[t], writing the DirectionScore values into
/// out[t] — the dense engine's per-(u, v-tile) fast path. For the
/// max-per-row family the S1-side state (position maps, compatible-class
/// lists, prev-row bases) is hoisted out of the tile loop and rows are
/// walked in ascending original order with one running accumulator per
/// tile entry, so every out[t] is bit-identical to the per-pair
/// DirectionScoreGroupedT value. The matching-based and product operators
/// delegate to the per-pair evaluation (their per-pair work dominates).
///
/// This scalar tile walk is also the reference semantics for the
/// vectorized panel path (core/simd/): when a SIMD level is enabled, the
/// dense engine replaces the max-family branch below with precomputed SoA
/// candidate panels and masked-gather kernels that are bit-identical to
/// it — the equivalence is pinned by tests/simd_kernel_test.cc, and
/// FSIM_SIMD=off forces exactly this code.
template <MappingKind M, typename ScoreFn>
void DirectionScoreGroupedTile(OmegaKind omega_kind, MatchingAlgo algo,
                               const GroupedNeighborhood& s1,
                               std::span<const GroupedNeighborhood> s2s,
                               const ClassCompatView& compat, ScoreFn&& score,
                               MatchingScratch* scratch, double* out) {
  const size_t tile = s2s.size();
  const size_t n1 = s1.size;
  constexpr bool kMaxFamily = M == MappingKind::kMaxPerRow ||
                              M == MappingKind::kMaxBothSides;
  constexpr bool kInjective = M == MappingKind::kInjectiveRow ||
                              M == MappingKind::kInjectiveSym;
  if ((!kMaxFamily && !kInjective) || n1 == 0) {
    // Per-pair evaluation: the product operator, and the n1 = 0 empty-set
    // conventions (which depend on each s2s[t].size).
    for (size_t t = 0; t < tile; ++t) {
      out[t] = DirectionScoreGroupedT<M>(omega_kind, algo, s1, s2s[t], compat,
                                         score, scratch);
    }
    return;
  }
  // Position-ascending S1 row maps, built once per tile call.
  auto& row_class = scratch->row_class;
  auto& row_node = scratch->row_node;
  row_class.resize(n1);
  row_node.resize(n1);
  for (const ClassGroup& ga : s1.groups) {
    for (uint32_t i = ga.begin; i < ga.end; ++i) {
      row_class[s1.pos[i]] = ga.label;
      row_node[s1.pos[i]] = s1.nodes[i];
    }
  }
  if constexpr (kInjective) {
    // Per-tile-entry matching over edges collected through the hoisted row
    // maps. Rows are walked ascending by position rather than group-major:
    // the edge multiset is identical and every matching realization is
    // enumeration-order-free (greedy sorts under a total order keyed on
    // positions, Hungarian consumes a matrix, the tiny closed forms are
    // commutative), so the values match the per-pair evaluation exactly.
    for (size_t t = 0; t < tile; ++t) {
      const GroupedNeighborhood& s2 = s2s[t];
      const size_t n2 = s2.size;
      if (n2 == 0) {
        // n1 > 0 here: kInjectiveRow's vacuous n1 = 0 convention cannot
        // apply, and the one-empty-side value is 0 for both operators.
        out[t] = 0.0;
        continue;
      }
      auto& edges = scratch->edges;
      edges.clear();
      for (size_t p = 0; p < n1; ++p) {
        const NodeId x = row_node[p];
        internal::ForEachCompatRun(
            static_cast<LabelId>(row_class[p]), s2, compat,
            [&](uint32_t rb, uint32_t re) {
              for (uint32_t j = rb; j < re; ++j) {
                const double v = score(x, s2.nodes[j]);
                if (v > 0.0) {
                  edges.push_back({static_cast<uint32_t>(p), s2.pos[j], v});
                }
              }
            });
      }
      double sum;
      if (n1 == 1 || n2 == 1) {
        // Singleton side keeps the best edge (only positive scores can win,
        // so the >0-filtered edge list loses nothing).
        sum = 0.0;
        for (const WeightedEdge& e : edges) {
          if (e.weight > sum) sum = e.weight;
        }
      } else if (!internal::TinyMatchingSum(edges, &sum)) {
        if (algo == MatchingAlgo::kHungarian) {
          scratch->weights.assign(n1 * n2, 0.0);
          for (const WeightedEdge& e : edges) {
            scratch->weights[e.left * n2 + e.right] = e.weight;
          }
          sum = HungarianMaxWeightMatching(scratch->weights.data(), n1, n2);
        } else {
          sum = GreedyMaxWeightMatching(scratch, n1, n2);
        }
      }
      const double omega = OmegaValue(omega_kind, n1, n2);
      FSIM_DCHECK(omega > 0.0);
      out[t] = sum / omega;
    }
  }
  if constexpr (kMaxFamily) {
    constexpr bool kBothSides = M == MappingKind::kMaxBothSides;
    auto& acc = scratch->tile_acc;
    acc.assign(tile, 0.0);
    auto& col_off = scratch->tile_col_offsets;
    auto& col_best = scratch->tile_col_best;
    if constexpr (kBothSides) {
      col_off.resize(tile + 1);
      col_off[0] = 0;
      for (size_t t = 0; t < tile; ++t) {
        col_off[t + 1] = col_off[t] + static_cast<uint32_t>(s2s[t].size);
      }
      col_best.assign(col_off[tile], 0.0);
    }
    for (size_t p = 0; p < n1; ++p) {
      const LabelId a = row_class[p];
      const NodeId x = row_node[p];
      for (size_t t = 0; t < tile; ++t) {
        const GroupedNeighborhood& s2 = s2s[t];
        double best = 0.0;
        internal::ForEachCompatRun(
            a, s2, compat, [&](uint32_t rb, uint32_t re) {
              for (uint32_t j = rb; j < re; ++j) {
                const double v = score(x, s2.nodes[j]);
                if (v > best) best = v;
                if constexpr (kBothSides) {
                  double* cb = col_best.data() + col_off[t];
                  if (v > cb[s2.pos[j]]) cb[s2.pos[j]] = v;
                }
              }
            });
        acc[t] += best;  // rows ascending: the ungrouped row-sum order
      }
    }
    for (size_t t = 0; t < tile; ++t) {
      double sum = acc[t];
      if constexpr (kBothSides) {
        // n1 > 0 here, so the both-empty convention cannot apply.
        const double* cb = col_best.data() + col_off[t];
        const size_t n2 = s2s[t].size;
        for (size_t k = 0; k < n2; ++k) sum += cb[k];
      }
      const double omega = OmegaValue(omega_kind, n1, s2s[t].size);
      FSIM_DCHECK(omega > 0.0);
      out[t] = sum / omega;
    }
  }
}

/// Runtime-dispatched wrapper over DirectionScoreGroupedT.
template <typename ScoreFn>
double DirectionScoreGrouped(const OperatorConfig& op, MatchingAlgo algo,
                             const GroupedNeighborhood& s1,
                             const GroupedNeighborhood& s2,
                             const ClassCompatView& compat, ScoreFn&& score,
                             MatchingScratch* scratch) {
  switch (op.mapping) {
    case MappingKind::kMaxPerRow:
      return DirectionScoreGroupedT<MappingKind::kMaxPerRow>(
          op.omega, algo, s1, s2, compat, score, scratch);
    case MappingKind::kInjectiveRow:
      return DirectionScoreGroupedT<MappingKind::kInjectiveRow>(
          op.omega, algo, s1, s2, compat, score, scratch);
    case MappingKind::kMaxBothSides:
      return DirectionScoreGroupedT<MappingKind::kMaxBothSides>(
          op.omega, algo, s1, s2, compat, score, scratch);
    case MappingKind::kInjectiveSym:
      return DirectionScoreGroupedT<MappingKind::kInjectiveSym>(
          op.omega, algo, s1, s2, compat, score, scratch);
    case MappingKind::kProduct:
      return DirectionScoreGroupedT<MappingKind::kProduct>(
          op.omega, algo, s1, s2, compat, score, scratch);
  }
  return 0.0;
}

/// Upper bound of one direction's contribution (Eq. 6): DirectionScore with
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
