// The Equation 3 evaluation of a run of consecutive pairs: the sparse
// path of the shared solver (core/fsim_solver.h) and of IncrementalFSim's
// edit repair (core/incremental.h). The evaluation reads
// previous-iteration scores through the pair-graph CSR neighbor index
// (direct array indexing, no hash probes or label checks).
// The index enumerates exactly the candidate pairs Algorithm 1's Hp lookups
// visit, in the same order; tests/naive_fsim.h keeps that hash-lookup
// evaluation as the oracle the engines are checked against.
#ifndef FSIM_CORE_PAIR_EVALUATOR_H_
#define FSIM_CORE_PAIR_EVALUATOR_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>

#include "core/fsim_config.h"
#include "core/init_value.h"
#include "core/operators.h"
#include "core/pair_store.h"
#include "graph/graph.h"
#include "label/label_similarity.h"

namespace fsim {

/// One worker's scratch for PairEvaluator::EvaluateRun, and the run's
/// values for the sweep that asked for them.
struct alignas(64) PairEvalScratch {
  MatchingScratch matching;
  /// SegmentedMaxFamilySums: span starts and b's column slots.
  SegmentedSweepScratch sweep;
  /// The run's per-span max-family mapping sums.
  std::array<double, 2 * PairStore::kChunkPairs> sums;
  /// The run's values.
  std::array<double, PairStore::kChunkPairs> values;
};

/// Evaluates FSim^k(u, v) for maintained pairs against a PairStore's
/// previous-iteration buffer. Stateless between calls except for the
/// caller-owned PairEvalScratch, so one instance serves all workers.
/// `G` is the graph type whose degrees and labels it reads: Graph, or the
/// DynamicGraph of IncrementalFSim's edit repair.
///
/// A run of consecutive pairs of one index chunk is evaluated in two
/// passes. For the max-family mappings (s and b), one
/// SegmentedMaxFamilySums pass over all the run's entries gives every
/// span's mapping sum, b's column maxima included; the injective matchings
/// (dp, bj) and the product operator run per span. A finish per pair then
/// applies the empty-set conventions, Ωχ, the weights and the label term,
/// in the order of Equation 3.
///
/// This sparse path always runs the scalar operators of core/operators.h;
/// only the θ = 0 tile-panel loop for s and b (core/panel_engine.h) runs
/// through the kernel table (core/simd/), and the two give identical
/// values (tests/panel_engine_test.cc).
template <typename G>
class PairEvaluator {
 public:
  PairEvaluator(const G& g1, const G& g2, const FSimConfig& config,
                const LabelSimilarityCache& lsim, const PairStore& store)
      : g1_(g1),
        g2_(g2),
        config_(config),
        lsim_(lsim),
        store_(store),
        op_(config.operators()),
        max_family_(op_.mapping == MappingKind::kMaxPerRow ||
                    op_.mapping == MappingKind::kMaxBothSides),
        label_weight_(1.0 - config.w_out - config.w_in),
        alpha_(config.upper_bound ? config.alpha : 0.0) {}

  /// Writes the Equation 3 values of store pairs [begin, end), which must
  /// lie in one index chunk (PairStore::kChunkPairs), from the
  /// previous-iteration scores to out[0, end - begin). Every value is ==
  /// to the one a run of any other length gives. Safe to call
  /// concurrently with distinct scratches.
  void EvaluateRun(size_t begin, size_t end, PairEvalScratch* scratch,
                   double* out) const {
    const double* prev = store_.prev_data();
    const float* pruned = store_.pruned_bounds_data();
    auto score_of = [prev, pruned, this](uint32_t ref) -> double {
      if (ref & kNeighborRefPrunedTag) {
        return alpha_ *
               static_cast<double>(pruned[ref & ~kNeighborRefPrunedTag]);
      }
      return prev[ref];
    };
    if (!max_family_) {
      for (size_t i = begin; i < end; ++i) {
        store_.WithRefs(i, [&](auto out_refs, auto in_refs) {
          out[i - begin] = EvaluateSpans(i, out_refs, in_refs, score_of,
                                         &scratch->matching);
        });
      }
      return;
    }
    if (op_.mapping == MappingKind::kMaxBothSides) {
      // b's column slots: a span's columns are below n2, v's degree.
      size_t columns = 0;
      for (size_t i = begin; i < end; ++i) {
        const NodeId v = store_.V(i);
        columns = std::max({columns, g2_.OutDegree(v), g2_.InDegree(v)});
      }
      if (scratch->sweep.columns.size() < columns) {
        scratch->sweep.columns.resize(columns, 0.0);
      }
    }
    // One body for both index entry layouts (the packed 8-byte refs of
    // degree-bounded graphs and the wide 12-byte refs).
    store_.WithRunRefs(begin, end, [&](const auto* entries,
                                       std::span<const uint32_t> offsets) {
      double* sums = scratch->sums.data();
      auto sweep = [&](auto&& score) {
        if (op_.mapping == MappingKind::kMaxBothSides) {
          SegmentedMaxFamilySums<MappingKind::kMaxBothSides>(
              entries, offsets, score, &scratch->sweep, sums);
        } else {
          SegmentedMaxFamilySums<MappingKind::kMaxPerRow>(
              entries, offsets, score, &scratch->sweep, sums);
        }
      };
      if (store_.has_pruned_refs()) {
        sweep(score_of);
      } else {
        sweep([prev](uint32_t ref) { return prev[ref]; });
      }
      auto direction = [&](size_t k, uint32_t n1, uint32_t n2) {
        return MaxFamilyDirectionScore(op_, n1, n2, sums[k]);
      };
      // Locals: the stores to `out` could alias the config's doubles.
      const double w_out = config_.w_out;
      const double w_in = config_.w_in;
      const bool pin_diagonal = config_.pin_diagonal;
      // What depends on u only is read once per row of the pair space.
      NodeId u = kInvalidNode;
      uint32_t u_out = 0;
      uint32_t u_in = 0;
      LabelId u_label = 0;
      for (size_t j = 0; j < end - begin; ++j) {
        const NodeId v = store_.V(begin + j);
        if (store_.U(begin + j) != u) {
          u = store_.U(begin + j);
          u_out = static_cast<uint32_t>(g1_.OutDegree(u));
          u_in = static_cast<uint32_t>(g1_.InDegree(u));
          u_label = g1_.Label(u);
        }
        double out_score = 0.0;
        double in_score = 0.0;
        if (w_out > 0.0) {
          out_score = direction(2 * j, u_out,
                                static_cast<uint32_t>(g2_.OutDegree(v)));
        }
        if (w_in > 0.0) {
          in_score = direction(2 * j + 1, u_in,
                               static_cast<uint32_t>(g2_.InDegree(v)));
        }
        out[j] = pin_diagonal && u == v
                     ? 1.0
                     : w_out * out_score + w_in * in_score +
                           label_weight_ * LabelTermValue(config_, lsim_,
                                                          u_label,
                                                          g2_.Label(v));
      }
    });
  }

 private:
  /// The Equation 3 value of pair i from its spans, one at a time: the
  /// mappings outside the max family.
  template <typename Refs, typename ScoreFn>
  double EvaluateSpans(size_t i, Refs out_refs, Refs in_refs,
                       ScoreFn& score_of, MatchingScratch* scratch) const {
    const NodeId u = store_.U(i);
    const NodeId v = store_.V(i);
    if (config_.pin_diagonal && u == v) return 1.0;
    double out_score = 0.0;
    double in_score = 0.0;
    if (config_.w_out > 0.0) {
      out_score = DirectionScoreIndexed(op_, config_.matching,
                                        g1_.OutDegree(u), g2_.OutDegree(v),
                                        out_refs, score_of, scratch);
    }
    if (config_.w_in > 0.0) {
      in_score = DirectionScoreIndexed(op_, config_.matching, g1_.InDegree(u),
                                       g2_.InDegree(v), in_refs, score_of,
                                       scratch);
    }
    return config_.w_out * out_score + config_.w_in * in_score +
           label_weight_ * LabelTerm(u, v);
  }

  double LabelTerm(NodeId u, NodeId v) const {
    return LabelTermValue(config_, lsim_, g1_.Label(u), g2_.Label(v));
  }

  const G& g1_;
  const G& g2_;
  const FSimConfig& config_;
  const LabelSimilarityCache& lsim_;
  const PairStore& store_;
  const OperatorConfig op_;
  /// s or b: the mapping sums come from the segmented pass.
  const bool max_family_;
  const double label_weight_;
  const double alpha_;
};

}  // namespace fsim

#endif  // FSIM_CORE_PAIR_EVALUATOR_H_
