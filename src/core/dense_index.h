// Label-class indexed acceleration structures for the dense engine
// (core/dense_engine.h) — the dense-mode counterpart of PairStore's
// pair-graph CSR neighbor index.
//
// The dense iterate loop cannot afford a per-pair candidate index (it
// maintains all |V1| x |V2| pairs), so the per-visit label work is removed
// at the *label-class* level instead:
//
//  * LabelClassTable — for each class pair (ℓ1, ℓ2) a θ-thresholded
//    compatibility bit (per-ℓ1 bitsets over ℓ2 classes: compatibility
//    inside Mχ is one bit test, zero hash/string work) plus the hoisted,
//    weight-scaled label term of Equation 1/3 (iteration-invariant);
//  * GroupedAdjacency (core/grouped_adjacency.h) — each node's out/in
//    neighbor list re-sorted by label class with class runs. The
//    tile-panel builder (core/simd/tile_panel.h) turns g2's runs into
//    per-class work lists against the bitsets, and the iterate loop reads
//    g1's runs to map each S1 row to its class.
//
// ComputeFSimDense checks DenseIndex::EstimateBytes plus the panel bound
// against FSimConfig::neighbor_index_budget_bytes (the |Σ|² label-term
// table is the quadratic part) before it builds either.
#ifndef FSIM_CORE_DENSE_INDEX_H_
#define FSIM_CORE_DENSE_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/aligned.h"
#include "core/fsim_config.h"
#include "core/grouped_adjacency.h"
#include "graph/graph.h"
#include "label/label_similarity.h"

namespace fsim {

/// A borrowed view of LabelClassTable's θ-thresholded per-class bitsets,
/// the compatibility test the tile-panel builder derives work lists from.
struct ClassCompatView {
  const uint64_t* bits = nullptr;  // per-class bitset rows
  size_t words = 0;                // 64-bit words per row

  bool Compatible(LabelId a, LabelId b) const {
    return (bits[a * words + (b >> 6)] >> (b & 63)) & 1u;
  }
};

/// Per-label-class-pair tables: the θ compatibility bitset and the hoisted
/// label term. Both are |Σ| x |Σ| over the shared dictionary, computed once
/// per run.
class LabelClassTable {
 public:
  /// `label_weight` is (1 - w+ - w-); the stored term is pre-scaled so the
  /// iterate loop adds it without a multiply.
  LabelClassTable(const LabelDict& dict, const LabelSimilarityCache& lsim,
                  const FSimConfig& config, double label_weight);

  size_t num_classes() const { return n_; }

  /// The label-constrained mapping test (Remark 2) as one bit test.
  bool Compatible(LabelId a, LabelId b) const {
    return (compat_[a * words_ + (b >> 6)] >> (b & 63)) & 1u;
  }

  /// (1 - w+ - w-) * label_term(a, b), hoisted out of the iterate loop.
  /// The table is not materialized when every entry is provably zero
  /// (label_weight == 0 or LabelTermKind::kZero).
  double WeightedLabelTerm(LabelId a, LabelId b) const {
    return label_term_.empty() ? 0.0 : label_term_[a * n_ + b];
  }

  /// Class a's row of the weighted label-term table, or nullptr when the
  /// table is not materialized — the combine kernel's gather base
  /// (core/simd/kernels.h CombineRowFn; row[b] == WeightedLabelTerm(a, b)).
  const double* WeightedLabelTermRow(LabelId a) const {
    return label_term_.empty() ? nullptr : label_term_.data() + a * n_;
  }

  /// A borrowed view of the bitsets. Valid while this table lives.
  ClassCompatView view() const {
    return ClassCompatView{compat_.data(), words_};
  }

  /// Heap footprint for `num_classes` classes (budget gating): the bitsets,
  /// plus the n² label-term table when `with_label_term` (a zero-valued
  /// term materializes no table).
  static uint64_t EstimateBytes(size_t num_classes, bool with_label_term);

  size_t MemoryBytes() const {
    return compat_.capacity() * sizeof(uint64_t) +
           label_term_.capacity() * sizeof(double);
  }

 private:
  size_t n_ = 0;
  size_t words_ = 0;  // 64-bit words per bitset row
  /// n_ rows of `words_` words. 64-byte aligned: the tile-panel builder
  /// (core/simd/tile_panel.h) streams whole rows when deriving work lists.
  AlignedVector<uint64_t> compat_;
  std::vector<double> label_term_;  // n_ x n_, pre-scaled by label_weight
};

/// The dense engine's label-class index: one LabelClassTable plus the
/// grouped adjacency of every direction a run evaluates.
class DenseIndex {
 public:
  /// Upper bound on MemoryBytes() of the index Build returns for the same
  /// arguments: the class table plus the grouped adjacency of every
  /// direction with nonzero weight.
  static uint64_t EstimateBytes(const Graph& g1, const Graph& g2,
                                const FSimConfig& config);

  /// Builds the index. The caller checks EstimateBytes against its budget
  /// first.
  static DenseIndex Build(const Graph& g1, const Graph& g2,
                          const FSimConfig& config,
                          const LabelSimilarityCache& lsim);

  const LabelClassTable& table() const { return table_; }

  GroupedNeighborhood Out1(NodeId u) const { return out1_.Neighborhood(u); }
  GroupedNeighborhood In1(NodeId u) const { return in1_.Neighborhood(u); }
  GroupedNeighborhood Out2(NodeId v) const { return out2_.Neighborhood(v); }
  GroupedNeighborhood In2(NodeId v) const { return in2_.Neighborhood(v); }

  size_t MemoryBytes() const {
    return table_.MemoryBytes() + out1_.MemoryBytes() + in1_.MemoryBytes() +
           out2_.MemoryBytes() + in2_.MemoryBytes();
  }

 private:
  DenseIndex(LabelClassTable table) : table_(std::move(table)) {}

  LabelClassTable table_;
  // Unused directions (zero weight) stay empty — Neighborhood is never
  // called on them.
  GroupedAdjacency out1_, in1_, out2_, in2_;
};

}  // namespace fsim

#endif  // FSIM_CORE_DENSE_INDEX_H_
