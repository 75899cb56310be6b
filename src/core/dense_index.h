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
//  * GroupedAdjacency — each node's out/in neighbor list re-sorted by
//    label class with group offsets (core/operators.h ClassGroup /
//    GroupedNeighborhood), so DirectionScoreGrouped enumerates only
//    compatible (x, y) candidates by intersecting class runs and skips
//    whole incompatible classes instead of testing the full
//    N±(u) x N±(v) cross product.
//
// DenseIndex bundles both under the FSimConfig::neighbor_index_budget_bytes
// ceiling (the |Σ|² label-term table is the quadratic part); when it does
// not fit, ComputeFSimDense fails with ResourceExhausted.
#ifndef FSIM_CORE_DENSE_INDEX_H_
#define FSIM_CORE_DENSE_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/aligned.h"
#include "common/result.h"
#include "core/fsim_config.h"
#include "core/operators.h"
#include "graph/graph.h"
#include "label/label_similarity.h"

namespace fsim {

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

  /// The operators' borrowed view of the bitsets and per-class
  /// compatible-class lists. Valid while this table lives.
  ClassCompatView view() const {
    return ClassCompatView{compat_.data(), words_, compat_offsets_.data(),
                           compat_list_.data()};
  }

  /// Worst-case heap footprint for `num_classes` classes (budget gating):
  /// bitsets + offsets + a full n² compat list, plus the n² label-term
  /// table when `with_label_term` (a zero-valued term materializes no
  /// table).
  static uint64_t EstimateBytes(size_t num_classes, bool with_label_term);

  size_t MemoryBytes() const {
    return compat_.capacity() * sizeof(uint64_t) +
           label_term_.capacity() * sizeof(double) +
           compat_offsets_.capacity() * sizeof(uint32_t) +
           compat_list_.capacity() * sizeof(LabelId);
  }

 private:
  size_t n_ = 0;
  size_t words_ = 0;  // 64-bit words per bitset row
  /// n_ rows of `words_` words. 64-byte aligned: the tile-panel builder
  /// (core/simd/tile_panel.h) streams whole rows when deriving work lists.
  AlignedVector<uint64_t> compat_;
  std::vector<double> label_term_;    // n_ x n_, pre-scaled by label_weight
  std::vector<uint32_t> compat_offsets_;  // n_+1: per-class compat-list CSR
  std::vector<LabelId> compat_list_;      // ascending within each class
};

/// One direction's adjacency of one graph, re-sorted per node by
/// (label class, node id) with class-run offsets. Within a run node ids —
/// and therefore original neighbor-list positions — stay ascending, which
/// DirectionScoreGrouped relies on for order-exact matching tie-breaks.
class GroupedAdjacency {
 public:
  /// Builds the grouped view of N+(·) (`out` = true) or N-(·) over a
  /// dictionary of `num_classes` label classes.
  static GroupedAdjacency Build(const Graph& g, bool out, size_t num_classes);

  /// The grouped view of node u's neighbor set.
  GroupedNeighborhood Neighborhood(NodeId u) const {
    const uint64_t begin = node_offsets_[u];
    return GroupedNeighborhood{
        {groups_.data() + group_offsets_[u], groups_.data() + group_offsets_[u + 1]},
        nodes_.data() + begin,
        pos_.data() + begin,
        class_offsets_.data() + u * (num_classes_ + 1),
        static_cast<size_t>(node_offsets_[u + 1] - begin)};
  }

  size_t MemoryBytes() const {
    return nodes_.capacity() * sizeof(NodeId) +
           pos_.capacity() * sizeof(uint32_t) +
           groups_.capacity() * sizeof(ClassGroup) +
           class_offsets_.capacity() * sizeof(uint32_t) +
           node_offsets_.capacity() * sizeof(uint64_t) +
           group_offsets_.capacity() * sizeof(uint64_t);
  }

 private:
  size_t num_classes_ = 0;
  std::vector<uint64_t> node_offsets_;   // |V|+1, into nodes_/pos_
  std::vector<uint64_t> group_offsets_;  // |V|+1, into groups_
  std::vector<NodeId> nodes_;            // neighbors in (class, id) order
  std::vector<uint32_t> pos_;            // original position of nodes_[k]
  std::vector<ClassGroup> groups_;       // class runs, begin/end local to node
  /// Dense per-node class index: (num_classes_+1) cumulative local offsets
  /// per node, so the class-c run of u is [off[c], off[c+1]) with one load.
  std::vector<uint32_t> class_offsets_;
};

/// The dense engine's label-class index: one LabelClassTable plus the
/// grouped adjacency of every direction a run evaluates.
class DenseIndex {
 public:
  /// Builds the index; ResourceExhausted, naming the estimated footprint
  /// and the budget, when that exceeds config.neighbor_index_budget_bytes.
  static Result<DenseIndex> Build(const Graph& g1, const Graph& g2,
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
