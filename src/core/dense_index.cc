#include "core/dense_index.h"

#include "core/init_value.h"

namespace fsim {

LabelClassTable::LabelClassTable(const LabelDict& dict,
                                 const LabelSimilarityCache& lsim,
                                 const FSimConfig& config,
                                 double label_weight)
    : n_(dict.size()), words_((dict.size() + 63) / 64) {
  compat_.assign(n_ * words_, 0);
  // A label term that is identically zero needs no |Σ|² table.
  const bool need_label_term =
      label_weight != 0.0 && config.label_term != LabelTermKind::kZero;
  if (need_label_term) label_term_.resize(n_ * n_);
  for (LabelId a = 0; a < n_; ++a) {
    uint64_t* row = compat_.data() + a * words_;
    double* terms =
        need_label_term ? label_term_.data() + static_cast<size_t>(a) * n_
                        : nullptr;
    for (LabelId b = 0; b < n_; ++b) {
      if (lsim.Compatible(a, b, config.theta)) {
        row[b >> 6] |= uint64_t{1} << (b & 63);
      }
      if (need_label_term) {
        terms[b] = label_weight * LabelTermValue(config, lsim, a, b);
      }
    }
  }
}

uint64_t LabelClassTable::EstimateBytes(size_t num_classes,
                                        bool with_label_term) {
  const uint64_t words = (num_classes + 63) / 64;
  uint64_t bytes = num_classes * words * sizeof(uint64_t);  // bitsets
  if (with_label_term) {
    bytes += static_cast<uint64_t>(num_classes) * num_classes * sizeof(double);
  }
  return bytes;
}

uint64_t DenseIndex::EstimateBytes(const Graph& g1, const Graph& g2,
                                   const FSimConfig& config) {
  // The class table is quadratic in |Σ|, the grouped adjacency linear in
  // |E| (run count <= |E|).
  auto adjacency_bytes = [](const Graph& g) -> uint64_t {
    return static_cast<uint64_t>(g.NumEdges()) *
               (sizeof(NodeId) + sizeof(uint32_t) + sizeof(ClassGroup)) +
           (g.NumNodes() + 1) * 2 * sizeof(uint64_t);
  };
  const double label_weight = 1.0 - config.w_out - config.w_in;
  uint64_t bytes = LabelClassTable::EstimateBytes(
      g1.dict()->size(), label_weight != 0.0 &&
                             config.label_term != LabelTermKind::kZero);
  if (config.w_out > 0.0) bytes += adjacency_bytes(g1) + adjacency_bytes(g2);
  if (config.w_in > 0.0) bytes += adjacency_bytes(g1) + adjacency_bytes(g2);
  return bytes;
}

DenseIndex DenseIndex::Build(const Graph& g1, const Graph& g2,
                             const FSimConfig& config,
                             const LabelSimilarityCache& lsim) {
  const double label_weight = 1.0 - config.w_out - config.w_in;
  DenseIndex index(LabelClassTable(*g1.dict(), lsim, config, label_weight));
  if (config.w_out > 0.0) {
    index.out1_ = GroupedAdjacency::Build(g1, /*out=*/true);
    index.out2_ = GroupedAdjacency::Build(g2, /*out=*/true);
  }
  if (config.w_in > 0.0) {
    index.in1_ = GroupedAdjacency::Build(g1, /*out=*/false);
    index.in2_ = GroupedAdjacency::Build(g2, /*out=*/false);
  }
  return index;
}

}  // namespace fsim
