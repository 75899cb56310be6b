// A brute-force reference for PairStore::Build: the candidate pairs, their
// initial scores, the tracked pruned bounds and every neighbor-index span,
// computed by nested loops over all node pairs and looked up by key in an
// ordered map, with none of the engine's label-class tables. Tests compare
// the engine's store against it entry for entry.
#ifndef FSIM_TESTS_REFERENCE_PAIR_STORE_H_
#define FSIM_TESTS_REFERENCE_PAIR_STORE_H_

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "common/check.h"
#include "core/fsim_config.h"
#include "core/init_value.h"
#include "core/operators.h"
#include "graph/graph.h"
#include "label/label_similarity.h"

namespace fsim {
namespace testing {

/// One neighbor-index entry: row, col, ref.
using ReferenceEntry = std::array<uint32_t, 3>;

struct ReferencePairStore {
  std::vector<uint64_t> keys;  // maintained pairs, ascending
  std::vector<double> init;    // FSim^0 per maintained pair
  // Eq. 6 bounds of the tracked pruned pairs (α > 0), in ascending key
  // order; a tagged ref's index counts into this list.
  std::vector<float> pruned_bounds;
  // Per maintained pair i: spans[2i] its out-entries, spans[2i+1] its
  // in-entries, each in (row, col) order.
  std::vector<std::vector<ReferenceEntry>> spans;
};

/// Builds the reference for `config`. `reverse_spans` is the span layout
/// the store chose (PairStore::reverse_spans()): with it, a direction is
/// also materialized when only the opposite weight is nonzero, and pinned
/// diagonal pairs keep their spans. `candidates`, when given, replaces the
/// all-pairs loop for inputs too large for it: the caller's ascending
/// keys, each of which must be compatible.
inline ReferencePairStore BuildReferencePairStore(
    const Graph& g1, const Graph& g2, const FSimConfig& config,
    const LabelSimilarityCache& lsim, bool reverse_spans,
    const std::vector<uint64_t>* candidates = nullptr) {
  const OperatorConfig op = config.operators();
  const double label_weight = 1.0 - config.w_out - config.w_in;
  auto compat = [&](NodeId x, NodeId y) {
    return lsim.Compatible(g1.Label(x), g2.Label(y), config.theta);
  };

  ReferencePairStore ref;
  std::vector<uint64_t> all_pairs;
  if (candidates == nullptr) {
    for (NodeId u = 0; u < g1.NumNodes(); ++u) {
      for (NodeId v = 0; v < g2.NumNodes(); ++v) {
        if (compat(u, v)) all_pairs.push_back(PairKey(u, v));
      }
    }
    candidates = &all_pairs;
  }
  std::map<uint64_t, uint32_t> ref_of;  // maintained slot or tagged index
  for (const uint64_t key : *candidates) {
    const NodeId u = PairFirst(key);
    const NodeId v = PairSecond(key);
    FSIM_CHECK(compat(u, v));
    if (config.upper_bound) {
      const double bound =
          config.w_out * DirectionUpperBound(op, g1.OutNeighbors(u),
                                             g2.OutNeighbors(v), compat) +
          config.w_in * DirectionUpperBound(op, g1.InNeighbors(u),
                                            g2.InNeighbors(v), compat) +
          label_weight *
              LabelTermValue(config, lsim, g1.Label(u), g2.Label(v));
      if (!(bound > config.beta || (config.pin_diagonal && u == v))) {
        if (config.alpha > 0.0) {
          ref_of[key] = kNeighborRefPrunedTag |
                        static_cast<uint32_t>(ref.pruned_bounds.size());
          ref.pruned_bounds.push_back(static_cast<float>(bound));
        }
        continue;
      }
    }
    ref_of[key] = static_cast<uint32_t>(ref.keys.size());
    ref.keys.push_back(key);
    ref.init.push_back(InitValue(config, lsim, g1, g2, u, v));
  }

  const bool use_out =
      config.w_out > 0.0 || (reverse_spans && config.w_in > 0.0);
  const bool use_in =
      config.w_in > 0.0 || (reverse_spans && config.w_out > 0.0);
  const bool skip_diagonal = config.pin_diagonal && !reverse_spans;
  auto span_of = [&](std::span<const NodeId> s1, std::span<const NodeId> s2) {
    std::vector<ReferenceEntry> entries;
    for (uint32_t r = 0; r < s1.size(); ++r) {
      for (uint32_t c = 0; c < s2.size(); ++c) {
        if (!compat(s1[r], s2[c])) continue;
        auto it = ref_of.find(PairKey(s1[r], s2[c]));
        if (it != ref_of.end()) entries.push_back({r, c, it->second});
      }
    }
    return entries;
  };
  ref.spans.resize(2 * ref.keys.size());
  for (size_t i = 0; i < ref.keys.size(); ++i) {
    const NodeId u = PairFirst(ref.keys[i]);
    const NodeId v = PairSecond(ref.keys[i]);
    if (skip_diagonal && u == v) continue;
    if (use_out) {
      ref.spans[2 * i] = span_of(g1.OutNeighbors(u), g2.OutNeighbors(v));
    }
    if (use_in) {
      ref.spans[2 * i + 1] = span_of(g1.InNeighbors(u), g2.InNeighbors(v));
    }
  }
  return ref;
}

}  // namespace testing
}  // namespace fsim

#endif  // FSIM_TESTS_REFERENCE_PAIR_STORE_H_
