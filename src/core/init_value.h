// FSim^0 initialization (§3.3 and the §4.3 SimRank/RoleSim configurations)
// and the additive label term of Equation 1/3, shared by every engine
// (sparse, θ = 0 tile panels, top-k search) so the InitKind/LabelTermKind
// semantics cannot silently diverge between them.
#ifndef FSIM_CORE_INIT_VALUE_H_
#define FSIM_CORE_INIT_VALUE_H_

#include <algorithm>

#include "core/fsim_config.h"
#include "graph/graph.h"
#include "label/label_similarity.h"

namespace fsim {

/// The FSim^0 value of pair (u, v) under config.init.
inline double InitValue(const FSimConfig& config,
                        const LabelSimilarityCache& lsim, const Graph& g1,
                        const Graph& g2, NodeId u, NodeId v) {
  switch (config.init) {
    case InitKind::kLabelSim:
      return lsim.Sim(g1.Label(u), g2.Label(v));
    case InitKind::kIndicatorDiagonal:
      return u == v ? 1.0 : 0.0;
    case InitKind::kDegreeRatio: {
      const double d1 = static_cast<double>(g1.OutDegree(u));
      const double d2 = static_cast<double>(g2.OutDegree(v));
      if (d1 == 0.0 && d2 == 0.0) return 1.0;
      return std::min(d1, d2) / std::max(d1, d2);
    }
    case InitKind::kOnes:
      return 1.0;
  }
  return 0.0;
}

/// The additive L-term of Equation 1/3 for a label-class pair under
/// config.label_term. Iteration-invariant: the θ = 0 tile panels
/// (core/panel_engine.h) hoist it per label pair; the sparse path reads it
/// per pair evaluation (one table lookup, with label(u) read once per row
/// of the pair space).
inline double LabelTermValue(const FSimConfig& config,
                             const LabelSimilarityCache& lsim, LabelId a,
                             LabelId b) {
  switch (config.label_term) {
    case LabelTermKind::kLabelSim:
      return lsim.Sim(a, b);
    case LabelTermKind::kZero:
      return 0.0;
    case LabelTermKind::kOne:
      return 1.0;
  }
  return 0.0;
}

}  // namespace fsim

#endif  // FSIM_CORE_INIT_VALUE_H_
