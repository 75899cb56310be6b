#include "align/final_align.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "core/pair_space.h"

namespace fsim {

Alignment FinalAlignment(const Graph& g1, const Graph& g2,
                         const FinalOptions& opts) {
  FSIM_CHECK(g1.dict() == g2.dict());
  const size_t n1 = g1.NumNodes();
  const size_t n2 = g2.NumNodes();

  // Undirected adaptations give symmetric neighborhoods (FINAL operates on
  // undirected adjacency).
  Graph u1 = g1.AsUndirected();
  Graph u2 = g2.AsUndirected();

  // Candidate pairs: same-label only (h(u,v) = 1 on them, 0 elsewhere; pairs
  // with h = 0 keep negligible mass and are dropped, which is FINAL's own
  // attribute-based sparsification) — the indicator-label space at θ = 1.
  FSimConfig space_config;
  space_config.label_sim = LabelSimKind::kIndicator;
  space_config.theta = 1.0;
  space_config.pair_limit = opts.pair_limit;
  const LabelSimilarityCache lsim(*g1.dict(), LabelSimKind::kIndicator);
  Result<PairSpace> space = PairSpace::Build(g1, g2, space_config, lsim);
  FSIM_CHECK(space.ok()) << "FINAL pair limit exceeded: "
                         << space.status().ToString();
  const std::vector<uint64_t>& keys = space->keys();

  auto inv_sqrt_deg = [](const Graph& g, NodeId u) {
    const double d = static_cast<double>(g.OutDegree(u));
    return d > 0.0 ? 1.0 / std::sqrt(d) : 0.0;
  };
  std::vector<double> isd1(n1), isd2(n2);
  for (NodeId u = 0; u < n1; ++u) isd1[u] = inv_sqrt_deg(u1, u);
  for (NodeId v = 0; v < n2; ++v) isd2[v] = inv_sqrt_deg(u2, v);

  // Attribute prior h: label agreement (already enforced by the candidate
  // set) refined by degree similarity — FINAL supports numeric node
  // attributes, and degree is the standard choice when no richer attributes
  // exist. Without it the prior is uniform on same-label pairs and the
  // fixpoint cannot break their ties.
  auto prior = [&](NodeId u, NodeId v) {
    const double d1 = static_cast<double>(u1.OutDegree(u));
    const double d2 = static_cast<double>(u2.OutDegree(v));
    if (d1 == 0.0 && d2 == 0.0) return 1.0;
    return std::min(d1, d2) / std::max(d1, d2);
  };

  std::vector<double> h(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    h[i] = prior(PairFirst(keys[i]), PairSecond(keys[i]));
  }
  std::vector<double> prev(h);
  std::vector<double> curr(keys.size(), 0.0);
  for (uint32_t iter = 0; iter < opts.iterations; ++iter) {
    for (size_t i = 0; i < keys.size(); ++i) {
      const NodeId u = PairFirst(keys[i]);
      const NodeId v = PairSecond(keys[i]);
      double acc = 0.0;
      for (NodeId un : u1.OutNeighbors(u)) {
        for (NodeId vn : u2.OutNeighbors(v)) {
          const uint32_t j = space->Find(un, vn);
          if (j == PairSpace::kNotFound) continue;
          acc += prev[j] * isd1[un] * isd2[vn];
        }
      }
      curr[i] =
          opts.alpha * isd1[u] * isd2[v] * acc + (1.0 - opts.alpha) * h[i];
    }
    prev.swap(curr);
  }

  Alignment out;
  out.aligned.resize(n1);
  std::vector<double> best(n1, 0.0);
  for (size_t i = 0; i < keys.size(); ++i) {
    const NodeId u = PairFirst(keys[i]);
    const NodeId v = PairSecond(keys[i]);
    if (prev[i] > best[u] + 1e-12) {
      best[u] = prev[i];
      out.aligned[u].assign(1, v);
    } else if (!out.aligned[u].empty() && prev[i] >= best[u] - 1e-12) {
      out.aligned[u].push_back(v);
    }
  }
  return out;
}

}  // namespace fsim
