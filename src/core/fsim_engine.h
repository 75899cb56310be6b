// ComputeFSim — Algorithm 1 of the paper: the iterative, parallelizable
// computation of fractional χ-simulation scores for all candidate node pairs
// across two graphs (G1 = G2 allowed).
#ifndef FSIM_CORE_FSIM_ENGINE_H_
#define FSIM_CORE_FSIM_ENGINE_H_

#include "common/result.h"
#include "core/fsim_config.h"
#include "core/fsim_scores.h"
#include "graph/graph.h"

namespace fsim {

/// Validates `config` (weight ranges, shared dictionary, parameter domains).
Status ValidateFSimConfig(const Graph& g1, const Graph& g2,
                          const FSimConfig& config);

/// Computes fractional χ-simulation scores FSimχ(u, v) for u ∈ V(g1),
/// v ∈ V(g2). The graphs must share one LabelDict. Returns the converged
/// score container, or InvalidArgument for malformed configs / blown pair
/// limits, or ResourceExhausted when the run's index does not fit
/// config.neighbor_index_budget_bytes.
///
/// The run is the shared solver's (core/fsim_solver.h), which
/// ComputeTopKPairs, TopKSearch and IncrementalFSim::Create use too. Its
/// path follows from the config: at θ = 0 with the s or b mapping and no
/// upper-bound updating, every pair is a candidate and the run iterates on
/// the tile panels (core/panel_engine.h); every other run iterates
/// through the pair-graph CSR neighbor index with PairEvaluator
/// (core/pair_evaluator.h). Both run full sweeps and give the same values.
///
/// Guarantees (assuming MatchingAlgo::kHungarian for dp/bj, which makes
/// condition C3 of Theorem 1 exact):
///  * P1: every score is in [0, 1];
///  * P2: FSimχ(u,v) = 1  ⟺  u ⇝χ v (exact χ-simulation);
///  * P3: for χ ∈ {b, bj}, FSimχ(u,v) = FSimχ(v,u) when run with symmetric
///    inputs;
///  * convergence within ⌈log_{w+ + w-}(ε)⌉ iterations (Corollary 1).
Result<FSimScores> ComputeFSim(const Graph& g1, const Graph& g2,
                               const FSimConfig& config);

/// Self-simulation convenience: ComputeFSim(g, g, config).
Result<FSimScores> ComputeFSimSelf(const Graph& g, const FSimConfig& config);

}  // namespace fsim

#endif  // FSIM_CORE_FSIM_ENGINE_H_
