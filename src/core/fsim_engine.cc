#include "core/fsim_engine.h"

#include <cmath>
#include <utility>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/pair_evaluator.h"
#include "core/pair_store.h"
#include "core/panel_engine.h"
#include "obs/trace.h"

namespace fsim {

Status ValidateFSimConfig(const Graph& g1, const Graph& g2,
                          const FSimConfig& config) {
  if (g1.dict() != g2.dict()) {
    return Status::InvalidArgument(
        "graphs must share one LabelDict (build them from a shared "
        "dictionary)");
  }
  // Each range check is written so that NaN fails it: every comparison
  // with NaN is false.
  if (!(config.w_out >= 0.0 && config.w_in >= 0.0 &&
        config.w_out + config.w_in < 1.0)) {
    return Status::InvalidArgument(StrFormat(
        "weights must satisfy 0 <= w+, 0 <= w-, w+ + w- < 1 (got %.3f, %.3f)",
        config.w_out, config.w_in));
  }
  if (!(config.theta >= 0.0 && config.theta <= 1.0)) {
    return Status::InvalidArgument("theta must be in [0, 1]");
  }
  if (!(config.alpha >= 0.0 && config.alpha < 1.0)) {
    return Status::InvalidArgument("alpha must be in [0, 1)");
  }
  if (!(config.beta >= 0.0 && config.beta <= 1.0)) {
    return Status::InvalidArgument("beta must be in [0, 1]");
  }
  if (!(config.epsilon > 0.0) || !std::isfinite(config.epsilon)) {
    return Status::InvalidArgument("epsilon must be positive and finite");
  }
  if (config.num_threads < 1) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  if (!std::isfinite(config.frontier_tolerance)) {
    return Status::InvalidArgument("frontier_tolerance must be finite");
  }
  if (config.active_set == ActiveSetMode::kTolerance &&
      !(config.frontier_tolerance > 0.0)) {
    return Status::InvalidArgument(
        "tolerance-mode active-set iteration needs a positive "
        "frontier_tolerance");
  }
  if (!(config.frontier_density_threshold >= 0.0 &&
        config.frontier_density_threshold <= 1.0)) {
    return Status::InvalidArgument(
        "frontier_density_threshold must be in [0, 1]");
  }
  if (!(config.active_set_activation_fraction >= 0.0 &&
        config.active_set_activation_fraction <= 1.0)) {
    return Status::InvalidArgument(
        "active_set_activation_fraction must be in [0, 1]");
  }
  if (config.neighbor_index_budget_bytes == 0) {
    return Status::InvalidArgument(
        "neighbor_index_budget_bytes must be positive (every engine "
        "iterates through its neighbor index)");
  }
  if (config.iterate_grain == 0) {
    return Status::InvalidArgument("iterate_grain must be >= 1");
  }
  if (config.pin_diagonal && &g1 != &g2 && g1.NumNodes() != g2.NumNodes()) {
    return Status::InvalidArgument(
        "pin_diagonal requires a self-similarity run");
  }
  return Status::OK();
}

Result<FSimScores> ComputeFSim(const Graph& g1, const Graph& g2,
                               const FSimConfig& config) {
  FSIM_RETURN_NOT_OK(ValidateFSimConfig(g1, g2, config));

  ThreadPool pool(config.num_threads);
  Timer build_timer;
  obs::TraceSpan init_span("engine.init");
  LabelSimilarityCache lsim(*g1.dict(), config.label_sim);
  FSimStats stats;
  if (RunsOnTilePanels(config)) {
    FSIM_ASSIGN_OR_RETURN(
        TilePanelEngine engine,
        TilePanelEngine::Build(g1, g2, config, lsim, pool, &stats));
    stats.build_seconds = build_timer.Seconds();
    init_span.End();
    engine.Run(&stats);
    return engine.TakeScores(std::move(stats));
  }
  FSIM_ASSIGN_OR_RETURN(PairStore store,
                        PairStore::Build(g1, g2, config, lsim, &pool));
  stats.theta_candidates = store.info().theta_candidates;
  stats.maintained_pairs = store.info().kept;
  stats.pruned_pairs = store.info().pruned;
  stats.neighbor_index_bytes = store.NeighborIndexBytes();
  stats.packed_neighbor_refs = store.packed_refs();
  stats.build_seconds = build_timer.Seconds();
  init_span.End();

  const PairEvaluator evaluator(g1, g2, config, lsim, store);
  ActiveSetDriver driver(pool, store, evaluator, g1, g2, config);
  driver.Run(&stats);

  return FSimScores(store.space(), store.TakeScores(), std::move(stats));
}

Result<FSimScores> ComputeFSimSelf(const Graph& g, const FSimConfig& config) {
  return ComputeFSim(g, g, config);
}

}  // namespace fsim
