#include "core/fsim_engine.h"

#include <cmath>
#include <memory>
#include <utility>

#include "common/string_util.h"
#include "core/fsim_solver.h"

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
  if (!(config.frontier_tolerance >= 0.0) ||
      !std::isfinite(config.frontier_tolerance)) {
    return Status::InvalidArgument(
        "frontier_tolerance must be finite and >= 0");
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
  if (config.pin_diagonal && &g1 != &g2 && g1.NumNodes() != g2.NumNodes()) {
    return Status::InvalidArgument(
        "pin_diagonal requires a self-similarity run");
  }
  return Status::OK();
}

Result<FSimScores> ComputeFSim(const Graph& g1, const Graph& g2,
                               const FSimConfig& config) {
  FSIM_ASSIGN_OR_RETURN(std::unique_ptr<FSimSolver> solver,
                        FSimSolver::Create(g1, g2, config, {}));
  FSimStats stats = solver->build_stats();
  solver->Run(&stats);
  return solver->TakeScores(std::move(stats));
}

Result<FSimScores> ComputeFSimSelf(const Graph& g, const FSimConfig& config) {
  return ComputeFSim(g, g, config);
}

}  // namespace fsim
