#include "core/fsim_solver.h"

#include <utility>

#include "common/timer.h"
#include "core/fsim_engine.h"
#include "obs/trace.h"

namespace fsim {

Result<std::unique_ptr<FSimSolver>> FSimSolver::Create(
    const Graph& g1, const Graph& g2, const FSimConfig& config,
    const Options& options) {
  FSIM_RETURN_NOT_OK(ValidateFSimConfig(g1, g2, config));

  Timer build_timer;
  obs::TraceSpan init_span("engine.init");
  // The constructor is private, so make_unique cannot reach it.
  // fsim-lint: allow(naked-new)
  std::unique_ptr<FSimSolver> solver(new FSimSolver(g1, config));
  FSimStats& stats = solver->build_stats_;
  if (options.rows == nullptr && !options.repairable &&
      RunsOnTilePanels(config)) {
    FSIM_ASSIGN_OR_RETURN(TilePanelEngine panels,
                          TilePanelEngine::Build(g1, g2, solver->config_,
                                                 solver->lsim_, solver->pool_,
                                                 &stats));
    solver->panels_.emplace(std::move(panels));
  } else {
    // Tolerance frontiers and edit repair walk the reverse spans; full
    // sweeps do not need them.
    const bool reverse_spans =
        config.frontier_tolerance > 0.0 || options.repairable;
    FSIM_ASSIGN_OR_RETURN(
        PairStore store,
        PairStore::Build(g1, g2, config, solver->lsim_, &solver->pool_,
                         options.rows, reverse_spans));
    stats.theta_candidates = store.info().theta_candidates;
    stats.maintained_pairs = store.info().kept;
    stats.pruned_pairs = store.info().pruned;
    stats.neighbor_index_bytes = store.NeighborIndexBytes();
    stats.packed_neighbor_refs = store.packed_refs();
    PairStore& kept = solver->store_.emplace(std::move(store));
    solver->evaluator_.emplace(g1, g2, solver->config_, solver->lsim_, kept);
    solver->driver_.emplace(solver->pool_, kept, *solver->evaluator_, g1, g2,
                            solver->config_);
  }
  stats.build_seconds = build_timer.Seconds();
  return solver;
}

double FSimSolver::Step() {
  ++steps_;
  FSIM_TRACE_SPAN_ARG("engine.iter", steps_);
  return panels_ ? panels_->Step() : driver_->Step();
}

void FSimSolver::Run(FSimStats* stats,
                     const std::function<bool(double max_delta)>& done) {
  Timer iterate_timer;
  const uint32_t max_iters = FSimIterationBound(config_);
  const bool active = active_set();
  stats->active_set = active;
  // Pre-reserve the iteration-indexed telemetry: the hard bound is known
  // up front, so the loop never reallocates mid-iteration.
  if (config_.record_delta_history) stats->delta_history.reserve(max_iters);
  if (active) stats->active_pairs_history.reserve(max_iters);
  while (steps_ < max_iters) {
    const double max_delta = Step();
    stats->iterations = steps_;
    stats->final_delta = max_delta;
    if (config_.record_delta_history) {
      stats->delta_history.push_back(max_delta);
    }
    if (active) {
      stats->active_pairs_history.push_back(driver_->last_evaluated());
    }
    const bool stop = done && done(max_delta);
    if (max_delta < config_.epsilon) {
      stats->converged = true;
      break;
    }
    if (stop) break;
  }
  stats->iterate_seconds = iterate_timer.Seconds();
  if (panels_) {
    stats->full_sweep_iterations = stats->iterations;
    return;
  }
  stats->frontier_build_seconds = driver_->frontier_build_seconds();
  stats->full_sweep_iterations = driver_->full_sweeps();
  if (active && stats->iterations > 0 && store_->size() > 0) {
    stats->frozen_fraction =
        1.0 - static_cast<double>(driver_->total_evaluated()) /
                  (static_cast<double>(stats->iterations) *
                   static_cast<double>(store_->size()));
  }
}

const PairSpace& FSimSolver::space() const {
  return panels_ ? panels_->space() : *store_->space();
}

const double* FSimSolver::values() const {
  return panels_ ? panels_->values() : store_->prev_data();
}

FSimScores FSimSolver::TakeScores(FSimStats stats) {
  if (panels_) return panels_->TakeScores(std::move(stats));
  return FSimScores(store_->space(), store_->TakeScores(), std::move(stats));
}

}  // namespace fsim
