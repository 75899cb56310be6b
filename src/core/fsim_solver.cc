#include "core/fsim_solver.h"

#include <algorithm>
#include <cmath>
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
    // Edit repair walks the reverse spans; full sweeps do not need them.
    FSIM_ASSIGN_OR_RETURN(
        PairStore store,
        PairStore::Build(g1, g2, config, solver->lsim_, &solver->pool_,
                         options.rows, options.repairable));
    stats.theta_candidates = store.info().theta_candidates;
    stats.maintained_pairs = store.info().kept;
    stats.pruned_pairs = store.info().pruned;
    stats.neighbor_index_bytes = store.NeighborIndexBytes();
    stats.packed_neighbor_refs = store.packed_refs();
    PairStore& kept = solver->store_.emplace(std::move(store));
    solver->evaluator_.emplace(g1, g2, solver->config_, solver->lsim_, kept);
    solver->workers_.resize(static_cast<size_t>(solver->pool_.num_threads()));
  }
  stats.build_seconds = build_timer.Seconds();
  return solver;
}

double FSimSolver::Step() {
  ++steps_;
  FSIM_TRACE_SPAN_ARG("engine.iter", steps_);
  return panels_ ? panels_->Step() : SweepStore();
}

double FSimSolver::SweepStore() {
  FSIM_TRACE_SPAN_ARG("engine.sweep.full", store_->size());
  constexpr size_t kChunk = PairStore::kChunkPairs;
  const size_t n = store_->size();
  for (WorkerSweep& w : workers_) w.max_delta = 0.0;
  pool_.ParallelForChunked(
      (n + kChunk - 1) / kChunk, 1,
      [&](int worker, size_t first_chunk, size_t last_chunk) {
        WorkerSweep& w = workers_[worker];
        double* values = w.scratch.values.data();
        double max_delta = w.max_delta;
        for (size_t c = first_chunk; c < last_chunk; ++c) {
          const size_t begin = c * kChunk;
          const size_t end = std::min(n, begin + kChunk);
          evaluator_->EvaluateRun(begin, end, &w.scratch, values);
          for (size_t i = begin; i < end; ++i) {
            const double value = values[i - begin];
            max_delta =
                std::max(max_delta, std::abs(value - store_->prev(i)));
            store_->set_curr(i, value);
          }
        }
        w.max_delta = max_delta;
      });
  store_->SwapBuffers();
  double max_delta = 0.0;
  for (const WorkerSweep& w : workers_) {
    max_delta = std::max(max_delta, w.max_delta);
  }
  return max_delta;
}

void FSimSolver::Run(FSimStats* stats,
                     const std::function<bool(double max_delta)>& done) {
  Timer iterate_timer;
  const uint32_t max_iters = FSimIterationBound(config_);
  // Pre-reserve the iteration-indexed telemetry: the hard bound is known
  // up front, so the loop never reallocates mid-iteration.
  if (config_.record_delta_history) stats->delta_history.reserve(max_iters);
  while (steps_ < max_iters) {
    const double max_delta = Step();
    stats->iterations = steps_;
    stats->final_delta = max_delta;
    if (config_.record_delta_history) {
      stats->delta_history.push_back(max_delta);
    }
    const bool stop = done && done(max_delta);
    if (max_delta < config_.epsilon) {
      stats->converged = true;
      break;
    }
    if (stop) break;
  }
  stats->iterate_seconds = iterate_timer.Seconds();
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
