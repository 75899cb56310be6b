// The one Algorithm 1 solver behind ComputeFSim, ComputeTopKPairs,
// TopKSearch and IncrementalFSim::Create. It validates the config, owns the
// worker pool and the label-similarity cache, and iterates Equation 3 on
// one of two paths with the same values: the θ = 0 tile panels
// (core/panel_engine.h) in full sweeps when RunsOnTilePanels(config) holds
// and every row is wanted, else the PairStore neighbor index
// (core/pair_store.h) evaluated by PairEvaluator (core/pair_evaluator.h),
// in full sweeps too. Run is the engines' one ε/bound iterate loop.
#ifndef FSIM_CORE_FSIM_SOLVER_H_
#define FSIM_CORE_FSIM_SOLVER_H_

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "core/fsim_config.h"
#include "core/fsim_scores.h"
#include "core/pair_evaluator.h"
#include "core/pair_space.h"
#include "core/pair_store.h"
#include "core/panel_engine.h"
#include "graph/graph.h"
#include "label/label_similarity.h"

namespace fsim {

class FSimSolver {
 public:
  struct Options {
    /// Fill only the rows u of g1 with (*rows)[u] set (TopKSearch's radius
    /// ball); a pair of any other row reads 0.
    const std::vector<bool>* rows = nullptr;
    /// Build the sparse path's index in the reverse-span layout:
    /// IncrementalFSim repairs on store() after the solve.
    bool repairable = false;
  };

  /// Validates `config` and builds the path (either option takes the sparse
  /// one) and FSim^0 inside one engine.init span. Fails as ComputeFSim
  /// does. The graphs must outlive the solver.
  static Result<std::unique_ptr<FSimSolver>> Create(
      const Graph& g1, const Graph& g2, const FSimConfig& config,
      const Options& options);

  /// One Jacobi step in one engine.iter span; returns the max delta.
  double Step();

  /// Steps until the max delta drops below config.epsilon or
  /// FSimIterationBound(config) steps have run, recording the iterate
  /// fields of `*stats`. `done`, when set, sees every step's max delta
  /// before the ε test and ends the run by returning true.
  void Run(FSimStats* stats,
           const std::function<bool(double max_delta)>& done = nullptr);

  /// The pair space and its current scores in slot order.
  const PairSpace& space() const;
  const double* values() const;

  /// The build fields of a ComputeFSim FSimStats.
  const FSimStats& build_stats() const { return build_stats_; }

  FSimScores TakeScores(FSimStats stats);

  /// The sparse path's store and what IncrementalFSim keeps of the solver;
  /// taking them ends it.
  PairStore& store() { return *store_; }
  PairStore TakeStore() { return std::move(*store_); }
  LabelSimilarityCache TakeLabelSimilarity() { return std::move(lsim_); }

 private:
  FSimSolver(const Graph& g1, const FSimConfig& config)
      : config_(config),
        pool_(config.num_threads),
        lsim_(*g1.dict(), config.label_sim) {}

  /// One Jacobi full sweep over store_, one index chunk per scheduler
  /// task; returns the max delta.
  double SweepStore();

  /// A worker's evaluation scratch and the max delta it saw this sweep.
  struct alignas(64) WorkerSweep {
    PairEvalScratch scratch;
    double max_delta = 0.0;
  };

  const FSimConfig config_;
  ThreadPool pool_;
  LabelSimilarityCache lsim_;
  FSimStats build_stats_;
  uint32_t steps_ = 0;
  std::optional<TilePanelEngine> panels_;
  // The sparse path; the evaluator refers to the members above.
  std::optional<PairStore> store_;
  std::optional<PairEvaluator<Graph>> evaluator_;
  std::vector<WorkerSweep> workers_;
};

}  // namespace fsim

#endif  // FSIM_CORE_FSIM_SOLVER_H_
