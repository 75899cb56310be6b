// The solver's θ = 0 path for the max-family mappings (s, b): the same
// iterative computation as the sparse engine (Algorithm 1), carried out
// over the full |V1| x |V2| score matrix in two flat buffers with no
// candidate index (docs/performance.md "θ = 0 tile panels").
//
// At θ = 0 Remark 2's label-constrained mapping admits every pair, so the
// candidate space is the whole matrix and the shared PairSpace gives pair
// (u, v) the slot u·|V2| + v. The iterate loop is one realization at every
// SIMD level: per (8-row chunk, 256-column v-tile), each S1 row walks the
// tile's work list in its SoA candidate panel (core/simd/tile_panel.h)
// through the kernel table of the resolved level (core/simd/kernels.h;
// FSIM_SIMD=off selects the scalar kernels). The panels follow each node's
// id-sorted neighbor list, so rows are summed and column maxima reduced in
// the nested loops' ascending position order, and the values are
// bit-identical to the sparse driver's. Every iteration is a full sweep,
// also when FSimConfig::frontier_tolerance > 0: the tolerance bound then
// holds at distance 0.
//
// The panels and the weighted label-term table are bounded together
// against FSimConfig::neighbor_index_budget_bytes before either is built.
// tests/naive_fsim.h keeps the per-visit lookup evaluation of Equation 3
// as the oracle the engine is checked against.
#ifndef FSIM_CORE_PANEL_ENGINE_H_
#define FSIM_CORE_PANEL_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/aligned.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "core/fsim_config.h"
#include "core/fsim_scores.h"
#include "core/pair_space.h"
#include "core/simd/kernels.h"
#include "core/simd/tile_panel.h"
#include "graph/graph.h"
#include "label/label_similarity.h"

namespace fsim {

/// True when `config` can run on the tile panels: θ = 0, the max-per-row
/// (s) or max-both-sides (b) mapping, and no upper-bound updating. The
/// solver picks them then unless it fills only some rows or must keep a
/// repairable store; every other run takes the sparse driver.
bool RunsOnTilePanels(const FSimConfig& config);

/// The θ = 0 panel realization of the solver (core/fsim_solver.h): Build
/// sets the build fields of the run's FSimStats, and each Step is one full
/// sweep.
class TilePanelEngine {
 public:
  /// Enumerates the θ = 0 pair space, checks the label-term table plus the
  /// panels against config.neighbor_index_budget_bytes (ResourceExhausted
  /// naming the bytes otherwise), builds them and seeds FSim^0. `config`
  /// must be validated and RunsOnTilePanels; the graphs, config and pool
  /// must outlive the engine.
  static Result<TilePanelEngine> Build(const Graph& g1, const Graph& g2,
                                       const FSimConfig& config,
                                       const LabelSimilarityCache& lsim,
                                       ThreadPool& pool, FSimStats* stats);

  /// One full sweep of Equation 3 over every pair; returns the max delta.
  double Step();

  const PairSpace& space() const { return *space_; }
  /// The current scores in slot order (row-major n1 x n2).
  const double* values() const { return prev_.data(); }

  FSimScores TakeScores(FSimStats stats) {
    return FSimScores(space_, std::move(prev_), std::move(stats));
  }

 private:
  TilePanelEngine() = default;

  /// (1 - w+ - w-) · label term of g1 node u's label against every g2
  /// label class, indexed by class2_; nullptr when the term is zero.
  const double* LabelTermRow(NodeId u) const {
    return term_.empty() ? nullptr
                         : term_.data() + static_cast<size_t>(class1_[u]) *
                                              num_classes2_;
  }

  const Graph* g1_ = nullptr;
  const Graph* g2_ = nullptr;
  const FSimConfig* config_ = nullptr;
  ThreadPool* pool_ = nullptr;
  const simd::SimdKernels* kern_ = nullptr;
  std::shared_ptr<const PairSpace> space_;
  // Per node: its label's number among the distinct labels of its graph;
  // class2_ doubles as the combine kernel's gather indices.
  std::vector<int32_t> class1_;
  std::vector<int32_t> class2_;
  size_t num_classes2_ = 0;
  // Distinct g1 labels x distinct g2 labels, pre-scaled by the label weight.
  std::vector<double> term_;
  simd::TilePanelSet out_panels_;
  simd::TilePanelSet in_panels_;
  std::vector<double> prev_;  // row-major n1 x n2, slot order
  std::vector<double> curr_;
  // Per-worker Step scratch: the max delta, one running accumulator per
  // tile entry, the slot-space column-maximum panel of the both-sides
  // operator, and one tile of each direction's scores.
  struct alignas(64) WorkerScratch {
    double delta = 0.0;
    std::vector<double> acc;
    AlignedVector<double> colmax;
    std::vector<double> out_scores;
    std::vector<double> in_scores;
  };
  std::vector<WorkerScratch> scratch_;
};

}  // namespace fsim

#endif  // FSIM_CORE_PANEL_ENGINE_H_
