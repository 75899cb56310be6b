#include "core/incremental.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>

#include "common/string_util.h"
#include "common/timer.h"
#include "core/fsim_solver.h"
#include "core/pair_evaluator.h"
#include "obs/trace.h"

namespace fsim {

IncrementalFSim::IncrementalFSim(const Graph& g1, const Graph& g2,
                                 FSimConfig config, IncrementalOptions options,
                                 LabelSimilarityCache lsim, PairStore store)
    : g1_(g1),
      g2_(g2),
      config_(std::move(config)),
      options_(options),
      lsim_(std::move(lsim)),
      store_(std::move(store)) {}

Result<IncrementalFSim> IncrementalFSim::Create(Graph g1, Graph g2,
                                                FSimConfig config,
                                                IncrementalOptions options,
                                                const FSimScores* warm_seed) {
  if (config.upper_bound) {
    return Status::InvalidArgument(
        "incremental maintenance requires the full θ-candidate set "
        "(upper-bound pruning decisions depend on the edges being edited)");
  }
  if (!(options.propagation_tolerance > 0.0) ||
      !std::isfinite(options.propagation_tolerance)) {
    return Status::InvalidArgument(
        "propagation_tolerance must be positive and finite");
  }

  // ComputeFSim's sparse solve, so the serving layer's warm-start
  // background solve (RefreshDriver passes its FSimConfig straight
  // through) gives the batch engine's scores and iteration count; the
  // store it solves on keeps the reverse spans the repair walks.
  FSIM_ASSIGN_OR_RETURN(std::unique_ptr<FSimSolver> solver,
                        FSimSolver::Create(g1, g2, config,
                                           {.repairable = true}));
  PairStore& store = solver->store();
  const std::vector<uint64_t>& keys = store.space()->keys();

  // Warm start: overwrite the FSim^0 initialization with the seed's values
  // when the keysets agree exactly. Any mismatch (different graphs, config,
  // or a truncated snapshot) keeps the cold initialization — correctness
  // never depends on the seed, only the solve's iteration count does.
  if (warm_seed != nullptr && warm_seed->keys() == keys) {
    for (size_t i = 0; i < keys.size(); ++i) {
      store.set_prev(i, warm_seed->values()[i]);
    }
  }
  FSimStats solve_stats;
  solver->Run(&solve_stats);

  IncrementalFSim inc(g1, g2, std::move(config), options,
                      solver->TakeLabelSimilarity(), solver->TakeStore());
  inc.solve_stats_ = std::move(solve_stats);
  inc.converged_ = inc.solve_stats_.converged;

  // The v-grouped CSR (rows come from the space).
  const size_t n2 = inc.g2_.NumNodes();
  std::vector<uint32_t> col_counts(n2, 0);
  for (uint64_t key : keys) ++col_counts[PairSecond(key)];
  inc.col_offsets_.assign(n2 + 1, 0);
  for (size_t v = 0; v < n2; ++v) {
    inc.col_offsets_[v + 1] = inc.col_offsets_[v] + col_counts[v];
  }
  inc.col_pairs_.resize(keys.size());
  std::vector<uint32_t> cursor(inc.col_offsets_.begin(),
                               inc.col_offsets_.end() - 1);
  for (size_t i = 0; i < keys.size(); ++i) {
    inc.col_pairs_[cursor[PairSecond(keys[i])]++] = static_cast<uint32_t>(i);
  }
  return inc;
}

/// Edit repair's tolerance frontiers (see Repair), kept across bursts.
/// A step evaluates its frontier serially and in place: each new score
/// lands in the store's previous-score buffer at once, so later
/// evaluations of the same step read it. Each changed pair adds its
/// influence Σ w± · c/Ωχ · |Δ| on the pairs that read it to their pending
/// sums; the pairs whose carried influence then exceeds τ form the next
/// frontier. The readers of pair i are the refs of its own reverse spans:
/// those of its in-span read i through their out-direction, and vice
/// versa.
class IncrementalFSim::Repairer {
 public:
  /// Frontiers at or above this fraction of the pairs run as full sweeps,
  /// which skip the frontier indirection.
  static constexpr double kDenseFrontier = 0.5;

  /// Chooses the reader walk from the graphs' shape and computes every
  /// pair's influence factors.
  explicit Repairer(const IncrementalFSim& inc) {
    const FSimConfig& config = inc.config_;
    const bool transpose = inc.g1_.NumInEdges() == inc.g1_.NumEdges() &&
                           inc.g2_.NumInEdges() == inc.g2_.NumEdges();
    // The AsUndirected adaptation (§4.3: symmetric out-adjacency, empty
    // in-lists): u ∈ N+(x) ⟺ x ∈ N+(u), so the out-span is its own
    // reader list, and the in-direction reads empty sets everywhere.
    symmetric_out_ = !transpose && inc.g1_.NumInEdges() == 0 &&
                     inc.g2_.NumInEdges() == 0;
    // Partially populated in-lists that are not the transpose have no
    // sound reader walk; those repairs run full sweeps.
    frontiers_ =
        config.w_out + config.w_in > 0.0 && (transpose || symmetric_out_);
    if (!frontiers_) return;
    const size_t n = inc.store_.size();
    influence_out_.resize(n);
    influence_in_.resize(n);
    for (size_t i = 0; i < n; ++i) UpdateInfluence(inc, i);
    pending_.assign(n, 0.0f);
    marked_.assign((n + 63) / 64, 0);
    carry_.assign(n, 0.0);
  }

  Repairer(const Repairer&) = delete;
  Repairer& operator=(const Repairer&) = delete;

  /// Recomputes pair i's influence factors from the current degrees.
  void UpdateInfluence(const IncrementalFSim& inc, size_t i) {
    if (!frontiers_) return;
    const OperatorConfig op = inc.config_.operators();
    const NodeId u = inc.store_.U(i);
    const NodeId v = inc.store_.V(i);
    influence_out_[i] = static_cast<float>(
        PairInfluenceFactor(op, inc.g1_.OutDegree(u), inc.g2_.OutDegree(v)));
    influence_in_[i] = static_cast<float>(
        PairInfluenceFactor(op, inc.g1_.InDegree(u), inc.g2_.InDegree(v)));
  }

  /// The work one Run did.
  struct Report {
    uint32_t steps = 0;
    size_t evaluated = 0;
    /// Stopped with work left: max_steps steps were run, or
    /// max_evaluations was reached.
    bool step_capped = false;
    bool evaluation_capped = false;
  };

  /// Repairs from `seeds` (ascending, distinct): the first step evaluates
  /// exactly the seeds, and every later step the pairs whose carried
  /// influence exceeds τ, until none is left. Without frontiers every step
  /// is a full sweep, until the max delta is within τ. The caps are
  /// checked between steps, so a capped run still finishes its last step.
  /// Influence below τ stays carried into the next Run, which keeps the
  /// τ·(1+w)/(1-w) bound over any number of repairs.
  Report Run(IncrementalFSim* inc, std::span<const uint32_t> seeds,
             uint32_t max_steps, uint64_t max_evaluations) {
    const double tolerance = inc->options_.propagation_tolerance;
    const PairEvaluator<DynamicGraph> evaluator(inc->g1_, inc->g2_,
                                                inc->config_, inc->lsim_,
                                                inc->store_);
    const size_t n = inc->store_.size();
    Report report;
    frontier_.assign(seeds.begin(), seeds.end());
    // The seeds are evaluated next, which absorbs what they carry.
    if (frontiers_) {
      for (uint32_t j : frontier_) carry_[j] = 0.0;
    }
    bool more = !frontier_.empty();
    while (more) {
      if (report.steps == max_steps) {
        report.step_capped = true;
        break;
      }
      if (report.evaluated >= max_evaluations) {
        report.evaluation_capped = true;
        break;
      }
      const bool full =
          !frontiers_ || static_cast<double>(frontier_.size()) >=
                             kDenseFrontier * static_cast<double>(n);
      const double max_delta = Sweep(inc, evaluator, full);
      ++report.steps;
      report.evaluated += full ? n : frontier_.size();
      if (frontiers_) {
        BuildFrontier(tolerance, full);
        more = !frontier_.empty();
      } else {
        more = max_delta > tolerance;
      }
    }
    return report;
  }

 private:
  /// Evaluates the frontier (or every pair when `full`) in ascending
  /// order, in place, marking the readers of each changed pair; returns
  /// the max delta.
  double Sweep(IncrementalFSim* inc,
               const PairEvaluator<DynamicGraph>& evaluator, bool full) {
    PairStore& store = inc->store_;
    double max_delta = 0.0;
    auto evaluate = [&](size_t i) {
      double value = 0.0;
      evaluator.EvaluateRun(i, i + 1, &scratch_, &value);
      const double delta = std::abs(value - store.prev(i));
      store.set_prev(i, value);
      max_delta = std::max(max_delta, delta);
      if (frontiers_ && delta != 0.0) MarkReaders(*inc, i, delta);
    };
    if (full) {
      FSIM_TRACE_SPAN_ARG("engine.sweep.full", store.size());
      for (size_t i = 0; i < store.size(); ++i) evaluate(i);
    } else {
      FSIM_TRACE_SPAN_ARG("engine.sweep.frontier", frontier_.size());
      for (uint32_t i : frontier_) evaluate(i);
    }
    return max_delta;
  }

  /// Adds pair i's change to the pending influence on the pairs whose
  /// next evaluation reads it. A zero-weight direction contributes nothing
  /// to any reader and is skipped.
  void MarkReaders(const IncrementalFSim& inc, size_t i, double delta) {
    const FSimConfig& config = inc.config_;
    auto mark = [&](auto refs, double base, const float* factor) {
      for (const auto& e : refs) {
        const uint32_t r = e.ref;
        // Create rejects upper-bound pruning, so no ref is tagged.
        FSIM_DCHECK(!IsPrunedRef(r));
        const float x = static_cast<float>(base * factor[r]);
        uint64_t& word = marked_[r / 64];
        const uint64_t bit = uint64_t{1} << (r % 64);
        if ((word & bit) == 0) {
          word |= bit;
          pending_[r] = x;
        } else {
          pending_[r] += x;
        }
      }
    };
    const double base_out = config.w_out * delta;
    const double base_in = config.w_in * delta;
    inc.store_.WithRefs(i, [&](auto out_refs, auto in_refs) {
      if (symmetric_out_) {
        if (config.w_out > 0.0) {
          mark(out_refs, base_out, influence_out_.data());
        }
        return;
      }
      if (config.w_out > 0.0) mark(in_refs, base_out, influence_out_.data());
      if (config.w_in > 0.0) mark(out_refs, base_in, influence_in_.data());
    });
  }

  /// Folds the marked pairs' pending influence into their carry and
  /// collects, ascending, those whose carry exceeds `tolerance` as the
  /// next frontier; their carry restarts from 0. A full sweep evaluated
  /// every pair, which absorbs all influence carried from before it.
  void BuildFrontier(double tolerance, bool after_full_sweep) {
    FSIM_TRACE_SPAN("engine.frontier_build");
    if (after_full_sweep) std::fill(carry_.begin(), carry_.end(), 0.0);
    frontier_.clear();
    for (size_t w = 0; w < marked_.size(); ++w) {
      for (uint64_t bits = marked_[w]; bits != 0; bits &= bits - 1) {
        const size_t j = w * 64 + std::countr_zero(bits);
        carry_[j] += pending_[j];
        if (carry_[j] > tolerance) {
          frontier_.push_back(static_cast<uint32_t>(j));
          carry_[j] = 0.0;
        }
      }
      marked_[w] = 0;
    }
  }

  /// Frontiers engaged: the graphs' shape has a sound reader walk.
  bool frontiers_ = false;
  /// Readers come from the out-span alone (see the constructor).
  bool symmetric_out_ = false;
  std::vector<float> influence_out_;  // per-pair c/Ωχ factors
  std::vector<float> influence_in_;
  std::vector<float> pending_;    // this step's influence on marked pairs
  std::vector<uint64_t> marked_;  // one bit per pair marked this step
  std::vector<double> carry_;     // influence carried while skipped
  std::vector<uint32_t> frontier_;
  PairEvalScratch scratch_;
};

IncrementalFSim::IncrementalFSim(IncrementalFSim&&) noexcept = default;
IncrementalFSim& IncrementalFSim::operator=(IncrementalFSim&&) noexcept =
    default;
IncrementalFSim::~IncrementalFSim() = default;

Status IncrementalFSim::Repair(std::span<const uint32_t> seeds) {
  FSIM_TRACE_SPAN_ARG("incremental.repair", seeds.size());
  Timer timer;
  // One repairer for every burst, so that influence a repair leaves below
  // τ counts toward the next one instead of being dropped with it. It
  // chose its reader walk from the graphs' shape; edits keep mirrored
  // in-lists mirrored, but change any other shape (the empty in-lists of
  // Graph::AsUndirected), which then needs a new repairer.
  if (repairer_ == nullptr || g1_.NumInEdges() != g1_.NumEdges() ||
      g2_.NumInEdges() != g2_.NumEdges()) {
    repairer_ = std::make_unique<Repairer>(*this);
  }
  // The ops changed the degrees only of pairs they re-staged, the seeds.
  for (uint32_t i : seeds) repairer_->UpdateInfluence(*this, i);
  // Corollary 1 at ε = τ caps the steps: changes shrink by w per step, so
  // after ceil(log_w τ) steps every remaining one is below τ. The cap
  // also ends a greedy matching's occasional non-Lipschitz tie-flip
  // oscillation.
  const auto report = repairer_->Run(
      this, seeds,
      CorollaryOneBound(config_.w_out + config_.w_in,
                        options_.propagation_tolerance),
      options_.max_updates_per_edit);
  last_edit_.recomputed = report.evaluated;
  last_edit_.steps = report.steps;
  last_edit_.truncated = report.step_capped || report.evaluation_capped;
  if (last_edit_.truncated) converged_ = false;
  last_edit_.repair_seconds = timer.Seconds();
  if (report.evaluation_capped) {
    return Status::Internal(StrFormat(
        "burst exceeded max_updates_per_edit (%llu); scores may not have "
        "re-converged",
        static_cast<unsigned long long>(options_.max_updates_per_edit)));
  }
  return Status::OK();
}

Status IncrementalFSim::Patch(const EdgeEdit& edit,
                              std::vector<uint32_t>* seeds) {
  const int graph_index = edit.graph_index;
  const NodeId from = edit.from;
  const NodeId to = edit.to;
  if (graph_index != 1 && graph_index != 2) {
    return Status::InvalidArgument("graph_index must be 1 or 2");
  }
  Timer graph_timer;
  DynamicGraph& target = graph_index == 1 ? g1_ : g2_;
  // A rejected op (duplicate insert, absent removal, bad endpoint, or an
  // insert whose span growth could pass the index budget) leaves the
  // adjacency, index and scores untouched. Removals never grow spans.
  if (edit.insert && from < target.NumNodes() && to < target.NumNodes() &&
      !target.HasEdge(from, to)) {
    FSIM_RETURN_NOT_OK(store_.ReserveInsert(
        InsertGrowthBound(graph_index, from, to), target.OutDegree(from) + 1,
        target.InDegree(to) + 1, config_.neighbor_index_budget_bytes));
  }
  FSIM_RETURN_NOT_OK(edit.insert ? target.InsertEdge(from, to)
                                 : target.RemoveEdge(from, to));
  last_edit_.graph_rebuild_seconds += graph_timer.Seconds();

  // Patch exactly what the edit invalidated, and seed the pairs whose own
  // Equation 3 inputs changed shape. A graph-1 edit (from, to) changes
  // N+(from) and N-(to), so the out-spans (span 2i) of row `from` and the
  // in-spans (span 2i + 1) of row `to`; a graph-2 edit the same per
  // column. (For a self-loop from == to both walk the same row/column,
  // re-staging its two distinct directions.)
  Timer patch_timer;
  std::vector<uint32_t> stale_spans;
  auto stale = [&](size_t i, uint32_t dir) {
    stale_spans.push_back(static_cast<uint32_t>(2 * i + dir));
    seeds->push_back(static_cast<uint32_t>(i));
  };
  if (graph_index == 1) {
    const PairSpace& space = *store_.space();
    const auto [from_first, from_last] = space.Row(from);
    for (size_t i = from_first; i < from_last; ++i) stale(i, 0);
    const auto [to_first, to_last] = space.Row(to);
    for (size_t i = to_first; i < to_last; ++i) stale(i, 1);
  } else {
    for (uint32_t c = col_offsets_[from]; c < col_offsets_[from + 1]; ++c) {
      stale(col_pairs_[c], 0);
    }
    for (uint32_t c = col_offsets_[to]; c < col_offsets_[to + 1]; ++c) {
      stale(col_pairs_[c], 1);
    }
  }
  std::sort(stale_spans.begin(), stale_spans.end());
  store_.RestageSpans(g1_, g2_, stale_spans);
  last_edit_.restaged_spans += stale_spans.size();
  last_edit_.index_patch_seconds += patch_timer.Seconds();
  return Status::OK();
}

Status IncrementalFSim::ApplyEdits(std::span<const EdgeEdit> edits,
                                   std::vector<Status>* statuses) {
  last_edit_ = EditStats{};
  statuses->clear();
  std::vector<uint32_t> seeds;
  for (const EdgeEdit& edit : edits) statuses->push_back(Patch(edit, &seeds));
#ifdef FSIM_DEBUG_CHECKS
  const Status valid = store_.ValidateNeighborIndex();
  FSIM_CHECK(valid.ok()) << valid.ToString();
#endif
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
  last_edit_.seeded_pairs = seeds.size();
  if (seeds.empty()) return Status::OK();
  return Repair(seeds);
}

uint64_t IncrementalFSim::InsertGrowthBound(int graph_index, NodeId from,
                                            NodeId to) const {
  // A graph-1 insert adds row `to` (x = to) to every out-span (from, v),
  // i.e. at most |N+(v)| candidates, and column `from` to every in-span
  // (to, v), at most |N-(v)|; a graph-2 insert the same per column with
  // graph 1's degrees.
  uint64_t bound = 0;
  if (graph_index == 1) {
    const PairSpace& space = *store_.space();
    const auto [from_first, from_last] = space.Row(from);
    for (size_t i = from_first; i < from_last; ++i) {
      bound += g2_.OutDegree(store_.V(i));
    }
    const auto [to_first, to_last] = space.Row(to);
    for (size_t i = to_first; i < to_last; ++i) {
      bound += g2_.InDegree(store_.V(i));
    }
  } else {
    for (uint32_t c = col_offsets_[from]; c < col_offsets_[from + 1]; ++c) {
      bound += g1_.OutDegree(store_.U(col_pairs_[c]));
    }
    for (uint32_t c = col_offsets_[to]; c < col_offsets_[to + 1]; ++c) {
      bound += g1_.InDegree(store_.U(col_pairs_[c]));
    }
  }
  return bound;
}

namespace {

/// A one-op burst's status: the op's own if it was rejected, else the
/// repair's.
Status ApplyOneEdit(IncrementalFSim* inc, const EdgeEdit& edit) {
  std::vector<Status> statuses;
  const Status repair = inc->ApplyEdits({&edit, 1}, &statuses);
  return statuses[0].ok() ? repair : statuses[0];
}

}  // namespace

Status IncrementalFSim::InsertEdge(int graph_index, NodeId from, NodeId to) {
  return ApplyOneEdit(this, {graph_index, from, to, /*insert=*/true});
}

Status IncrementalFSim::RemoveEdge(int graph_index, NodeId from, NodeId to) {
  return ApplyOneEdit(this, {graph_index, from, to, /*insert=*/false});
}

FSimScores IncrementalFSim::Snapshot() const {
  // The iterate fields describe the initial solve (edit repairs are not
  // counted); EditStats reports each burst.
  FSimStats stats = solve_stats_;
  stats.maintained_pairs = store_.size();
  stats.theta_candidates = store_.size();
  stats.converged = converged_;
  stats.neighbor_index_bytes = store_.NeighborIndexBytes();
  stats.packed_neighbor_refs = store_.packed_refs();
  const double* values = store_.prev_data();
  return FSimScores(store_.space(),
                    std::vector<double>(values, values + store_.size()),
                    stats);
}

}  // namespace fsim
