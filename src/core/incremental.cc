#include "core/incremental.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/fsim_solver.h"
#include "core/pair_evaluator.h"
#include "obs/trace.h"

namespace fsim {

namespace {

/// Tolerance mode at τ: the driver's carried influence is the pending
/// bound behind the τ·(1+w)/(1-w) guarantee, and Corollary 1 at ε = τ caps
/// the steps — changes shrink by w per step, so after ceil(log_w τ) steps
/// every remaining one is below τ. The cap also ends a greedy matching's
/// occasional non-Lipschitz tie-flip oscillation.
FSimConfig RepairConfig(FSimConfig config, double tolerance) {
  config.frontier_tolerance = tolerance;
  config.epsilon = tolerance;
  config.max_iterations = 0;
  return config;
}

}  // namespace

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
  if (!store.reverse_spans()) {
    return Status::ResourceExhausted(StrFormat(
        "incremental maintenance needs the reverse-span neighbor index, up "
        "to %llu bytes, over neighbor_index_budget_bytes %llu",
        static_cast<unsigned long long>(store.info().reverse_span_bytes),
        static_cast<unsigned long long>(config.neighbor_index_budget_bytes)));
  }
  const std::vector<uint64_t>& keys = store.space()->keys();

  // Warm start: overwrite the FSim^0 initialization with the seed's values
  // when the keysets agree exactly. Any mismatch (different graphs, config,
  // or a truncated snapshot) keeps the cold initialization — correctness
  // never depends on the seed, only the solve's iteration count does.
  if (warm_seed != nullptr && warm_seed->keys() == keys) {
    for (size_t i = 0; i < keys.size(); ++i) {
      store.set_curr(i, warm_seed->values()[i]);
      store.CommitPair(i);
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

/// Edit repair's view of the store: set_curr commits at once, so an
/// evaluation sees the changes made earlier in the same step, and there
/// is nothing left to swap or commit. It is also the driver's evaluator,
/// reading the current graphs.
class IncrementalFSim::RepairSpace {
 public:
  static constexpr bool kInPlace = true;

  explicit RepairSpace(IncrementalFSim* inc) { Bind(inc); }

  /// Points the view at `inc` (the engine may have moved since).
  void Bind(IncrementalFSim* inc) {
    store_ = &inc->store_;
    evaluator_.emplace(inc->g1_, inc->g2_, inc->config_, inc->lsim_,
                       inc->store_);
  }

  size_t size() const { return store_->size(); }
  NodeId U(size_t i) const { return store_->U(i); }
  NodeId V(size_t i) const { return store_->V(i); }
  double prev(size_t i) const { return store_->prev(i); }
  void set_curr(size_t i, double value) {
    store_->set_curr(i, value);
    store_->CommitPair(i);
  }
  void SwapBuffers() {}
  void CommitPair(size_t /*i*/) {}

  bool reverse_spans() const { return store_->reverse_spans(); }
  bool pinned_pairs_spanned() const { return store_->pinned_pairs_spanned(); }
  template <typename F>
  void WithRefs(size_t i, F&& f) const {
    store_->WithRefs(i, std::forward<F>(f));
  }

  void EvaluateRun(size_t begin, size_t end, PairEvalScratch* scratch,
                   double* out) const {
    evaluator_->EvaluateRun(begin, end, scratch, out);
  }

 private:
  PairStore* store_ = nullptr;
  std::optional<PairEvaluator<DynamicGraph>> evaluator_;
};

struct IncrementalFSim::Repairer {
  explicit Repairer(IncrementalFSim* inc)
      : config(RepairConfig(inc->config_, inc->options_.propagation_tolerance)),
        space(inc),
        driver(pool, space, space, inc->g1_, inc->g2_, config) {}
  Repairer(const Repairer&) = delete;
  Repairer& operator=(const Repairer&) = delete;

  // The driver holds references to the members above it.
  FSimConfig config;
  // One worker: in-place results depend on the evaluation order, which
  // must not depend on config.num_threads.
  ThreadPool pool{1};
  RepairSpace space;
  ActiveSetDriver<RepairSpace, RepairSpace> driver;
};

IncrementalFSim::IncrementalFSim(IncrementalFSim&&) noexcept = default;
IncrementalFSim& IncrementalFSim::operator=(IncrementalFSim&&) noexcept =
    default;
IncrementalFSim::~IncrementalFSim() = default;

Status IncrementalFSim::Repair(std::span<const uint32_t> seeds) {
  FSIM_TRACE_SPAN_ARG("incremental.repair", seeds.size());
  Timer timer;
  // One driver for every burst, so that influence a repair leaves below τ
  // counts toward the next one instead of being dropped with the driver.
  // It chose its dependency walk from the graphs' shape; edits keep
  // mirrored in-lists mirrored, but change any other shape (the empty
  // in-lists of Graph::AsUndirected), which then needs a new driver.
  if (repairer_ == nullptr || g1_.NumInEdges() != g1_.NumEdges() ||
      g2_.NumInEdges() != g2_.NumEdges()) {
    repairer_ = std::make_unique<Repairer>(this);
  }
  repairer_->space.Bind(this);
  auto& driver = repairer_->driver;
  // The ops changed the degrees only of pairs they re-staged, the seeds.
  for (uint32_t i : seeds) driver.UpdateInfluence(i, g1_, g2_);
  const auto report =
      driver.Repair(seeds, FSimIterationBound(repairer_->config),
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
