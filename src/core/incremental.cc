#include "core/incremental.h"

#include <algorithm>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/fsim_engine.h"
#include "core/init_value.h"
#include "core/operators.h"
#include "core/pair_evaluator.h"
#include "core/pair_store.h"
#include "obs/trace.h"

namespace fsim {

IncrementalFSim::IncrementalFSim(const Graph& g1, const Graph& g2,
                                 FSimConfig config, IncrementalOptions options)
    : g1_(g1),
      g2_(g2),
      config_(std::move(config)),
      options_(options),
      op_(config_.operators()),
      lsim_(*g1.dict(), config_.label_sim) {}

Result<IncrementalFSim> IncrementalFSim::Create(Graph g1, Graph g2,
                                                FSimConfig config,
                                                IncrementalOptions options,
                                                const FSimScores* warm_seed) {
  FSIM_RETURN_NOT_OK(ValidateFSimConfig(g1, g2, config));
  if (config.upper_bound) {
    return Status::InvalidArgument(
        "incremental maintenance requires the full θ-candidate set "
        "(upper-bound pruning decisions depend on the edges being edited)");
  }
  if (options.propagation_tolerance <= 0.0) {
    return Status::InvalidArgument("propagation_tolerance must be positive");
  }

  IncrementalFSim inc(g1, g2, std::move(config), options);

  // Enumerate + initialize the candidate pairs; the engine maintains its own
  // edit-capable neighbor index, so PairStore's snapshot-time one is skipped.
  FSIM_ASSIGN_OR_RETURN(
      PairStore store,
      PairStore::Build(g1, g2, inc.config_, inc.lsim_,
                       /*build_neighbor_index=*/false));
  // Move the initialized candidate set into the mutable single-buffer table;
  // prev_ holds the FSim^0 initialization right after Build.
  inc.space_ = store.space();
  inc.keys_ = inc.space_->keys();
  inc.values_ = store.TakeScores();

  // The v-grouped CSR (rows come from the space).
  const size_t n2 = inc.g2_.NumNodes();
  std::vector<uint32_t> col_counts(n2, 0);
  for (uint64_t key : inc.keys_) ++col_counts[PairSecond(key)];
  inc.col_offsets_.assign(n2 + 1, 0);
  for (size_t v = 0; v < n2; ++v) {
    inc.col_offsets_[v + 1] = inc.col_offsets_[v] + col_counts[v];
  }
  inc.col_pairs_.resize(inc.keys_.size());
  std::vector<uint32_t> cursor(inc.col_offsets_.begin(),
                               inc.col_offsets_.end() - 1);
  for (size_t i = 0; i < inc.keys_.size(); ++i) {
    inc.col_pairs_[cursor[PairSecond(inc.keys_[i])]++] =
        static_cast<uint32_t>(i);
  }

  inc.const_term_.resize(inc.keys_.size());
  const double label_weight = 1.0 - inc.config_.w_out - inc.config_.w_in;
  for (size_t i = 0; i < inc.keys_.size(); ++i) {
    inc.const_term_[i] =
        label_weight * LabelTermValue(inc.config_, inc.lsim_,
                                      inc.g1_.Label(PairFirst(inc.keys_[i])),
                                      inc.g2_.Label(PairSecond(inc.keys_[i])));
  }
  FSIM_RETURN_NOT_OK(inc.nbr_index_.Build(inc.IndexEnv(), inc.config_));
  // Warm start: overwrite the FSim^0 initialization with the seed's values
  // when the keysets agree exactly. Any mismatch (different graphs, config,
  // or a truncated snapshot) keeps the cold initialization — correctness
  // never depends on the seed, only the solve's iteration count does.
  if (warm_seed != nullptr && warm_seed->keys() == inc.space_->keys()) {
    inc.values_ = warm_seed->values();
  }
  inc.SolveFull(g1, g2);
  return inc;
}

double IncrementalFSim::Evaluate(size_t i, MatchingScratch* scratch) const {
  const NodeId u = PairFirst(keys_[i]);
  const NodeId v = PairSecond(keys_[i]);
  if (config_.pin_diagonal && u == v) return 1.0;
  const double* vals = values_.data();
  auto score_of = [vals](uint32_t ref) -> double { return vals[ref]; };
  double out_score = 0.0;
  double in_score = 0.0;
  if (config_.w_out > 0.0) {
    out_score = DirectionScoreIndexed(
        op_, config_.matching, g1_.OutDegree(u), g2_.OutDegree(v),
        nbr_index_.Refs(i, IncrementalNeighborIndex::kOut), score_of,
        scratch);
  }
  if (config_.w_in > 0.0) {
    in_score = DirectionScoreIndexed(
        op_, config_.matching, g1_.InDegree(u), g2_.InDegree(v),
        nbr_index_.Refs(i, IncrementalNeighborIndex::kIn), score_of,
        scratch);
  }
  return config_.w_out * out_score + config_.w_in * in_score + const_term_[i];
}

/// What both views share: values_ is the previous-score buffer, the
/// maintained index supplies the spans, and Evaluate reads values_.
class IncrementalFSim::TableSpace {
 public:
  explicit TableSpace(IncrementalFSim* inc) : inc_(inc) {}

  /// Points the view at `inc` (the engine may have moved since).
  void Bind(IncrementalFSim* inc) { inc_ = inc; }

  size_t size() const { return inc_->keys_.size(); }
  NodeId U(size_t i) const { return PairFirst(inc_->keys_[i]); }
  NodeId V(size_t i) const { return PairSecond(inc_->keys_[i]); }
  double prev(size_t i) const { return inc_->values_[i]; }

  /// The maintained index materializes both directions of every pair, so
  /// its spans are reverse-dependency lists...
  bool reverse_spans() const { return true; }
  /// ...except for pinned diagonal pairs, which it leaves empty.
  bool pinned_pairs_spanned() const { return false; }
  template <typename F>
  void WithRefs(size_t i, F&& f) const {
    f(inc_->nbr_index_.Refs(i, IncrementalNeighborIndex::kOut),
      inc_->nbr_index_.Refs(i, IncrementalNeighborIndex::kIn));
  }
  size_t RefSpanTotal(size_t i) const {
    return inc_->nbr_index_.Refs(i, IncrementalNeighborIndex::kOut).size() +
           inc_->nbr_index_.Refs(i, IncrementalNeighborIndex::kIn).size();
  }

  double Evaluate(size_t i, MatchingScratch* scratch) const {
    return inc_->Evaluate(i, scratch);
  }

 protected:
  IncrementalFSim* inc_;
};

/// The initial solve's view: Jacobi sweeps write a second buffer, next_.
class IncrementalFSim::SolveSpace : public IncrementalFSim::TableSpace {
 public:
  explicit SolveSpace(IncrementalFSim* inc)
      : TableSpace(inc), next_(inc->values_.size()) {}

  void set_curr(size_t i, double value) { next_[i] = value; }
  void SwapBuffers() { inc_->values_.swap(next_); }
  void CommitPair(size_t i) { inc_->values_[i] = next_[i]; }

 private:
  std::vector<double> next_;
};

/// Edit repair's view: writes land in values_ at once, so an evaluation
/// sees the changes made earlier in the same step, and there is nothing to
/// swap or commit.
class IncrementalFSim::RepairSpace : public IncrementalFSim::TableSpace {
 public:
  using TableSpace::TableSpace;

  void set_curr(size_t i, double value) { inc_->values_[i] = value; }
  void SwapBuffers() {}
  void CommitPair(size_t /*i*/) {}
};

namespace {

/// Tolerance mode at τ: the driver's carried influence is the pending
/// bound behind the τ·(1+w)/(1-w) guarantee, and Corollary 1 at ε = τ caps
/// the steps — changes shrink by w per step, so after ceil(log_w τ) steps
/// every remaining one is below τ. The cap also ends a greedy matching's
/// occasional non-Lipschitz tie-flip oscillation.
FSimConfig RepairConfig(FSimConfig config, double tolerance) {
  config.active_set = ActiveSetMode::kTolerance;
  config.frontier_tolerance = tolerance;
  config.epsilon = tolerance;
  config.max_iterations = 0;
  return config;
}

}  // namespace

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

void IncrementalFSim::SolveFull(const Graph& g1, const Graph& g2) {
  // ComputeFSim's iterate loop on the shared driver, so the serving layer's
  // warm-start background solve (RefreshDriver passes its FSimConfig
  // straight through) freezes converged pairs exactly like the batch
  // engine. The pool lives only for the solve; edit repair is serial.
  ThreadPool pool(config_.num_threads);
  SolveSpace space(this);
  ActiveSetDriver driver(pool, space, space, g1, g2, config_);
  driver.Run(&solve_stats_);
  converged_ = solve_stats_.converged;
}

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
    FSIM_RETURN_NOT_OK(
        nbr_index_.CheckGrowth(InsertGrowthBound(graph_index, from, to)));
  }
  FSIM_RETURN_NOT_OK(edit.insert ? target.InsertEdge(from, to)
                                 : target.RemoveEdge(from, to));
  last_edit_.graph_rebuild_seconds += graph_timer.Seconds();

  // Patch exactly what the edit invalidated, and seed the pairs whose own
  // Equation 3 inputs changed shape. A graph-1 edit (from, to) changes
  // N+(from) and N-(to), so the out-spans of row `from` and the in-spans of
  // row `to`; a graph-2 edit the same per column. (For a self-loop
  // from == to both loops walk the same row/column, re-staging its two
  // distinct directions.)
  Timer patch_timer;
  const NeighborIndexEnv env = IndexEnv();
  const uint64_t restaged_before = nbr_index_.restaged_spans();
  auto restage = [&](uint32_t i, int dir, NodeId u, NodeId v) {
    nbr_index_.Restage(i, dir, u, v, env);
    seeds->push_back(i);
  };
  if (graph_index == 1) {
    const auto [from_first, from_last] = space_->Row(from);
    for (size_t i = from_first; i < from_last; ++i) {
      restage(static_cast<uint32_t>(i), IncrementalNeighborIndex::kOut, from,
              PairSecond(keys_[i]));
    }
    const auto [to_first, to_last] = space_->Row(to);
    for (size_t i = to_first; i < to_last; ++i) {
      restage(static_cast<uint32_t>(i), IncrementalNeighborIndex::kIn, to,
              PairSecond(keys_[i]));
    }
  } else {
    for (uint32_t c = col_offsets_[from]; c < col_offsets_[from + 1]; ++c) {
      const uint32_t i = col_pairs_[c];
      restage(i, IncrementalNeighborIndex::kOut, PairFirst(keys_[i]), from);
    }
    for (uint32_t c = col_offsets_[to]; c < col_offsets_[to + 1]; ++c) {
      const uint32_t i = col_pairs_[c];
      restage(i, IncrementalNeighborIndex::kIn, PairFirst(keys_[i]), to);
    }
  }
  last_edit_.restaged_spans +=
      static_cast<size_t>(nbr_index_.restaged_spans() - restaged_before);
  last_edit_.index_patch_seconds += patch_timer.Seconds();
  return Status::OK();
}

Status IncrementalFSim::ApplyEdits(std::span<const EdgeEdit> edits,
                                   std::vector<Status>* statuses) {
  last_edit_ = EditStats{};
  statuses->clear();
  std::vector<uint32_t> seeds;
  for (const EdgeEdit& edit : edits) statuses->push_back(Patch(edit, &seeds));
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
    const auto [from_first, from_last] = space_->Row(from);
    for (size_t i = from_first; i < from_last; ++i) {
      bound += g2_.OutDegree(PairSecond(keys_[i]));
    }
    const auto [to_first, to_last] = space_->Row(to);
    for (size_t i = to_first; i < to_last; ++i) {
      bound += g2_.InDegree(PairSecond(keys_[i]));
    }
  } else {
    for (uint32_t c = col_offsets_[from]; c < col_offsets_[from + 1]; ++c) {
      bound += g1_.OutDegree(PairFirst(keys_[col_pairs_[c]]));
    }
    for (uint32_t c = col_offsets_[to]; c < col_offsets_[to + 1]; ++c) {
      bound += g1_.InDegree(PairFirst(keys_[col_pairs_[c]]));
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
  stats.maintained_pairs = keys_.size();
  stats.theta_candidates = keys_.size();
  stats.converged = converged_;
  stats.neighbor_index_bytes = nbr_index_.MemoryBytes();
  return FSimScores(space_, values_, stats);
}

}  // namespace fsim
