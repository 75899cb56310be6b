#include "core/incremental.h"

#include <algorithm>
#include <cmath>

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
  inc.keys_ = store.TakeKeys();
  inc.values_ = store.TakeScores();
  inc.index_ = store.TakeIndex();

  // Row ranges (keys_ are sorted u-major) and the v-grouped CSR.
  const size_t n1 = inc.g1_.NumNodes();
  const size_t n2 = inc.g2_.NumNodes();
  inc.row_offsets_.assign(n1 + 1, 0);
  std::vector<uint32_t> col_counts(n2, 0);
  for (uint64_t key : inc.keys_) {
    ++inc.row_offsets_[PairFirst(key) + 1];
    ++col_counts[PairSecond(key)];
  }
  for (size_t u = 0; u < n1; ++u) {
    inc.row_offsets_[u + 1] += inc.row_offsets_[u];
  }
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

  inc.in_queue_.assign(inc.keys_.size(), 0);
  inc.dirty_dir_.assign(inc.keys_.size(), 0);
  inc.pending_out_.assign(inc.keys_.size(), 0.0);
  inc.pending_in_.assign(inc.keys_.size(), 0.0);
  inc.out_cache_.assign(inc.keys_.size(), 0.0);
  inc.in_cache_.assign(inc.keys_.size(), 0.0);
  inc.influence_factor_out_.resize(inc.keys_.size());
  inc.influence_factor_in_.resize(inc.keys_.size());
  inc.const_term_.resize(inc.keys_.size());
  const double label_weight = 1.0 - inc.config_.w_out - inc.config_.w_in;
  for (size_t i = 0; i < inc.keys_.size(); ++i) {
    const NodeId u = PairFirst(inc.keys_[i]);
    const NodeId v = PairSecond(inc.keys_[i]);
    inc.influence_factor_out_[i] = PairInfluenceFactor(
        inc.op_, inc.g1_.OutDegree(u), inc.g2_.OutDegree(v));
    inc.influence_factor_in_[i] = PairInfluenceFactor(
        inc.op_, inc.g1_.InDegree(u), inc.g2_.InDegree(v));
    inc.const_term_[i] =
        label_weight * LabelTermValue(inc.config_, inc.lsim_,
                                      inc.g1_.Label(u), inc.g2_.Label(v));
  }
  FSIM_RETURN_NOT_OK(
      inc.nbr_index_.Build(inc.IndexEnv(), inc.keys_, inc.config_));
  // Warm start: overwrite the FSim^0 initialization with the seed's values
  // when the keysets agree exactly. Any mismatch (different graphs, config,
  // or a truncated snapshot) keeps the cold initialization — correctness
  // never depends on the seed, only the solve's iteration count does.
  if (warm_seed != nullptr && warm_seed->keys() == inc.keys_) {
    inc.values_ = warm_seed->values();
  }
  inc.SolveFull(g1, g2);
  return inc;
}

double IncrementalFSim::ComputeDirection(size_t i, int dir,
                                         MatchingScratch* scratch) {
  const NodeId u = PairFirst(keys_[i]);
  const NodeId v = PairSecond(keys_[i]);
  const double* vals = values_.data();
  auto score_of = [vals](uint32_t ref) -> double { return vals[ref]; };
  if (dir == IncrementalNeighborIndex::kOut) {
    return DirectionScoreIndexed(
        op_, config_.matching, g1_.OutDegree(u), g2_.OutDegree(v),
        nbr_index_.Refs(i, IncrementalNeighborIndex::kOut), score_of,
        scratch);
  }
  return DirectionScoreIndexed(
      op_, config_.matching, g1_.InDegree(u), g2_.InDegree(v),
      nbr_index_.Refs(i, IncrementalNeighborIndex::kIn), score_of, scratch);
}

double IncrementalFSim::EvaluateDirty(size_t i, uint8_t dirty,
                                      MatchingScratch* scratch) {
  const NodeId u = PairFirst(keys_[i]);
  const NodeId v = PairSecond(keys_[i]);
  if (config_.pin_diagonal && u == v) return 1.0;
  if ((dirty & kDirtyOut) && config_.w_out > 0.0) {
    out_cache_[i] = ComputeDirection(i, IncrementalNeighborIndex::kOut, scratch);
  }
  if ((dirty & kDirtyIn) && config_.w_in > 0.0) {
    in_cache_[i] = ComputeDirection(i, IncrementalNeighborIndex::kIn, scratch);
  }
  return config_.w_out * out_cache_[i] + config_.w_in * in_cache_[i] +
         const_term_[i];
}

/// The incremental engine's pair space as ActiveSetDriver iterates it:
/// values_ is the previous-score buffer, next_ the current one, the
/// maintained index supplies the spans, and every evaluation recomputes
/// both directions (refreshing the direction caches).
class IncrementalFSim::SolveSpace {
 public:
  explicit SolveSpace(IncrementalFSim* inc)
      : inc_(*inc), next_(inc->values_.size()) {}

  size_t size() const { return inc_.keys_.size(); }
  NodeId U(size_t i) const { return PairFirst(inc_.keys_[i]); }
  NodeId V(size_t i) const { return PairSecond(inc_.keys_[i]); }
  double prev(size_t i) const { return inc_.values_[i]; }
  void set_curr(size_t i, double value) { next_[i] = value; }
  void SwapBuffers() { inc_.values_.swap(next_); }
  void CommitPair(size_t i) { inc_.values_[i] = next_[i]; }

  /// The maintained index materializes both directions of every pair, so
  /// its spans are reverse-dependency lists...
  bool reverse_spans() const { return true; }
  /// ...except for pinned diagonal pairs, which it leaves empty.
  bool pinned_pairs_spanned() const { return false; }
  template <typename F>
  void WithRefs(size_t i, F&& f) const {
    f(inc_.nbr_index_.Refs(i, IncrementalNeighborIndex::kOut),
      inc_.nbr_index_.Refs(i, IncrementalNeighborIndex::kIn));
  }
  size_t RefSpanTotal(size_t i) const {
    return inc_.nbr_index_.Refs(i, IncrementalNeighborIndex::kOut).size() +
           inc_.nbr_index_.Refs(i, IncrementalNeighborIndex::kIn).size();
  }

  /// Writes only pair i's direction caches, so distinct pairs may be
  /// evaluated concurrently.
  double Evaluate(size_t i, MatchingScratch* scratch) const {
    return inc_.EvaluateDirty(i, kDirtyOut | kDirtyIn, scratch);
  }

 private:
  IncrementalFSim& inc_;
  std::vector<double> next_;
};

void IncrementalFSim::SolveFull(const Graph& g1, const Graph& g2) {
  // ComputeFSim's iterate loop on the shared driver, so the serving layer's
  // warm-start background solve (RefreshDriver passes its FSimConfig
  // straight through) freezes converged pairs exactly like the batch
  // engine. The pool lives only for the solve; edit repair is serial.
  ThreadPool pool(config_.num_threads);
  SolveSpace space(this);
  ActiveSetDriver driver(pool, space, space, g1, g2, config_);
  driver.Run(&solve_stats_);
  // One extra *full* recording sweep re-establishes the cache invariant
  // (values_ = combine(caches) with the caches computed against the
  // pre-swap table) and its residual decides convergence — it only
  // shrinks under the contraction, so the extra sweep never loosens the
  // epsilon guarantee, and it also washes out any tolerance-mode frontier
  // slack beyond the documented τ-style bound.
  converged_ = driver.Step(/*force_full=*/true) < config_.epsilon;
}

void IncrementalFSim::MaybeEnqueue(uint32_t idx) {
  if (in_queue_[idx]) return;
  if (pending_out_[idx] + pending_in_[idx] <=
      options_.propagation_tolerance) {
    return;
  }
  in_queue_[idx] = 1;
  queue_.push_back(idx);
}

void IncrementalFSim::AddPendingOut(uint32_t idx, double influence) {
  pending_out_[idx] += influence;
  MaybeEnqueue(idx);
}

void IncrementalFSim::AddPendingIn(uint32_t idx, double influence) {
  pending_in_[idx] += influence;
  MaybeEnqueue(idx);
}

void IncrementalFSim::PushDependents(size_t i, double delta) {
  // Pair i's own spans double as its dependent lists: the in-span refs are
  // the maintained pairs (x, y) with x ∈ N-(u), y ∈ N-(v) — exactly the
  // pairs whose out-direction reads (u, v) — and symmetrically for the
  // out-span.
  if (config_.w_out > 0.0) {
    const double base = config_.w_out * delta;
    for (const NeighborRef& e :
         nbr_index_.Refs(i, IncrementalNeighborIndex::kIn)) {
      AddPendingOut(e.ref, base * influence_factor_out_[e.ref]);
    }
  }
  if (config_.w_in > 0.0) {
    const double base = config_.w_in * delta;
    for (const NeighborRef& e :
         nbr_index_.Refs(i, IncrementalNeighborIndex::kOut)) {
      AddPendingIn(e.ref, base * influence_factor_in_[e.ref]);
    }
  }
}

uint32_t IncrementalFSim::MaxWaves() const {
  // Wave cap (the Corollary 1 argument applied to the repair): changes
  // shrink by at least the contraction factor w per propagation wave, so
  // after ceil(log_w(tau)) waves every remaining change is below tau and
  // would be absorbed anyway. The cap also guarantees termination when the
  // greedy matching's occasional non-Lipschitz tie flips would otherwise
  // sustain a sub-tau-adjacent oscillation.
  const double tau = options_.propagation_tolerance;
  const double w = config_.w_out + config_.w_in;
  if (w > 0.0 && w < 1.0 && tau < 1.0) {
    return static_cast<uint32_t>(std::ceil(std::log(tau) / std::log(w))) + 2;
  }
  return 1;
}

Status IncrementalFSim::Propagate() {
  FSIM_TRACE_SPAN("incremental.propagate");
  Timer timer;
  const double tau = options_.propagation_tolerance;
  const uint32_t max_waves = MaxWaves();

  uint64_t recomputed = 0;
  uint64_t changed = 0;
  uint32_t wave = 0;
  size_t wave_end = queue_.size();
  bool wave_capped = false;
  bool update_capped = false;
  // Within a wave, absorb the largest accumulated influences first: their
  // deltas then land in dependents' pending sums before those dependents
  // are themselves evaluated, so one evaluation absorbs several inputs and
  // the repeat-evaluation tail of later waves shrinks. A full sort pays
  // more than it saves (measured ~10% of the edit in comparator cache
  // misses), so a linear stable two-class partition around 1/16 of the wave
  // maximum captures the head of the geometric influence distribution
  // instead. Ordering only reshuffles the chaotic iteration; the fixpoint
  // and the τ error budget are order-independent.
  std::vector<uint32_t>& wave_scratch = wave_scratch_;
  auto partition_wave = [&](size_t begin, size_t end) {
    if (end - begin < 64) return;
    double max_pending = 0.0;
    for (size_t q = begin; q < end; ++q) {
      const uint32_t i = queue_[q];
      max_pending =
          std::max(max_pending, pending_out_[i] + pending_in_[i]);
    }
    const double threshold = max_pending / 16.0;
    wave_scratch.clear();
    size_t big = begin;
    for (size_t q = begin; q < end; ++q) {
      const uint32_t i = queue_[q];
      if (pending_out_[i] + pending_in_[i] >= threshold) {
        queue_[big++] = i;
      } else {
        wave_scratch.push_back(i);
      }
    }
    std::copy(wave_scratch.begin(), wave_scratch.end(), queue_.begin() + big);
  };
  partition_wave(queue_head_, wave_end);
  while (queue_head_ < queue_.size()) {
    if (queue_head_ == wave_end) {
      ++wave;
      wave_end = queue_.size();
      if (wave >= max_waves) {
        wave_capped = true;
        break;
      }
      partition_wave(queue_head_, wave_end);
    }
    const uint32_t i = queue_[queue_head_++];
    in_queue_[i] = 0;
    uint8_t dirty = dirty_dir_[i];
    if (pending_out_[i] > 0.0) dirty |= kDirtyOut;
    if (pending_in_[i] > 0.0) dirty |= kDirtyIn;
    dirty_dir_[i] = 0;
    pending_out_[i] = 0.0;
    pending_in_[i] = 0.0;
    const double fresh = EvaluateDirty(i, dirty, &scratch_);
    ++recomputed;
    const double delta = std::abs(fresh - values_[i]);
    // Commit before any truncation check: the evaluation is already paid
    // for, and the committed value is closer to the fixpoint.
    values_[i] = fresh;
    if (delta > tau) {
      ++changed;
      PushDependents(i, delta);
    }
    if (recomputed >= options_.max_updates_per_edit &&
        queue_head_ < queue_.size()) {
      update_capped = true;
      break;
    }
  }
  // Reset any worklist remainder so the engine stays usable. Wave-capped
  // leftovers carry sub-tolerance influence by the geometric-decay argument;
  // update-cap leftovers may not — either way the snapshot reports the
  // truncation via converged=false.
  for (size_t q = queue_head_; q < queue_.size(); ++q) {
    in_queue_[queue_[q]] = 0;
    dirty_dir_[queue_[q]] = 0;
    pending_out_[queue_[q]] = 0.0;
    pending_in_[queue_[q]] = 0.0;
  }
  queue_.clear();
  queue_head_ = 0;
  last_edit_.recomputed = recomputed;
  last_edit_.changed = changed;
  last_edit_.waves = wave;
  last_edit_.truncated = wave_capped || update_capped;
  if (last_edit_.truncated) converged_ = false;
  last_edit_.propagate_seconds = timer.Seconds();
  if (update_capped) {
    return Status::Internal(StrFormat(
        "edit exceeded max_updates_per_edit (%llu); scores may not have "
        "re-converged",
        static_cast<unsigned long long>(options_.max_updates_per_edit)));
  }
  return Status::OK();
}

void IncrementalFSim::SeedEndpointPairs(int graph_index, NodeId a, NodeId b) {
  // The edit changed N+(a) and N-(b) of the edited graph, so the pairs on
  // row/column a need their out-direction recomputed and those on row/column
  // b their in-direction. The structural change is flagged via dirty_dir_
  // (a pending magnitude cannot express "the input *set* changed").
  size_t seeded = 0;
  auto seed = [&](uint32_t i, uint8_t dir_bit) {
    dirty_dir_[i] |= dir_bit;
    if (!in_queue_[i]) {
      in_queue_[i] = 1;
      queue_.push_back(i);
      ++seeded;
    }
  };
  if (graph_index == 1) {
    for (uint32_t i = row_offsets_[a]; i < row_offsets_[a + 1]; ++i) {
      seed(i, kDirtyOut);
    }
    for (uint32_t i = row_offsets_[b]; i < row_offsets_[b + 1]; ++i) {
      seed(i, kDirtyIn);
    }
  } else {
    for (uint32_t c = col_offsets_[a]; c < col_offsets_[a + 1]; ++c) {
      seed(col_pairs_[c], kDirtyOut);
    }
    for (uint32_t c = col_offsets_[b]; c < col_offsets_[b + 1]; ++c) {
      seed(col_pairs_[c], kDirtyIn);
    }
  }
  last_edit_.seeded_pairs = seeded;
}

Status IncrementalFSim::ApplyEdit(int graph_index, NodeId from, NodeId to,
                                  bool insert) {
  if (graph_index != 1 && graph_index != 2) {
    return Status::InvalidArgument("graph_index must be 1 or 2");
  }
  last_edit_ = EditStats{};
  Timer edit_timer;
  DynamicGraph& target = graph_index == 1 ? g1_ : g2_;
  // A rejected edit (duplicate insert, absent removal, bad endpoint, or an
  // insert whose span growth could pass the index budget) leaves the
  // adjacency, index and scores untouched. Removals never grow spans.
  if (insert && from < target.NumNodes() && to < target.NumNodes() &&
      !target.HasEdge(from, to)) {
    FSIM_RETURN_NOT_OK(
        nbr_index_.CheckGrowth(InsertGrowthBound(graph_index, from, to)));
  }
  FSIM_RETURN_NOT_OK(insert ? target.InsertEdge(from, to)
                            : target.RemoveEdge(from, to));
  last_edit_.graph_rebuild_seconds = edit_timer.Seconds();

  // Patch exactly what the edit invalidated. A graph-1 edit (from, to)
  // changes N+(from) and N-(to), so the out-spans (and out-direction Ωχ
  // factors) of row `from` and the in-spans/factors of row `to`; a graph-2
  // edit the same per column. (For a self-loop from == to both loops walk
  // the same row/column, re-staging its two distinct directions.)
  Timer patch_timer;
  const NeighborIndexEnv env = IndexEnv();
  const uint64_t restaged_before = nbr_index_.restaged_spans();
  const OperatorConfig& op = op_;
  if (graph_index == 1) {
    for (uint32_t i = row_offsets_[from]; i < row_offsets_[from + 1]; ++i) {
      const NodeId v = PairSecond(keys_[i]);
      nbr_index_.Restage(i, IncrementalNeighborIndex::kOut, from, v, env);
      influence_factor_out_[i] =
          PairInfluenceFactor(op, g1_.OutDegree(from), g2_.OutDegree(v));
    }
    for (uint32_t i = row_offsets_[to]; i < row_offsets_[to + 1]; ++i) {
      const NodeId v = PairSecond(keys_[i]);
      nbr_index_.Restage(i, IncrementalNeighborIndex::kIn, to, v, env);
      influence_factor_in_[i] =
          PairInfluenceFactor(op, g1_.InDegree(to), g2_.InDegree(v));
    }
  } else {
    for (uint32_t c = col_offsets_[from]; c < col_offsets_[from + 1]; ++c) {
      const uint32_t i = col_pairs_[c];
      const NodeId u = PairFirst(keys_[i]);
      nbr_index_.Restage(i, IncrementalNeighborIndex::kOut, u, from, env);
      influence_factor_out_[i] =
          PairInfluenceFactor(op, g1_.OutDegree(u), g2_.OutDegree(from));
    }
    for (uint32_t c = col_offsets_[to]; c < col_offsets_[to + 1]; ++c) {
      const uint32_t i = col_pairs_[c];
      const NodeId u = PairFirst(keys_[i]);
      nbr_index_.Restage(i, IncrementalNeighborIndex::kIn, u, to, env);
      influence_factor_in_[i] =
          PairInfluenceFactor(op, g1_.InDegree(u), g2_.InDegree(to));
    }
  }
  last_edit_.restaged_spans =
      static_cast<size_t>(nbr_index_.restaged_spans() - restaged_before);
  last_edit_.index_patch_seconds = patch_timer.Seconds();

  // The pairs whose own Equation 3 inputs changed shape: `from`'s
  // out-neighbor set and `to`'s in-neighbor set in the edited graph.
  SeedEndpointPairs(graph_index, from, to);
  return Propagate();
}

uint64_t IncrementalFSim::InsertGrowthBound(int graph_index, NodeId from,
                                            NodeId to) const {
  // A graph-1 insert adds row `to` (x = to) to every out-span (from, v),
  // i.e. at most |N+(v)| candidates, and column `from` to every in-span
  // (to, v), at most |N-(v)|; a graph-2 insert the same per column with
  // graph 1's degrees.
  uint64_t bound = 0;
  if (graph_index == 1) {
    for (uint32_t i = row_offsets_[from]; i < row_offsets_[from + 1]; ++i) {
      bound += g2_.OutDegree(PairSecond(keys_[i]));
    }
    for (uint32_t i = row_offsets_[to]; i < row_offsets_[to + 1]; ++i) {
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

Status IncrementalFSim::InsertEdge(int graph_index, NodeId from, NodeId to) {
  return ApplyEdit(graph_index, from, to, /*insert=*/true);
}

Status IncrementalFSim::RemoveEdge(int graph_index, NodeId from, NodeId to) {
  return ApplyEdit(graph_index, from, to, /*insert=*/false);
}

FSimScores IncrementalFSim::Snapshot() const {
  // The iterate fields describe the initial solve (the recording sweep and
  // later edit repairs are not counted); EditStats reports each edit.
  FSimStats stats = solve_stats_;
  stats.maintained_pairs = keys_.size();
  stats.theta_candidates = keys_.size();
  stats.converged = converged_;
  stats.neighbor_index_bytes = nbr_index_.MemoryBytes();
  return FSimScores(keys_, values_, index_, stats);
}

}  // namespace fsim
