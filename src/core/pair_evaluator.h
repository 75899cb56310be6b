// The Equation 3 evaluation of a run of consecutive pairs and its
// active-set scheduler: the sparse path of the shared solver
// (core/fsim_solver.h) and of IncrementalFSim's edit repair. The
// evaluation reads previous-iteration scores through the pair-graph CSR
// neighbor index (direct array indexing, no hash probes or label checks).
// The index enumerates exactly the candidate pairs Algorithm 1's Hp lookups
// visit, in the same order; tests/naive_fsim.h keeps that hash-lookup
// evaluation as the oracle the engines are checked against.
#ifndef FSIM_CORE_PAIR_EVALUATOR_H_
#define FSIM_CORE_PAIR_EVALUATOR_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/fsim_config.h"
#include "core/fsim_scores.h"
#include "core/init_value.h"
#include "core/operators.h"
#include "core/pair_store.h"
#include "graph/graph.h"
#include "label/label_similarity.h"
#include "obs/trace.h"

namespace fsim {

/// One worker's scratch for PairEvaluator::EvaluateRun, and the run's
/// values for the driver that asked for them.
struct alignas(64) PairEvalScratch {
  MatchingScratch matching;
  /// SegmentedMaxPerRowSums: spans starting at each entry of the run.
  std::vector<uint16_t> span_starts;
  /// The run's per-span Σ of per-row maxima (max family only).
  std::array<double, 2 * PairStore::kChunkPairs> row_sums;
  /// The run's values, for ActiveSetDriver.
  std::array<double, PairStore::kChunkPairs> values;
};

/// Evaluates FSim^k(u, v) for maintained pairs against a PairStore's
/// previous-iteration buffer. Stateless between calls except for the
/// caller-owned PairEvalScratch, so one instance serves all workers.
/// `G` is the graph type whose degrees and labels it reads: Graph, or the
/// DynamicGraph of IncrementalFSim's edit repair.
///
/// A run of consecutive pairs of one index chunk is evaluated in two
/// passes. For the max-family mappings (s, and the row half of b), one
/// branch-free SegmentedMaxPerRowSums pass over all the run's entries
/// gives every span's per-row-maximum sum; the injective matchings (dp,
/// bj), the product operator and b's column half run per span. A finish
/// per pair then applies the empty-set conventions, Ωχ, the weights and
/// the label term, in the order of Equation 3.
///
/// This sparse path always runs the scalar operators of core/operators.h;
/// only the θ = 0 tile-panel loop for s and b (core/panel_engine.h) runs
/// through the kernel table (core/simd/), and the two give identical
/// values (tests/panel_engine_test.cc).
template <typename G>
class PairEvaluator {
 public:
  PairEvaluator(const G& g1, const G& g2, const FSimConfig& config,
                const LabelSimilarityCache& lsim, const PairStore& store)
      : g1_(g1),
        g2_(g2),
        config_(config),
        lsim_(lsim),
        store_(store),
        op_(config.operators()),
        max_family_(op_.mapping == MappingKind::kMaxPerRow ||
                    op_.mapping == MappingKind::kMaxBothSides),
        label_weight_(1.0 - config.w_out - config.w_in),
        alpha_(config.upper_bound ? config.alpha : 0.0) {}

  /// Writes the Equation 3 values of store pairs [begin, end), which must
  /// lie in one index chunk (PairStore::kChunkPairs), from the
  /// previous-iteration scores to out[0, end - begin). Every value is ==
  /// to the one a run of any other length gives. Safe to call
  /// concurrently with distinct scratches.
  void EvaluateRun(size_t begin, size_t end, PairEvalScratch* scratch,
                   double* out) const {
    const double* prev = store_.prev_data();
    const float* pruned = store_.pruned_bounds_data();
    auto score_of = [prev, pruned, this](uint32_t ref) -> double {
      if (ref & kNeighborRefPrunedTag) {
        return alpha_ *
               static_cast<double>(pruned[ref & ~kNeighborRefPrunedTag]);
      }
      return prev[ref];
    };
    if (!max_family_) {
      for (size_t i = begin; i < end; ++i) {
        store_.WithRefs(i, [&](auto out_refs, auto in_refs) {
          out[i - begin] = EvaluateSpans(i, out_refs, in_refs, score_of,
                                         &scratch->matching);
        });
      }
      return;
    }
    // One body for both index entry layouts (the packed 8-byte refs of
    // degree-bounded graphs and the wide 12-byte refs).
    store_.WithRunRefs(begin, end, [&](const auto* entries,
                                       std::span<const uint32_t> offsets) {
      double* sums = scratch->row_sums.data();
      if (store_.has_pruned_refs()) {
        SegmentedMaxPerRowSums(entries, offsets, score_of,
                               &scratch->span_starts, sums);
      } else {
        SegmentedMaxPerRowSums(
            entries, offsets, [prev](uint32_t ref) { return prev[ref]; },
            &scratch->span_starts, sums);
      }
      using Ref = std::remove_cv_t<std::remove_pointer_t<decltype(entries)>>;
      // Span k of the run plus, for b, its column maxima; then Equation 2.
      auto direction = [&](size_t k, uint32_t n1, uint32_t n2) {
        double sum = sums[k];
        if (op_.mapping == MappingKind::kMaxBothSides) {
          sum = AddColumnMaxima(
              sum, n2,
              std::span<const Ref>(entries + offsets[k],
                                   entries + offsets[k + 1]),
              score_of, &scratch->matching);
        }
        return MaxFamilyDirectionScore(op_, n1, n2, sum);
      };
      // Locals: the stores to `out` could alias the config's doubles.
      const double w_out = config_.w_out;
      const double w_in = config_.w_in;
      const bool pin_diagonal = config_.pin_diagonal;
      // What depends on u only is read once per row of the pair space.
      NodeId u = kInvalidNode;
      uint32_t u_out = 0;
      uint32_t u_in = 0;
      LabelId u_label = 0;
      for (size_t j = 0; j < end - begin; ++j) {
        const NodeId v = store_.V(begin + j);
        if (store_.U(begin + j) != u) {
          u = store_.U(begin + j);
          u_out = static_cast<uint32_t>(g1_.OutDegree(u));
          u_in = static_cast<uint32_t>(g1_.InDegree(u));
          u_label = g1_.Label(u);
        }
        double out_score = 0.0;
        double in_score = 0.0;
        if (w_out > 0.0) {
          out_score = direction(2 * j, u_out,
                                static_cast<uint32_t>(g2_.OutDegree(v)));
        }
        if (w_in > 0.0) {
          in_score = direction(2 * j + 1, u_in,
                               static_cast<uint32_t>(g2_.InDegree(v)));
        }
        out[j] = pin_diagonal && u == v
                     ? 1.0
                     : w_out * out_score + w_in * in_score +
                           label_weight_ * LabelTermValue(config_, lsim_,
                                                          u_label,
                                                          g2_.Label(v));
      }
    });
  }

 private:
  /// The Equation 3 value of pair i from its spans, one at a time: the
  /// mappings outside the max family.
  template <typename Refs, typename ScoreFn>
  double EvaluateSpans(size_t i, Refs out_refs, Refs in_refs,
                       ScoreFn& score_of, MatchingScratch* scratch) const {
    const NodeId u = store_.U(i);
    const NodeId v = store_.V(i);
    if (config_.pin_diagonal && u == v) return 1.0;
    double out_score = 0.0;
    double in_score = 0.0;
    if (config_.w_out > 0.0) {
      out_score = DirectionScoreIndexed(op_, config_.matching,
                                        g1_.OutDegree(u), g2_.OutDegree(v),
                                        out_refs, 0.0, score_of, scratch);
    }
    if (config_.w_in > 0.0) {
      in_score = DirectionScoreIndexed(op_, config_.matching, g1_.InDegree(u),
                                       g2_.InDegree(v), in_refs, 0.0, score_of,
                                       scratch);
    }
    return config_.w_out * out_score + config_.w_in * in_score +
           label_weight_ * LabelTerm(u, v);
  }

  double LabelTerm(NodeId u, NodeId v) const {
    return LabelTermValue(config_, lsim_, g1_.Label(u), g2_.Label(v));
  }

  const G& g1_;
  const G& g2_;
  const FSimConfig& config_;
  const LabelSimilarityCache& lsim_;
  const PairStore& store_;
  const OperatorConfig op_;
  /// s or b: the row maxima come from the segmented pass.
  const bool max_family_;
  const double label_weight_;
  const double alpha_;
};

/// The Algorithm 1 iterate loop of the solver's sparse path and of
/// IncrementalFSim's edit repair (docs/performance.md "Active-set
/// iteration"). Each Step() runs one synchronous Jacobi iteration and
/// leaves the pair space's previous-score buffer holding the complete new
/// state. By default every step is a plain full sweep over all maintained
/// pairs, one index chunk per scheduler task and per EvaluateRun, followed
/// by an O(1) SwapBuffers.
///
/// With FSimConfig::frontier_tolerance > 0 and reverse spans, the driver
/// runs tolerance frontiers (the active set):
///  * While sweeping, workers add the influence of every changed pair on
///    its dependents into their FrontierTracker arrays by walking the
///    pair's own CSR spans in reverse: the refs of the in-span are exactly
///    the pairs reading (u, v) through their out-direction, and vice
///    versa. The influence is Σ w± · c/Ωχ · |Δ|, with the sharpened
///    per-pair factors of PairInfluenceFactor.
///  * Later iterations evaluate only the pairs whose carried influence
///    exceeds frontier_tolerance, and commit the evaluated entries into
///    the previous buffer (selective forward copy); every skipped pair
///    keeps its score for free. The frontier is handed out in slices of
///    kFrontierGrain ids, and each slice is evaluated in runs of
///    consecutive ids inside one index chunk. Frontiers at or above
///    FSimConfig::frontier_density_threshold of the pairs fall back to a
///    full sweep — dense frontiers are cheaper as sweeps.
/// This trades an error of at most frontier_tolerance · (1 + w) / (1 − w)
/// against full sweeps for fewer evaluations.
///
/// `Space` is the iterated pair space (PairStore, or the in-place view of
/// one that IncrementalFSim's edit repair runs on). Its contract:
///  * size(), U(i), V(i), over PairStore's pair order and index chunks;
///  * prev(i) / set_curr(i, value), SwapBuffers(), CommitPair(i) — the
///    double buffer (see PairStore::CommitPair), or an in-place view whose
///    set_curr writes prev(i) at once and whose buffer calls do nothing;
///  * kInPlace: true for the in-place view. Each evaluation must then see
///    the values written before it, so every run is a single pair;
///  * reverse_spans(): per-pair out/in spans exist and list reverse
///    dependencies; WithRefs(i, f) calls f(out_refs, in_refs) with them;
///  * pinned_pairs_spanned(): pin_diagonal pairs carry spans too. When
///    they do not, their init -> 1 snap in the first sweep cannot mark its
///    dependents, so the second sweep is forced full as well.
/// `Evaluator` provides EvaluateRun(begin, end, scratch, out) as
/// PairEvaluator does: the Equation 3 values of the pairs [begin, end) of
/// one index chunk from the previous buffer, safe to call concurrently for
/// disjoint runs.
template <typename Space, typename Evaluator>
class ActiveSetDriver {
 public:
  /// How a changed pair's dependents are found from its own spans.
  enum class ReverseDepScheme {
    /// In-lists are the transpose of out-lists (every GraphBuilder/IO
    /// graph): dependents reading i through their out-direction are the
    /// refs of i's in-span, and vice versa.
    kTranspose,
    /// The AsUndirected adaptation (§4.3: symmetric out-adjacency, empty
    /// in-lists): u ∈ N+(x) ⟺ x ∈ N+(u), so the out-span is its own
    /// dependent list; the in-direction reads empty sets everywhere and
    /// never changes.
    kSymmetricOut,
  };

  /// `g1`/`g2` are the graphs whose adjacency the space's spans describe
  /// (Graph or DynamicGraph); the driver reads their degrees and in-edge
  /// totals only here and in UpdateInfluence.
  template <typename G>
  ActiveSetDriver(ThreadPool& pool, Space& space, const Evaluator& evaluator,
                  const G& g1, const G& g2, const FSimConfig& config)
      : pool_(pool),
        space_(space),
        evaluator_(evaluator),
        config_(config),
        op_(config.operators()),
        forced_full_sweeps_(
            config.pin_diagonal && !space.pinned_pairs_spanned() ? 2 : 1),
        scratch_(static_cast<size_t>(pool.num_threads())),
        worker_stats_(static_cast<size_t>(pool.num_threads())) {
    if (config.frontier_tolerance > 0.0 && space.reverse_spans() &&
        config.w_out + config.w_in > 0.0) {
      const bool transpose = g1.NumInEdges() == g1.NumEdges() &&
                             g2.NumInEdges() == g2.NumEdges();
      const bool symmetric_out =
          g1.NumInEdges() == 0 && g2.NumInEdges() == 0;
      // Neither shape (partially populated in-lists that are not the
      // transpose) has no sound reverse walk; stay on full sweeps.
      active_ = transpose || symmetric_out;
      scheme_ = transpose ? ReverseDepScheme::kTranspose
                          : ReverseDepScheme::kSymmetricOut;
    }
    if (active_) {
      influence_out_.resize(space.size());
      influence_in_.resize(space.size());
      for (size_t i = 0; i < space.size(); ++i) UpdateInfluence(i, g1, g2);
      tracker_.Init(space.size(), pool.num_threads());
      marking_ = config.active_set_activation_fraction == 0.0;
    }
  }

  /// Runs one iteration (frontier or full sweep per the policy above) and
  /// returns max |FSim^k - FSim^{k-1}| over the evaluated pairs.
  double Step() {
    ++iter_;
    // A frontier is only sound when the *previous* sweep marked dependents
    // (see marking_ below); density decides whether it is worth indirect
    // evaluation.
    bool full = true;
    if (can_build_frontier_ && iter_ > forced_full_sweeps_) {
      BuildFrontier();
      full = Dense(frontier_.size());
    }
    return Sweep(full);
  }

  /// True when tolerance frontiers are engaged (frontier_tolerance > 0 and
  /// the space has reverse spans of a graph shape the walk supports).
  bool active() const { return active_; }

  /// Work counters for the solver's FSimStats: pairs the last step
  /// evaluated, pairs evaluated over all steps, full sweeps run, and the
  /// time spent building frontiers.
  size_t last_evaluated() const { return last_evaluated_; }
  size_t total_evaluated() const { return total_evaluated_; }
  uint32_t full_sweeps() const { return full_sweeps_; }
  double frontier_build_seconds() const { return frontier_build_seconds_; }

  /// Recomputes pair i's influence factors from the current degrees of
  /// `g1`/`g2` (a no-op while the driver runs full sweeps).
  template <typename G>
  void UpdateInfluence(size_t i, const G& g1, const G& g2) {
    if (!active_) return;
    const NodeId u = space_.U(i);
    const NodeId v = space_.V(i);
    influence_out_[i] = static_cast<float>(
        PairInfluenceFactor(op_, g1.OutDegree(u), g2.OutDegree(v)));
    influence_in_[i] = static_cast<float>(
        PairInfluenceFactor(op_, g1.InDegree(u), g2.InDegree(v)));
  }

  /// The work one Repair call did.
  struct RepairReport {
    uint32_t steps = 0;
    size_t evaluated = 0;
    /// Stopped with work left: max_steps steps were run, or
    /// max_evaluations was reached.
    bool step_capped = false;
    bool evaluation_capped = false;
  };

  /// Edit repair from a seed frontier (core/incremental.h): the first step
  /// evaluates exactly `seeds` (ascending, distinct), and every later step
  /// the pairs whose carried influence exceeds frontier_tolerance, until
  /// none is left. Frontiers at or above the density threshold run as
  /// full sweeps. Without an active set every step is a full sweep, until
  /// the max delta is within frontier_tolerance. The caps are checked
  /// between steps, so a capped run still finishes its last step.
  ///
  /// Influence below frontier_tolerance stays carried into the next
  /// Repair, which keeps the τ·(1+w)/(1-w) bound over any number of
  /// repairs. Call UpdateInfluence first for pairs whose degrees changed.
  RepairReport Repair(std::span<const uint32_t> seeds, uint32_t max_steps,
                      uint64_t max_evaluations) {
    RepairReport report;
    marking_ = active();
    frontier_.assign(seeds.begin(), seeds.end());
    // The seeds are evaluated next, which absorbs what they carry.
    if (active()) tracker_.ResetCarry(frontier_);
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
      ++iter_;
      const double max_delta = Sweep(!active() || Dense(frontier_.size()));
      ++report.steps;
      report.evaluated += last_evaluated_;
      if (active()) {
        BuildFrontier();
        more = !frontier_.empty();
      } else {
        more = max_delta > config_.frontier_tolerance;
      }
    }
    return report;
  }

 private:
  void BuildFrontier() {
    Timer build_timer;
    FSIM_TRACE_SPAN("engine.frontier_build");
    tracker_.BuildNext(pool_, config_.frontier_tolerance, last_was_full_sweep_,
                       &frontier_);
    frontier_build_seconds_ += build_timer.Seconds();
  }

  /// Frontiers this large are cheaper as full sweeps.
  bool Dense(size_t frontier_size) const {
    return static_cast<double>(frontier_size) >=
           config_.frontier_density_threshold *
               static_cast<double>(space_.size());
  }

  /// Evaluates frontier_ (or every pair when `full`), marks dependents
  /// once marking is on, and returns the max delta over the evaluated
  /// pairs.
  double Sweep(bool full) {
    if (marking_) tracker_.BeginIteration();
    for (auto& w : worker_stats_) w = WorkerSweepStats{};
    constexpr size_t kChunk = PairStore::kChunkPairs;
    if (full) {
      FSIM_TRACE_SPAN_ARG("engine.sweep.full", space_.size());
      const size_t n = space_.size();
      pool_.ParallelForChunked(
          (n + kChunk - 1) / kChunk, 1,
          [&](int worker, size_t begin, size_t end) {
            WorkerSweepStats local;
            for (size_t c = begin; c < end; ++c) {
              EvaluateRun(worker, c * kChunk, std::min(n, (c + 1) * kChunk),
                          &local);
            }
            Fold(worker, local);
          });
      space_.SwapBuffers();
      ++full_sweeps_;
      last_evaluated_ = space_.size();
    } else {
      FSIM_TRACE_SPAN_ARG("engine.sweep.frontier", frontier_.size());
      // Slices of the ascending frontier. Which worker takes a slice does
      // not change a value: evaluations are Jacobi (all reads hit prev_).
      pool_.ParallelForSpan(
          frontier_, kFrontierGrain,
          [&](int worker, std::span<const uint32_t> ids) {
            WorkerSweepStats local;
            size_t t = 0;
            while (t < ids.size()) {
              // The run of consecutive ids from ids[t] inside its chunk.
              const size_t begin = ids[t];
              size_t end = begin + 1;
              if constexpr (!Space::kInPlace) {
                while (t + (end - begin) < ids.size() &&
                       ids[t + (end - begin)] == end && end % kChunk != 0) {
                  ++end;
                }
              }
              EvaluateRun(worker, begin, end, &local);
              t += end - begin;
            }
            Fold(worker, local);
          });
      // Selective forward copy, after the sweep's last read of prev_
      // (Jacobi semantics: every evaluation above saw the old state).
      constexpr size_t kCommitGrain = 4096;
      FSIM_TRACE_SPAN("engine.commit");
      pool_.ParallelForChunked(
          frontier_.size(), kCommitGrain,
          [&](int /*worker*/, size_t begin, size_t end) {
            for (size_t k = begin; k < end; ++k) {
              space_.CommitPair(frontier_[k]);
            }
          });
      last_evaluated_ = frontier_.size();
    }
    total_evaluated_ += last_evaluated_;
    last_was_full_sweep_ = full;
    double max_delta = 0.0;
    size_t freeze_signal = 0;
    for (const auto& w : worker_stats_) {
      max_delta = std::max(max_delta, w.max_delta);
      freeze_signal += w.freeze_signal;
    }
    // Marks from this sweep feed the next frontier; once enough deltas are
    // sub-tolerance that a frontier would skip at least
    // active_set_activation_fraction of the pairs, start paying for
    // marking — and never stop, since a sparse sweep's skipped pairs
    // depend on the marks staying complete. A frontier only beats a full
    // sweep below the density threshold, which needs at least
    // (1 - threshold) · n skippable pairs, so wait for that many too.
    can_build_frontier_ = marking_;
    if (active_ && !marking_) {
      const double needed =
          std::max(config_.active_set_activation_fraction *
                       static_cast<double>(last_evaluated_),
                   (1.0 - config_.frontier_density_threshold) *
                       static_cast<double>(space_.size()));
      marking_ = static_cast<double>(freeze_signal) >= needed;
    }
    return max_delta;
  }

  /// Frontier ids per scheduler slice (full sweeps hand out whole index
  /// chunks instead). Small enough to rebalance around expensive pairs
  /// (large dp/bj matchings), large enough to amortize the per-slice claim.
  /// 16, 64 and 256 timed alike on the yeast dp iterate at θ = 1 (0.14,
  /// 0.14 and 0.16 s at 4 threads on a 4-vCPU host).
  static constexpr size_t kFrontierGrain = 64;

  /// Cache-line-padded per-worker sweep accumulators.
  struct alignas(64) WorkerSweepStats {
    double max_delta = 0.0;
    /// While marking is deferred: pairs with delta <= frontier_tolerance
    /// (their outgoing influence is near the skip threshold, so frontiers
    /// are about to shrink).
    size_t freeze_signal = 0;
  };

  void Fold(int worker, const WorkerSweepStats& local) {
    if (local.max_delta > worker_stats_[worker].max_delta) {
      worker_stats_[worker].max_delta = local.max_delta;
    }
    worker_stats_[worker].freeze_signal += local.freeze_signal;
  }

  /// Evaluates the pairs [begin, end) of one index chunk and records each.
  void EvaluateRun(int worker, size_t begin, size_t end,
                   WorkerSweepStats* local) {
    PairEvalScratch* scratch = &scratch_[worker];
    if constexpr (Space::kInPlace) {
      for (size_t i = begin; i < end; ++i) {
        evaluator_.EvaluateRun(i, i + 1, scratch, scratch->values.data());
        Record(worker, i, scratch->values[0], local);
      }
    } else {
      evaluator_.EvaluateRun(begin, end, scratch, scratch->values.data());
      for (size_t i = begin; i < end; ++i) {
        Record(worker, i, scratch->values[i - begin], local);
      }
    }
  }

  /// Records pair i's new value and (once marking is active) marks its
  /// dependents when it changed.
  void Record(int worker, size_t i, double value, WorkerSweepStats* local) {
    // Before set_curr: an in-place space's prev(i) is the value it writes.
    const double delta = std::abs(value - space_.prev(i));
    space_.set_curr(i, value);
    local->max_delta = std::max(local->max_delta, delta);
    if (active_) {
      // Whether a pair moved is data-dependent, so the counter adds 0 or 1
      // rather than branch.
      local->freeze_signal += delta <= config_.frontier_tolerance;
      if (delta != 0.0 && marking_) MarkDependents(worker, i, delta);
    }
  }

  /// Adds pair i's change to the influence on the pairs whose next
  /// evaluation reads it: the refs of i's in-span (their out-direction
  /// consumes i) and of i's out-span (their in-direction does), in the
  /// calling worker's private arrays. Pruned-table refs never re-evaluate
  /// and are skipped; a zero-weight direction contributes nothing to any
  /// dependent and is skipped with it.
  void MarkDependents(int worker, size_t i, double delta) {
    const uint32_t epoch = tracker_.epoch();
    uint32_t* stamp = tracker_.stamps(worker);
    float* inf = tracker_.influence(worker);
    uint64_t* marked = tracker_.marked(worker);
    auto mark_span = [&](auto refs, double base, const float* factor) {
      for (const auto& e : refs) {
        const uint32_t r = e.ref;
        if (IsPrunedRef(r)) continue;
        const float x = static_cast<float>(base * factor[r]);
        if (stamp[r] != epoch) {
          stamp[r] = epoch;
          inf[r] = x;
          marked[r / 64] |= uint64_t{1} << (r % 64);
        } else {
          inf[r] += x;
        }
      }
    };
    const double base_out = config_.w_out * delta;
    const double base_in = config_.w_in * delta;
    space_.WithRefs(i, [&](auto out_refs, auto in_refs) {
      if (scheme_ == ReverseDepScheme::kSymmetricOut) {
        // Symmetric out-adjacency: the out-span is its own dependent list,
        // and the in-direction (empty sets everywhere) never changes.
        if (config_.w_out > 0.0) {
          mark_span(out_refs, base_out, influence_out_.data());
        }
        return;
      }
      if (config_.w_out > 0.0) {
        mark_span(in_refs, base_out, influence_out_.data());
      }
      if (config_.w_in > 0.0) {
        mark_span(out_refs, base_in, influence_in_.data());
      }
    });
  }

  ThreadPool& pool_;
  Space& space_;
  const Evaluator& evaluator_;
  const FSimConfig& config_;
  const OperatorConfig op_;
  /// Leading iterations that sweep in full whatever the marks say.
  const uint32_t forced_full_sweeps_;
  /// Tolerance frontiers engaged (see active()).
  bool active_ = false;
  ReverseDepScheme scheme_ = ReverseDepScheme::kTranspose;
  /// Dependent marking engaged (see active_set_activation_fraction).
  bool marking_ = false;
  /// The previous sweep marked, so its stamps form a complete frontier.
  bool can_build_frontier_ = false;
  /// The previous sweep evaluated every pair (tolerance-mode carries from
  /// before it are absorbed).
  bool last_was_full_sweep_ = false;
  FrontierTracker tracker_;
  std::vector<uint32_t> frontier_;
  std::vector<float> influence_out_;  // per-pair c/Ωχ factors
  std::vector<float> influence_in_;
  std::vector<PairEvalScratch> scratch_;
  std::vector<WorkerSweepStats> worker_stats_;
  uint32_t iter_ = 0;
  uint32_t full_sweeps_ = 0;
  size_t last_evaluated_ = 0;
  size_t total_evaluated_ = 0;
  double frontier_build_seconds_ = 0.0;
};

}  // namespace fsim

#endif  // FSIM_CORE_PAIR_EVALUATOR_H_
