// Incremental maintenance of fractional χ-simulation scores under edge
// insertions and deletions — a dynamic-graph extension of the paper's
// framework (the paper computes FSimχ from scratch; real deployments face
// evolving graphs).
//
// Idea: Equation 3's update operator F is a sup-norm contraction with factor
// w = w+ + w- < 1 (this is exactly the Theorem 1 convergence argument), so
// the converged scores are the unique fixpoint of F and can be repaired by
// *asynchronous* (chaotic) iteration from any set of seeded pairs: after a
// burst of edits, only the pairs whose inputs changed are recomputed, and a
// pair is re-evaluated only once the accumulated influence of its inputs'
// changes exceeds a propagation tolerance τ. The geometric decay of
// propagated changes bounds both the work and the final error:
//
//   ||maintained - exact fixpoint||∞  <=  τ · (1 + w) / (1 - w).
//
// The dependency structure mirrors Equation 3: the score of (u, v) is read by
// the out-direction of every pair in N-(u) x N-(v) and by the in-direction of
// every pair in N+(u) x N+(v).
//
// One index and one iterate loop do all of it: PairStore's chunked CSR
// neighbor index (core/pair_store.h) and ActiveSetDriver with
// PairEvaluator (core/pair_evaluator.h). Create runs the shared solver's
// sparse solve (core/fsim_solver.h), on a pool of config.num_threads
// workers that lives only for the call, and keeps its store. A burst of
// edits (ApplyEdits) first patches every op, then repairs once: the
// driver in tolerance mode (frontier_tolerance = τ) starts from the union
// of the ops' seeded pairs and runs over an in-place view of the store.
// Its writes land in the previous-score buffer at once, so an evaluation
// sees the changes made earlier in the same step. The repair is serial at
// every thread count, so the maintained scores do not depend on
// config.num_threads. The first burst builds the repair driver and every
// later burst reuses it, so influence a repair left below τ is carried
// into the next one: the bound above holds over any number of bursts.
//
// Cost model:
//  * the graphs are held as DynamicGraph (graph/dynamic_graph.h), so each
//    op's edge edit patches two sorted adjacency lists in O(deg);
//  * the store keeps both directions of every pair (its reverse-span
//    layout, which the tolerance-mode repair needs whatever
//    config.frontier_tolerance says) and is maintained, not rebuilt: an
//    edit to edge (a, b) in graph 1 invalidates only the out-spans of
//    pairs (a, *) and the in-spans of pairs (b, *) (symmetrically
//    (*, a) / (*, b) for graph 2), and exactly those spans are re-staged —
//    O(|N(u)|·|N(v)|) classify work per affected pair, the same order as
//    the one re-evaluation the edit forces anyway — plus one rewrite of
//    each touched kChunkPairs-pair chunk buffer per op. A graph-1 edit
//    touches the chunks of two rows; a graph-2 edit touches one pair per
//    row, so at θ = 0 it rewrites about one chunk in every |V2|/256;
//  * the repair costs its evaluations (through the index, as in the batch
//    engines) and their dependent marks, plus a frontier build per repair
//    step over the marked pairs and pairs/64 bitmap words, once per burst
//    however many ops it holds. Only the first burst pays the driver's
//    O(pairs) setup (influence factors, zeroed frontier arrays).
//    FSimConfig::neighbor_index_budget_bytes
//    is a ceiling: Create fails with ResourceExhausted when the index does
//    not fit it, and an edge insert whose span growth could pass it is
//    rejected with ResourceExhausted before the graph is touched.
//
// Restrictions:
//  * upper-bound updating must be off (pruning decisions are edge-dependent,
//    so the maintained candidate set would change under edits);
//  * edits are edge-level; the node set and labels are fixed (the θ-filtered
//    candidate set depends only on labels, so it stays valid — which is also
//    what keeps the maintained index's ref values stable under edits).
//
// After any edit stream the store equals a fresh PairStore::Build of the
// materialized graphs (MaterializeG1/G2), except that an index widened to
// 12-byte refs by an insert stays wide.
//
// Verified against full recomputation by the property tests in
// tests/dynamic_test.cc; the work savings are quantified by
// bench/exp_incremental (BENCH_incremental.json).
#ifndef FSIM_CORE_INCREMENTAL_H_
#define FSIM_CORE_INCREMENTAL_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "core/fsim_config.h"
#include "core/fsim_scores.h"
#include "core/pair_store.h"
#include "graph/dynamic_graph.h"
#include "graph/graph.h"
#include "label/label_similarity.h"

namespace fsim {

/// Tuning knobs for the incremental engine.
struct IncrementalOptions {
  /// A pair is re-evaluated once the accumulated influence of its inputs'
  /// changes exceeds this; smaller influences are absorbed. The maintained
  /// scores stay within tau * (1 + w) / (1 - w) of the exact fixpoint
  /// (w = w+ + w-).
  double propagation_tolerance = 1e-9;

  /// Safety valve, per burst: a repair that has recomputed at least this
  /// many pair-updates stops at the end of its current step and returns
  /// Internal (possible only in pathological non-contractive corner cases
  /// of the greedy matching realization). The updates performed are kept,
  /// and the snapshot reports the state as not converged.
  uint64_t max_updates_per_edit = 200'000'000;
};

/// One edge edit of a burst (IncrementalFSim::ApplyEdits).
struct EdgeEdit {
  int graph_index = 1;  // 1 or 2
  NodeId from = 0;
  NodeId to = 0;
  bool insert = true;  // false: remove
};

/// Work report for one burst (InsertEdge/RemoveEdge are one-op bursts).
struct EditStats {
  size_t seeded_pairs = 0;      // pairs whose inputs the ops touched directly
  size_t recomputed = 0;        // total pair recomputations performed
  uint32_t steps = 0;           // repair steps run (capped at the
                                // Corollary 1 bound ceil(log_w τ))
  size_t restaged_spans = 0;    // neighbor-index spans re-staged by the ops
  bool truncated = false;       // hit max_updates_per_edit or the step cap;
                                // the snapshot then reports converged=false
  double graph_rebuild_seconds = 0.0;  // O(deg) adjacency patches
  double index_patch_seconds = 0.0;    // span re-stages + chunk rewrites
  double repair_seconds = 0.0;
};

/// A converged FSimχ computation that can be repaired in place after edge
/// edits, instead of recomputed from scratch.
class IncrementalFSim {
 public:
  /// Builds the candidate-pair store with its neighbor index and runs the
  /// iterative computation to the fixpoint (ComputeFSim's sparse solve,
  /// on config.num_threads workers), and retains the state needed for
  /// localized repair.
  ///
  /// `config.epsilon` controls the initial solve; the maintained accuracy
  /// after edits is governed by `options.propagation_tolerance`, so choose
  /// epsilon of comparable magnitude for consistent answers.
  ///
  /// `warm_seed` (optional) primes the solve with previously converged
  /// scores — the crash-recovery path (serve/recovery.h) passes the scores
  /// loaded from the latest durable snapshot so the initial solve converges
  /// in a sweep or two instead of a cold fixpoint run. The seed is used only
  /// when its keyset matches the freshly enumerated candidate set exactly
  /// (same graphs + config ⇒ same candidates); on any mismatch the solve
  /// silently falls back to the cold FSim^0 initialization, so a stale or
  /// foreign seed can never corrupt the fixpoint (the contraction drives
  /// any starting point in [0,1] to the same result).
  ///
  /// Fails with ResourceExhausted, naming the bytes it needs and the
  /// budget, when the reverse-span neighbor index cannot fit
  /// config.neighbor_index_budget_bytes (even where ComputeFSim would fall
  /// back to its evaluation-only index).
  static Result<IncrementalFSim> Create(Graph g1, Graph g2, FSimConfig config,
                                        IncrementalOptions options = {},
                                        const FSimScores* warm_seed = nullptr);

  IncrementalFSim(IncrementalFSim&&) noexcept;
  IncrementalFSim& operator=(IncrementalFSim&&) noexcept;
  ~IncrementalFSim();

  /// Applies a burst of edge edits: patches the graphs and the index for
  /// each op in order, then re-converges the affected scores with one
  /// repair. O(affected degree) per op plus the repair, not O(|V|+|E|).
  /// `statuses` receives one Status per op. A rejected op (bad graph index
  /// or endpoint, duplicate insert, absent removal, or an insert whose
  /// span growth bound could push the neighbor index past
  /// config.neighbor_index_budget_bytes, which is ResourceExhausted) leaves
  /// the graphs, index and scores as the ops before it left them; the
  /// other ops still apply. Returns Internal when the repair hit
  /// max_updates_per_edit.
  Status ApplyEdits(std::span<const EdgeEdit> edits,
                    std::vector<Status>* statuses);

  /// Adds the directed edge from -> to in graph `graph_index` (1 or 2) and
  /// re-converges the affected scores: a one-op ApplyEdits, returning the
  /// op's status if it was rejected.
  Status InsertEdge(int graph_index, NodeId from, NodeId to);

  /// Removes the directed edge from -> to in graph `graph_index` (1 or 2)
  /// and re-converges the affected scores, like InsertEdge.
  Status RemoveEdge(int graph_index, NodeId from, NodeId to);

  /// FSimχ(u, v) under the current graphs; 0 for non-candidate pairs.
  double Score(NodeId u, NodeId v) const {
    const uint32_t slot = store_.space()->Find(u, v);
    return slot == PairSpace::kNotFound ? 0.0 : store_.prev(slot);
  }

  /// True if (u, v) is in the maintained candidate set.
  bool Contains(NodeId u, NodeId v) const {
    return store_.space()->Find(u, v) != PairSpace::kNotFound;
  }

  size_t NumPairs() const { return store_.size(); }

  /// An immutable snapshot of the current scores. It shares the engine's
  /// pair space (fixed under edits) and copies only the score values.
  /// stats().converged faithfully reports whether the initial solve
  /// converged and every repair since ran to quiescence (no truncation by
  /// max_updates_per_edit or the step cap). The iterate fields of stats()
  /// (iterations, final_delta, active_set, full_sweep_iterations,
  /// frozen_fraction, iterate_seconds, ...) describe the initial solve.
  FSimScores Snapshot() const;

  /// The evolving graphs (edit-capable adjacency; read API mirrors Graph).
  const DynamicGraph& g1() const { return g1_; }
  const DynamicGraph& g2() const { return g2_; }

  /// Materialized immutable CSR copies of the current graphs, for handing
  /// to the batch engines (e.g. verification against ComputeFSim).
  Graph MaterializeG1() const { return g1_.ToGraph(); }
  Graph MaterializeG2() const { return g2_.ToGraph(); }

  const FSimConfig& config() const { return config_; }

  /// False once any repair was truncated (see EditStats::truncated) or the
  /// initial solve stopped above epsilon.
  bool converged() const { return converged_; }

  /// The maintained pairs, scores and pair-graph CSR neighbor index
  /// (read-only).
  const PairStore& store() const { return store_; }

  /// Work report of the most recent burst (ApplyEdits, InsertEdge or
  /// RemoveEdge).
  const EditStats& last_edit_stats() const { return last_edit_; }

 private:
  IncrementalFSim(const Graph& g1, const Graph& g2, FSimConfig config,
                  IncrementalOptions options, LabelSimilarityCache lsim,
                  PairStore store);

  /// The in-place view of the store that edit repair runs on.
  class RepairSpace;
  /// Edit repair's driver with its view and one-worker pool, kept across
  /// bursts (see Repair).
  struct Repairer;

  /// Applies one op's graph-side edit and re-stages the index spans it
  /// invalidated, appending the pairs whose Equation 3 inputs changed
  /// shape to `*seeds`. A rejected op changes nothing.
  Status Patch(const EdgeEdit& edit, std::vector<uint32_t>* seeds);

  /// ActiveSetDriver::Repair over RepairSpace from `seeds` (ascending,
  /// distinct), serial at every thread count; records EditStats and maps
  /// truncation by max_updates_per_edit to Internal. The driver is built
  /// by the first repair and reused while the graphs' in-lists mirror
  /// their out-lists, so its carried sub-τ influence persists from burst
  /// to burst.
  Status Repair(std::span<const uint32_t> seeds);

  /// Upper bound on the index entries inserting edge (from, to) into graph
  /// `graph_index` can add: the out-spans of row/column `from` each gain at
  /// most the other graph's out-degree of their partner, the in-spans of
  /// row/column `to` its in-degree. Endpoints must be in range.
  uint64_t InsertGrowthBound(int graph_index, NodeId from, NodeId to) const;

  DynamicGraph g1_;
  DynamicGraph g2_;
  FSimConfig config_;
  IncrementalOptions options_;
  LabelSimilarityCache lsim_;

  // The θ-candidate pairs (labels are fixed under edits, so the pair space
  // never changes; its rows seed and re-stage edits in graph 1), their
  // scores and the maintained neighbor index.
  PairStore store_;

  // CSR of store indices grouped by v. Used to seed and re-stage edits in
  // graph 2.
  std::vector<uint32_t> col_offsets_;
  std::vector<uint32_t> col_pairs_;

  std::unique_ptr<Repairer> repairer_;  // built by the first repair

  FSimStats solve_stats_;  // the initial solve's iterate fields
  EditStats last_edit_;
  bool converged_ = false;
};

}  // namespace fsim

#endif  // FSIM_CORE_INCREMENTAL_H_
