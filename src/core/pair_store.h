// The candidate-pair store of Algorithm 1: the maintained node pairs
// (u, v) (the paper's Hc/Hp) as a shared PairSpace, their
// double-buffered scores, the side table of upper bounds for pruned pairs
// (upper-bound updating, §3.4), and the pair-graph CSR neighbor index that
// turns the iterate loop's score lookups into direct array reads. The one
// index of the solver's sparse path (core/fsim_solver.h); IncrementalFSim
// (core/incremental.h) keeps the store after its solve and keeps the index
// valid under edge edits by re-staging the spans an edit invalidates.
#ifndef FSIM_CORE_PAIR_STORE_H_
#define FSIM_CORE_PAIR_STORE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "core/fsim_config.h"
#include "core/operators.h"
#include "core/pair_space.h"
#include "graph/graph.h"
#include "label/label_similarity.h"

namespace fsim {

class DynamicGraph;

/// Candidate pairs with previous/current score buffers.
///
/// Construction applies the two optimizations:
///  * label-constrained mapping: with θ > 0 only pairs with L(u,v) >= θ are
///    enumerated (Remark 2 — pairs below θ can never be mapped, so they
///    never contribute);
///  * upper-bound updating: pairs whose Eq. 6 bound is <= β are dropped; if
///    α > 0 their bounds are kept in a side table so lookups can return
///    α * bound.
///
/// Enumeration (PairSpace::Build) works per label class: row u of the
/// candidates is the ascending list of g2 nodes whose label is
/// θ-compatible with label(u), so the keys are written u-major in place
/// and never sorted. Build also materializes the pair-graph CSR neighbor
/// index: for every maintained pair i = (u, v) and each direction with
/// nonzero weight, the NeighborRef list of label-compatible candidate
/// pairs (x, y) ∈ N±(u) x N±(v) sorted by (row, col). The index build
/// visits only those pairs: for each x it walks the label runs of g2's
/// class-grouped N±(v) that label(x) is compatible with, and reads each
/// (x, y)'s slot from the space's candidate-id function, with no hash
/// lookup and no label-similarity test. Iterating reads previous-iteration
/// scores through the index by direct indexing (prev_data() / pruned ref
/// tag); callers that look scores up by key share the space (space()).
/// The entries are stored per chunk of kChunkPairs consecutive pairs, one
/// exact-size buffer each with chunk-local 32-bit span offsets, which the
/// parallel build fills in one pass and an edit rewrites without touching
/// any other chunk (RestageSpans). The chunk is also the unit of a full
/// sweep: PairEvaluator evaluates a run of consecutive pairs of one chunk
/// in one segmented pass over their entries (WithRunRefs).
/// config.neighbor_index_budget_bytes is a ceiling: an index whose bound
/// cannot fit it fails the build. Beyond the index, the build holds one
/// chunk of classification scratch per worker.
class PairStore {
 public:
  /// Pairs per neighbor-index chunk: the unit of entry storage, of the
  /// parallel index build and of a full sweep's evaluation.
  static constexpr size_t kChunkPairs = 256;

  /// Most entries one chunk may hold: its offsets are 32-bit.
  static constexpr uint64_t kMaxChunkEntries = UINT32_MAX;

  struct BuildInfo {
    size_t theta_candidates = 0;  // pairs surviving the θ filter
    size_t kept = 0;              // pairs actually maintained
    size_t pruned = 0;            // pairs dropped by the upper bound
  };

  /// Enumerates and initializes the candidate pairs and builds the
  /// neighbor index, tracing each stage (engine.build.enumerate, .init and
  /// .index). Fails with InvalidArgument if the candidate count would
  /// exceed config.pair_limit (checked before the keys are allocated) or
  /// the 32-bit pair-slot range, and with ResourceExhausted — naming
  /// the bytes the index needs and the budget — if the index cannot fit
  /// config.neighbor_index_budget_bytes, its refs would overflow the
  /// pruned-ref tag or a chunk would hold more than kMaxChunkEntries
  /// entries. `pool` parallelizes enumeration, initialization and
  /// the index build when provided (the engines pass their iterate pool);
  /// nullptr builds serially. With `rows`, only rows u with (*rows)[u] set
  /// are filled (PairSpace::Build): a pair of an unfilled row is outside
  /// the store, so the index omits it and it reads 0, as a pruned
  /// untracked pair does (TopKSearch's radius ball). `reverse_spans` asks
  /// for the widened span layout whose spans double as reverse-dependency
  /// lists (see reverse_spans()), which IncrementalFSim's edit repair
  /// walks; full sweeps do not need it. When the widened layout cannot fit
  /// the budget, the build fails with ResourceExhausted naming the
  /// reverse-span bytes and the budget.
  static Result<PairStore> Build(const Graph& g1, const Graph& g2,
                                 const FSimConfig& config,
                                 const LabelSimilarityCache& lsim,
                                 ThreadPool* pool = nullptr,
                                 const std::vector<bool>* rows = nullptr,
                                 bool reverse_spans = false);

  /// The former spelling Build(g1, g2, config, lsim, /*index=*/true,
  /// pool), still called by perfbench/src/probes.cc; `index` must be true.
  static Result<PairStore> Build(const Graph& g1, const Graph& g2,
                                 const FSimConfig& config,
                                 const LabelSimilarityCache& lsim, bool index,
                                 ThreadPool* pool) {
    FSIM_CHECK(index);
    return Build(g1, g2, config, lsim, pool);
  }

  size_t size() const { return keys_.size(); }
  NodeId U(size_t i) const { return PairFirst(keys_[i]); }
  NodeId V(size_t i) const { return PairSecond(keys_[i]); }

  double prev(size_t i) const { return prev_[i]; }
  void set_curr(size_t i, double value) { curr_[i] = value; }
  void SwapBuffers() { prev_.swap(curr_); }

  /// Overwrites pair i's score in the previous-score buffer, which the
  /// next evaluation reads: a warm start's seed, and edit repair's
  /// in-place updates.
  void set_prev(size_t i, double value) { prev_[i] = value; }

  /// True when the index uses the packed 8-byte entry layout (16-bit
  /// row/col) — selected whenever every relevant neighbor-list position
  /// fits, i.e. no materialized direction has a degree above
  /// kPackedDegreeLimit. Callers read through OutRefsPacked/InRefsPacked
  /// then, OutRefs/InRefs otherwise.
  bool packed_refs() const { return packed_refs_; }

  /// Largest neighbor-list length whose positions fit the packed layout's
  /// 16-bit row/col.
  static constexpr size_t kPackedDegreeLimit = 0x10000;

  /// True when Build was asked for the widened span layout
  /// (opposite-direction spans + pinned diagonal spans kept), so the spans
  /// are usable as reverse-dependency lists.
  bool reverse_spans() const { return reverse_spans_; }

  /// Out-direction CSR entries of pair i: the label-compatible candidate
  /// pairs of N+(u) x N+(v), sorted by (row, col). In the evaluation-only
  /// layout, diagonal pairs of a pin_diagonal run and zero-weight
  /// directions have empty spans (never evaluated); in the reverse-span
  /// layout, a direction is
  /// additionally materialized when the *opposite* weight is nonzero — the
  /// refs of the in-span are exactly the pairs reading (u, v) through their
  /// out-direction (x ∈ N-(u), y ∈ N-(v)), and vice versa, so each span
  /// doubles as the pair's reverse-dependency list for edit repair's
  /// frontier marking — and pinned diagonal spans are kept too, so the
  /// layout lists every reader of every pair.
  std::span<const NeighborRef> OutRefs(size_t i) const {
    FSIM_DCHECK(!packed_refs_);
    return SpanOf(nbr_chunks_, 2 * i);
  }

  /// In-direction CSR entries of pair i (N-(u) x N-(v)).
  std::span<const NeighborRef> InRefs(size_t i) const {
    FSIM_DCHECK(!packed_refs_);
    return SpanOf(nbr_chunks_, 2 * i + 1);
  }

  /// Packed-layout counterparts of OutRefs/InRefs.
  std::span<const PackedNeighborRef> OutRefsPacked(size_t i) const {
    FSIM_DCHECK(packed_refs_);
    return SpanOf(nbr_chunks_packed_, 2 * i);
  }
  std::span<const PackedNeighborRef> InRefsPacked(size_t i) const {
    FSIM_DCHECK(packed_refs_);
    return SpanOf(nbr_chunks_packed_, 2 * i + 1);
  }

  /// Calls f(out_refs, in_refs) with pair i's two spans in whichever entry
  /// layout the index uses, so one generic body serves both.
  template <typename F>
  void WithRefs(size_t i, F&& f) const {
    if (packed_refs_) {
      f(OutRefsPacked(i), InRefsPacked(i));
    } else {
      f(OutRefs(i), InRefs(i));
    }
  }

  /// Calls f(entries, offsets) for the run of pairs [begin, end), which
  /// must lie in one chunk: `entries` is the chunk's buffer in whichever
  /// layout the index uses, and `offsets` the run's 2·(end − begin) + 1
  /// span bounds in it, so span 2j (pair begin + j's out-direction) is
  /// entries[offsets[2j], offsets[2j + 1]) and span 2j + 1 (its
  /// in-direction) the range after it.
  template <typename F>
  void WithRunRefs(size_t begin, size_t end, F&& f) const {
    const size_t chunk = begin / kChunkPairs;
    FSIM_DCHECK(begin < end && (end - 1) / kChunkPairs == chunk);
    const std::span<const uint32_t> offsets(
        nbr_offsets_.data() + 2 * begin + chunk, 2 * (end - begin) + 1);
    if (packed_refs_) {
      f(nbr_chunks_packed_[chunk].data(), offsets);
    } else {
      f(nbr_chunks_[chunk].data(), offsets);
    }
  }

  /// Previous-iteration scores, indexed by untagged NeighborRef::ref values.
  /// The pointer is stable across SwapBuffers only if re-read afterwards.
  const double* prev_data() const { return prev_.data(); }

  /// Eq. 6 bounds of tracked pruned pairs, indexed by tagged refs.
  const float* pruned_bounds_data() const { return pruned_ub_.data(); }

  /// True when the index holds tagged refs (upper-bound pruning with
  /// α > 0 tracks the pruned bounds).
  bool has_pruned_refs() const { return !pruned_ub_.empty(); }

  /// Live footprint of the neighbor index: the entries the chunk buffers
  /// hold and the offsets (sizes, not capacities).
  size_t NeighborIndexBytes() const;

  // Edit maintenance of a reverse-span index over an unpruned pair space
  // (IncrementalFSim). The pairs and their slots depend only on labels, so
  // they survive edge edits; an edit to edge (a, b) changes N+(a) and
  // N-(b), which invalidates only the spans that list them.

  /// Admits an edge insert that adds at most `new_entries` entries and
  /// leaves its source with out-degree `out_degree` and its target with
  /// in-degree `in_degree`. ResourceExhausted, changing nothing, when the
  /// grown index could pass `budget_bytes` or a chunk could pass
  /// kMaxChunkEntries; otherwise, when a position
  /// would no longer fit the packed layout, widens the index to the
  /// 12-byte entries, which it keeps from then on. Call before the graph
  /// changes.
  Status ReserveInsert(uint64_t new_entries, size_t out_degree,
                       size_t in_degree, uint64_t budget_bytes);

  /// Rebuilds spans `spans` (ascending, distinct span ids: 2i is pair i's
  /// out-direction, 2i + 1 its in-direction) from the current graphs,
  /// classifying each candidate through PairSpace::Find, and rewrites
  /// each touched chunk buffer once. The index then equals a fresh Build
  /// of the graphs, provided every stale span is listed.
  void RestageSpans(const DynamicGraph& g1, const DynamicGraph& g2,
                    std::span<const uint32_t> spans);

  const BuildInfo& info() const { return info_; }

  /// Structural invariants of the CSR neighbor index: exactly one entry
  /// layout is populated (per packed_refs()), there is one buffer per
  /// kChunkPairs-pair chunk, each chunk's offsets start at 0, are
  /// monotone and end at exactly its buffer's size (no slack — a torn or
  /// double-written span breaks it), every untagged ref targets a
  /// maintained pair, every tagged ref targets a tracked pruned bound, and
  /// each span is strictly (row, col)-sorted. O(entries); runs
  /// automatically after Build, and after every IncrementalFSim burst,
  /// under FSIM_DEBUG_CHECKS. Bumps ValidatorCounters
  /// "PairStore::ValidateNeighborIndex".
  Status ValidateNeighborIndex() const;

  /// The maintained pairs and their slot function, shared with every
  /// score container built from this store.
  const std::shared_ptr<const PairSpace>& space() const { return space_; }

  /// Moves the final scores out (call after the last SwapBuffers, so prev_
  /// holds the converged values).
  std::vector<double> TakeScores() { return std::move(prev_); }

 private:
  PairStore() = default;

  // check_test.cc corrupts the index through this to prove the validator
  // catches torn spans; nothing else may touch the internals.
  friend struct PairStoreTestAccess;

  /// Which directions' spans the index materializes.
  struct SpanPlan {
    bool use_out = false;
    bool use_in = false;
    bool skip_diagonal = false;  // pinned diagonal pairs left without spans
  };

  /// Materializes the CSR neighbor index, choosing the packed or wide
  /// entry layout, in the reverse-span layout when `reverse_spans` asks for
  /// it; ResourceExhausted when it cannot fit the budget.
  Status BuildNeighborIndex(const Graph& g1, const Graph& g2,
                            const FSimConfig& config, ThreadPool& pool,
                            bool reverse_spans);

  /// Classifies every pair's candidate entries into `chunks`, one
  /// exact-size buffer per kChunkPairs-pair chunk, and fills nbr_offsets_
  /// per plan_; ResourceExhausted when a chunk would pass
  /// kMaxChunkEntries. Ref is NeighborRef or PackedNeighborRef.
  template <typename Ref>
  Status FillNeighborRefs(const Graph& g1, const Graph& g2, ThreadPool& pool,
                        std::vector<std::vector<Ref>>* chunks);

  /// RestageSpans on the populated entry layout.
  template <typename Ref>
  void RestageChunks(const DynamicGraph& g1, const DynamicGraph& g2,
                     std::span<const uint32_t> spans,
                     std::vector<std::vector<Ref>>* chunks);

  /// Entries the index holds across both layouts' chunk buffers.
  uint64_t NumEntries() const;

  /// Entries of span k (k = 2i: pair i's out-direction, 2i + 1: its
  /// in-direction), read from pair i's chunk buffer at its chunk-local
  /// offsets.
  template <typename Ref>
  std::span<const Ref> SpanOf(const std::vector<std::vector<Ref>>& chunks,
                              size_t k) const {
    const size_t chunk = k / (2 * kChunkPairs);
    const Ref* data = chunks[chunk].data();
    return {data + nbr_offsets_[k + chunk], data + nbr_offsets_[k + chunk + 1]};
  }

  std::shared_ptr<const PairSpace> space_;
  std::span<const uint64_t> keys_;  // space_->keys(): u-major, then v
  std::vector<double> prev_;
  std::vector<double> curr_;
  std::vector<float> pruned_ub_;
  BuildInfo info_;

  // Pair-graph CSR neighbor index. Chunk c (pairs [c·K, (c+1)·K),
  // K = kChunkPairs) stores its spans k = 2i (pair i's out-direction) and
  // 2i + 1 (its in-direction) in its own exact-size buffer, span k at
  // [nbr_offsets_[k + c], nbr_offsets_[k + c + 1]): every chunk's offsets
  // are local, starting at 0, so nbr_offsets_ holds 2 * size() + (number
  // of chunks) entries, each at most kMaxChunkEntries. Exactly one of the
  // two chunk lists is populated, per packed_refs_.
  bool packed_refs_ = false;
  bool reverse_spans_ = false;
  SpanPlan plan_;
  std::vector<uint32_t> nbr_offsets_;
  std::vector<std::vector<NeighborRef>> nbr_chunks_;
  std::vector<std::vector<PackedNeighborRef>> nbr_chunks_packed_;
};

}  // namespace fsim

#endif  // FSIM_CORE_PAIR_STORE_H_
