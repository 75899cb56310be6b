// A pair-graph CSR neighbor index that stays valid under single-edge graph
// edits — the incremental engine's counterpart of PairStore's batch index
// (core/pair_store.h).
//
// For every maintained pair i = (u, v) it stores two spans of NeighborRef
// entries: the out-direction span enumerates the label-compatible candidate
// pairs of N+(u) x N+(v), the in-direction span those of N-(u) x N-(v),
// both sorted by (row, col) exactly as the batch index — so
// DirectionScoreIndexed produces bit-identical sums to the batch engines.
//
// Both directions are materialized regardless of the w+/w- weights, because
// each span serves double duty:
//   * evaluation — the direction's Equation 3 inputs;
//   * dependent propagation — the refs of the IN-span of (u, v) are exactly
//     the pairs that read (u, v) through their OUT-direction (x ∈ N-(u),
//     y ∈ N-(v)), and vice versa. The worklist push therefore walks a
//     contiguous ref span instead of hash-probing N±(u) x N±(v).
//
// Edit maintenance: inserting/removing edge (a, b) in graph 1 changes only
// N+(a) and N-(b), so only the out-spans of pairs (a, *) and the in-spans
// of pairs (b, *) are invalid; an edit in graph 2 invalidates the out-spans
// of (*, a) and the in-spans of (*, b). Those spans are re-staged in place
// (O(|N(u)|·|N(v)|) classify work — the same cost as the one evaluation of
// the pair the edit forces anyway). Spans that outgrow their slot relocate
// to the arena tail; freed slots are reclaimed by periodic compaction, so
// arena memory stays within ~2x of the live entries — and within
// FSimConfig::neighbor_index_budget_bytes, which is a ceiling: Build fails
// when the index cannot fit it, and CheckGrowth lets the engine reject an
// edge insert that could grow the live entries past it.
#ifndef FSIM_CORE_INCREMENTAL_INDEX_H_
#define FSIM_CORE_INCREMENTAL_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "core/fsim_config.h"
#include "core/operators.h"
#include "core/pair_space.h"
#include "graph/dynamic_graph.h"

namespace fsim {

/// The lookup context a span (re)build classifies against. The candidate
/// set, labels and θ are fixed under edits; only the graphs' adjacency
/// changes, which is why re-staging the touched spans suffices.
struct NeighborIndexEnv {
  const DynamicGraph& g1;
  const DynamicGraph& g2;
  const PairSpace& pairs;  // the maintained pairs and their slots
};

class IncrementalNeighborIndex {
 public:
  static constexpr int kOut = 0;
  static constexpr int kIn = 1;

  /// Where one direction span lives in the arena.
  struct SpanMeta {
    uint64_t offset = 0;
    uint32_t size = 0;
    uint32_t capacity = 0;
  };

  /// Materializes both direction spans for every pair of env.pairs, in an
  /// arena sized to the live entries. ResourceExhausted — naming the bytes
  /// the index needs and the budget — when the pre-filter bound exceeds
  /// config.neighbor_index_budget_bytes or the ref range would overflow.
  Status Build(const NeighborIndexEnv& env, const FSimConfig& config);

  /// The direction span of pair i; empty for pinned diagonal pairs.
  std::span<const NeighborRef> Refs(size_t pair, int dir) const {
    const SpanMeta& m = spans_[2 * pair + dir];
    return {arena_.data() + m.offset, arena_.data() + m.offset + m.size};
  }

  /// OK when `new_entries` more live entries still fit the budget, else
  /// ResourceExhausted naming the bytes they would need. The engine calls
  /// it with an upper bound on an edit's span growth before touching the
  /// graph, so an over-budget edit is rejected with nothing changed.
  Status CheckGrowth(uint64_t new_entries) const;

  /// Rebuilds the direction span of pair (u, v) from the current graphs.
  /// Call after the graph edit has been applied, for every invalidated
  /// (pair, direction) — see the file comment for which spans an edit
  /// invalidates. When relocation slack pushes the footprint past the
  /// budget, the arena is compacted to its live entries, which CheckGrowth
  /// keeps within the budget.
  void Restage(size_t pair, int dir, NodeId u, NodeId v,
               const NeighborIndexEnv& env);

  /// Heap footprint (arena + span metadata), for FSimStats reporting.
  size_t MemoryBytes() const {
    return arena_.capacity() * sizeof(NeighborRef) +
           spans_.capacity() * sizeof(SpanMeta);
  }

  /// Entries the spans hold (arena slots minus relocation slack).
  uint64_t live_entries() const { return live_; }

  /// Spans re-staged since Build (work accounting for EditStats).
  uint64_t restaged_spans() const { return restaged_spans_; }

  /// Structural invariants of the editable span arena: every span lies
  /// inside the arena with size <= capacity, spans do not overlap, the
  /// slack accounting balances (Σ capacity + freed_ == arena size — a
  /// Restage that leaks or double-frees a slot breaks the equality), every
  /// ref targets a maintained pair, and each span is strictly
  /// (row, col)-sorted, and the span sizes sum to live_entries(). Bumps
  /// ValidatorCounters "IncrementalNeighborIndex::Validate".
  Status Validate(size_t num_pairs) const;

 private:
  // check_test.cc corrupts the span arena through this to prove the
  // validator catches broken slack accounting and overlapping spans.
  friend struct IncrementalNeighborIndexTestAccess;

  /// Appends the entries of one direction of (u, v) to *out: every
  /// (x, y) of s1 x s2 that env.pairs holds, in (row, col) order.
  static void ClassifyInto(std::span<const NodeId> s1,
                           std::span<const NodeId> s2,
                           const NeighborIndexEnv& env,
                           std::vector<NeighborRef>* out);

  /// Rewrites the arena with tight spans in an allocation of exactly the
  /// live entries, dropping freed capacity and relocation slack.
  void Compact();

  bool pin_diagonal_ = false;
  uint64_t budget_bytes_ = 0;
  std::vector<SpanMeta> spans_;  // 2 per pair: [2i] = out, [2i+1] = in
  std::vector<NeighborRef> arena_;
  std::vector<NeighborRef> stage_;  // re-stage scratch
  uint64_t freed_ = 0;              // arena entries no span owns
  uint64_t live_ = 0;               // Σ span sizes
  uint64_t restaged_spans_ = 0;
};

}  // namespace fsim

#endif  // FSIM_CORE_INCREMENTAL_INDEX_H_
