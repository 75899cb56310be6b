#include "core/pair_store.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/grouped_adjacency.h"
#include "core/init_value.h"
#include "core/operators.h"
#include "graph/dynamic_graph.h"
#include "obs/trace.h"

namespace fsim {

namespace {

/// Candidate-ref entry of a pruned pair whose bound is not tracked (α = 0):
/// its score is 0, so the neighbor index omits it. Tagged pruned refs stay
/// below it, since the index build refuses kNeighborRefPrunedTag pruned
/// bounds.
constexpr uint32_t kAbsentRef = ~0u;
/// Pairs per parallel chunk of Stage 3.
constexpr size_t kInitPairGrain = 4096;

/// Stage 2: upper-bound pruning (Eq. 6). Every candidate gets its
/// neighbor-index ref: the maintained slot, a tagged `pruned_ub` slot
/// (tracked when α > 0), or kAbsentRef.
std::vector<uint32_t> PruneRefs(const Graph& g1, const Graph& g2,
                                const FSimConfig& config,
                                const LabelSimilarityCache& lsim,
                                const std::vector<uint64_t>& keys,
                                std::vector<float>* pruned_ub) {
  const OperatorConfig op = config.operators();
  const double label_weight = 1.0 - config.w_out - config.w_in;
  auto compat = [&](NodeId x, NodeId y) {
    return lsim.Compatible(g1.Label(x), g2.Label(y), config.theta);
  };
  std::vector<uint32_t> refs(keys.size());
  uint32_t kept = 0;
  for (size_t id = 0; id < keys.size(); ++id) {
    const NodeId u = PairFirst(keys[id]);
    const NodeId v = PairSecond(keys[id]);
    double bound =
        config.w_out * DirectionUpperBound(op, g1.OutNeighbors(u),
                                           g2.OutNeighbors(v), compat) +
        config.w_in * DirectionUpperBound(op, g1.InNeighbors(u),
                                          g2.InNeighbors(v), compat) +
        label_weight * LabelTermValue(config, lsim, g1.Label(u), g2.Label(v));
    if (bound > config.beta || (config.pin_diagonal && u == v)) {
      refs[id] = kept++;
    } else if (config.alpha > 0.0) {
      refs[id] = kNeighborRefPrunedTag |
                 static_cast<uint32_t>(pruned_ub->size());
      pruned_ub->push_back(static_cast<float>(bound));
    } else {
      refs[id] = kAbsentRef;
    }
  }
  return refs;
}

}  // namespace

Result<PairStore> PairStore::Build(const Graph& g1, const Graph& g2,
                                   const FSimConfig& config,
                                   const LabelSimilarityCache& lsim,
                                   ThreadPool* pool,
                                   const std::vector<bool>* rows,
                                   bool reverse_spans) {
  PairStore store;
  ThreadPool serial_pool(1);
  if (pool == nullptr) pool = &serial_pool;
  {
    // --- Stages 1–2: θ-constrained enumeration (Remark 2) and
    // upper-bound pruning (Eq. 6). ---
    FSIM_TRACE_SPAN("engine.build.enumerate");
    FSIM_ASSIGN_OR_RETURN(PairSpace space,
                          PairSpace::Build(g1, g2, config, lsim, pool, rows));
    store.info_.theta_candidates = space.size();
    if (config.upper_bound) {
      space.Prune(PruneRefs(g1, g2, config, lsim, space.keys(),
                            &store.pruned_ub_));
    }
    store.info_.kept = space.size();
    store.info_.pruned = store.info_.theta_candidates - store.info_.kept;
    store.space_ = std::make_shared<const PairSpace>(std::move(space));
    store.keys_ = store.space_->keys();
  }
  {
    // --- Stage 3: initialization (§3.3). ---
    FSIM_TRACE_SPAN("engine.build.init");
    const size_t n = store.keys_.size();
    store.prev_.resize(n);
    store.curr_.resize(n);
    pool->ParallelForChunked(n, kInitPairGrain,
                             [&](int, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        store.prev_[i] = InitValue(config, lsim, g1, g2,
                                   PairFirst(store.keys_[i]),
                                   PairSecond(store.keys_[i]));
      }
    });
  }

  {
    // --- Stage 4: pair-graph CSR neighbor index (budget ceiling). ---
    FSIM_TRACE_SPAN("engine.build.index");
    FSIM_RETURN_NOT_OK(
        store.BuildNeighborIndex(g1, g2, config, *pool, reverse_spans));
#ifdef FSIM_DEBUG_CHECKS
    const Status valid = store.ValidateNeighborIndex();
    FSIM_CHECK(valid.ok()) << valid.ToString();
#endif
  }
  return store;
}

uint64_t PairStore::NumEntries() const {
  uint64_t entries = 0;
  for (const std::vector<NeighborRef>& chunk : nbr_chunks_) {
    entries += chunk.size();
  }
  for (const std::vector<PackedNeighborRef>& chunk : nbr_chunks_packed_) {
    entries += chunk.size();
  }
  return entries;
}

size_t PairStore::NeighborIndexBytes() const {
  const size_t entry_bytes =
      packed_refs_ ? sizeof(PackedNeighborRef) : sizeof(NeighborRef);
  return nbr_offsets_.size() * sizeof(uint32_t) +
         static_cast<size_t>(NumEntries()) * entry_bytes;
}

Status PairStore::ValidateNeighborIndex() const {
  ValidatorCounters::Bump("PairStore::ValidateNeighborIndex");
  const size_t n = keys_.size();
  const size_t num_chunks = (n + kChunkPairs - 1) / kChunkPairs;
  if (nbr_offsets_.size() != 2 * n + num_chunks) {
    return Status::Internal(StrFormat(
        "neighbor index has %zu offsets for %zu pairs (want %zu)",
        nbr_offsets_.size(), n, 2 * n + num_chunks));
  }
  // Exactly one entry layout may be populated, with one buffer per chunk,
  // and each buffer must hold exactly its chunk-local offsets range (the
  // index is kept tight — any slack means a torn or double-written span).
  const size_t other_chunks =
      packed_refs_ ? nbr_chunks_.size() : nbr_chunks_packed_.size();
  if (other_chunks != 0) {
    return Status::Internal("both neighbor-ref layouts are populated");
  }
  const size_t chunk_count =
      packed_refs_ ? nbr_chunks_packed_.size() : nbr_chunks_.size();
  if (chunk_count != num_chunks) {
    return Status::Internal(StrFormat(
        "neighbor index has %zu chunk buffers for %zu pairs (want %zu)",
        chunk_count, n, num_chunks));
  }
  for (size_t c = 0; c < num_chunks; ++c) {
    const size_t first = 2 * c * kChunkPairs + c;
    const size_t last = 2 * std::min((c + 1) * kChunkPairs, n) + c;
    if (nbr_offsets_[first] != 0) {
      return Status::Internal(
          StrFormat("neighbor index chunk %zu offsets do not start at 0", c));
    }
    for (size_t p = first + 1; p <= last; ++p) {
      if (nbr_offsets_[p] < nbr_offsets_[p - 1]) {
        return Status::Internal(StrFormat(
            "neighbor index offsets regress at span %zu", p - c - 1));
      }
    }
    const size_t held = packed_refs_ ? nbr_chunks_packed_[c].size()
                                     : nbr_chunks_[c].size();
    if (held != nbr_offsets_[last]) {
      return Status::Internal(StrFormat(
          "neighbor index chunk %zu slack: its offsets span %llu entries but "
          "its buffer holds %zu",
          c, static_cast<unsigned long long>(nbr_offsets_[last]), held));
    }
  }
  // Per-entry checks, shared between the two layouts.
  auto check_span = [&](auto refs, size_t span) -> Status {
    uint64_t prev_key = 0;
    bool first = true;
    for (const auto& entry : refs) {
      if (IsPrunedRef(entry.ref)) {
        const uint32_t p = entry.ref & ~kNeighborRefPrunedTag;
        if (p >= pruned_ub_.size()) {
          return Status::Internal(StrFormat(
              "span %zu: tagged ref %u outside the pruned table (%zu bounds)",
              span, p, pruned_ub_.size()));
        }
      } else if (entry.ref >= n) {
        return Status::Internal(StrFormat(
            "span %zu: ref %u outside the maintained pairs (%zu)", span,
            entry.ref, n));
      }
      const uint64_t key = (static_cast<uint64_t>(entry.row) << 32) |
                           static_cast<uint64_t>(entry.col);
      if (!first && key <= prev_key) {
        return Status::Internal(StrFormat(
            "span %zu: entries not strictly (row, col)-sorted", span));
      }
      prev_key = key;
      first = false;
    }
    return Status::OK();
  };
  for (size_t i = 0; i < n; ++i) {
    for (int dir = 0; dir < 2; ++dir) {
      const size_t span = 2 * i + static_cast<size_t>(dir);
      Status st = packed_refs_
                      ? check_span(dir == 0 ? OutRefsPacked(i) : InRefsPacked(i),
                                   span)
                      : check_span(dir == 0 ? OutRefs(i) : InRefs(i), span);
      if (!st.ok()) return st;
    }
  }
  return Status::OK();
}

Status PairStore::BuildNeighborIndex(const Graph& g1, const Graph& g2,
                                     const FSimConfig& config,
                                     ThreadPool& pool, bool reverse_spans) {
  const size_t n = keys_.size();
  // The pruned-ref tag bit halves the addressable range of a ref.
  if (n >= kNeighborRefPrunedTag || pruned_ub_.size() >= kNeighborRefPrunedTag) {
    return Status::ResourceExhausted(StrFormat(
        "neighbor index refs overflow: %zu maintained and %zu pruned pairs, "
        "but a ref addresses at most %u",
        n, pruned_ub_.size(), kNeighborRefPrunedTag - 1));
  }

  // In the reverse-span layout a direction's span is also materialized
  // when only the *opposite* weight is nonzero (it is then never evaluated
  // but serves as the reverse-dependency list for frontier marking), and
  // pinned diagonal spans are kept so their first-sweep init -> 1 snap can
  // notify dependents. See the OutRefs comment in the header.
  auto plan_for = [&](bool widened) {
    return SpanPlan{config.w_out > 0.0 || (widened && config.w_in > 0.0),
                    config.w_in > 0.0 || (widened && config.w_out > 0.0),
                    config.pin_diagonal && !widened};
  };
  // Entry layout: the packed 8-byte NeighborRef when every row/col fits in
  // 16 bits; positions inside a neighbor list run 0..deg-1, so a direction
  // packs while its max degree is <= kPackedDegreeLimit. The 12-byte
  // layout otherwise.
  auto packed_for = [&](const SpanPlan& p) {
    return (!p.use_out || (g1.MaxOutDegree() <= kPackedDegreeLimit &&
                           g2.MaxOutDegree() <= kPackedDegreeLimit)) &&
           (!p.use_in || (g1.MaxInDegree() <= kPackedDegreeLimit &&
                          g2.MaxInDegree() <= kPackedDegreeLimit));
  };
  // The pre-filter upper bound Σ |N±(u)|·|N±(v)| (compatibility filtering
  // only shrinks it, so fitting the bound guarantees fitting the index).
  auto max_entries_for = [&](const SpanPlan& p) {
    uint64_t max_entries = 0;
    for (uint64_t key : keys_) {
      const NodeId u = PairFirst(key);
      const NodeId v = PairSecond(key);
      if (p.skip_diagonal && u == v) continue;
      if (p.use_out) {
        max_entries +=
            static_cast<uint64_t>(g1.OutDegree(u)) * g2.OutDegree(v);
      }
      if (p.use_in) {
        max_entries += static_cast<uint64_t>(g1.InDegree(u)) * g2.InDegree(v);
      }
    }
    return max_entries;
  };
  const uint64_t offsets_bytes =
      (2 * n + (n + kChunkPairs - 1) / kChunkPairs) * sizeof(uint32_t);
  auto entry_bytes_for = [&](const SpanPlan& p) {
    return packed_for(p) ? sizeof(PackedNeighborRef) : sizeof(NeighborRef);
  };
  auto bound_bytes = [&](const SpanPlan& p, uint64_t max_entries) {
    return max_entries * entry_bytes_for(p) + offsets_bytes;
  };
  auto fits = [&](const SpanPlan& p, uint64_t max_entries) {
    return bound_bytes(p, max_entries) <= config.neighbor_index_budget_bytes;
  };

  // Build the widened layout when asked; if only the widening blows the
  // budget (single-direction configs double their entry count), fall back
  // to the evaluation-only index — the driver then runs full sweeps
  // (reverse_spans() false) instead of the build failing.
  SpanPlan plan = plan_for(reverse_spans);
  uint64_t max_entries = max_entries_for(plan);
  if (reverse_spans && !fits(plan, max_entries)) {
    info_.reverse_span_bytes = bound_bytes(plan, max_entries);
    reverse_spans = false;
    plan = plan_for(false);
    max_entries = max_entries_for(plan);
  }
  if (!fits(plan, max_entries)) {
    return Status::ResourceExhausted(StrFormat(
        "neighbor index needs up to %llu bytes (%llu candidate entries of "
        "%zu bytes + %llu offset bytes), over neighbor_index_budget_bytes "
        "%llu",
        static_cast<unsigned long long>(bound_bytes(plan, max_entries)),
        static_cast<unsigned long long>(max_entries), entry_bytes_for(plan),
        static_cast<unsigned long long>(offsets_bytes),
        static_cast<unsigned long long>(config.neighbor_index_budget_bytes)));
  }
  plan_ = plan;
  packed_refs_ = packed_for(plan);
  reverse_spans_ = reverse_spans;
  if (packed_refs_) {
    return FillNeighborRefs(g1, g2, pool, &nbr_chunks_packed_);
  }
  return FillNeighborRefs(g1, g2, pool, &nbr_chunks_);
}

template <typename Ref>
Status PairStore::FillNeighborRefs(const Graph& g1, const Graph& g2,
                                 ThreadPool& pool,
                                 std::vector<std::vector<Ref>>* chunks) {
  const PairSpace& space = *space_;
  const size_t n = keys_.size();
  const SpanPlan plan = plan_;
  // g2's neighbor lists grouped by label class, so a row visits only the
  // class runs its label is compatible with. At θ <= 0 every run is.
  const bool by_class = !space.all_compatible();
  const GroupedAdjacency out2 =
      plan.use_out && by_class ? GroupedAdjacency::Build(g2, /*out=*/true)
                               : GroupedAdjacency();
  const GroupedAdjacency in2 =
      plan.use_in && by_class ? GroupedAdjacency::Build(g2, /*out=*/false)
                              : GroupedAdjacency();

  using PosT = decltype(Ref::row);
  // Appends the entries of one direction's N±(u) x N±(v) to `buf` and
  // returns how many there were: for each row r (x = s1[r]) the
  // label-compatible y of s2 in ascending column order, each with its
  // score source — the maintained slot, or a tagged pruned-bound index
  // whose score is α * bound. Pruned untracked pairs (score 0) are
  // omitted; zero never contributes to any operator. `column_blocks` is
  // scratch for merging several label runs.
  auto classify_direction = [&](std::span<const NodeId> s1,
                                std::span<const NodeId> s2,
                                const GroupedAdjacency& adjacency, NodeId v,
                                std::vector<uint32_t>* column_blocks,
                                std::vector<Ref>* buf) -> uint64_t {
    const size_t before = buf->size();
    // A row left unfilled (Build's `rows`) holds no candidates: the ids
    // computed from its RowBegin would be the next filled row's.
    auto unfilled = [&](NodeId x, uint64_t row_begin) {
      return row_begin == space.RowBegin(x + 1);
    };
    auto emit = [&](uint32_t r, uint32_t c, uint64_t id) {
      const uint32_t ref = space.RefOf(id);
      if (ref == kAbsentRef) return;
      // The packed layout was selected on a degree bound; a position
      // overflowing PosT would wrap silently and corrupt the span.
      FSIM_DCHECK(r <= std::numeric_limits<PosT>::max());
      FSIM_DCHECK(c <= std::numeric_limits<PosT>::max());
      buf->push_back(Ref{static_cast<PosT>(r), static_cast<PosT>(c), ref});
    };
    if (space.all_compatible()) {
      for (uint32_t r = 0; r < s1.size(); ++r) {
        const uint64_t row_begin = space.RowBegin(s1[r]);
        if (unfilled(s1[r], row_begin)) continue;
        for (uint32_t c = 0; c < s2.size(); ++c) {
          emit(r, c, row_begin + s2[c]);
        }
      }
      return buf->size() - before;
    }
    const GroupedNeighborhood grouped = adjacency.Neighborhood(v);
    for (uint32_t r = 0; r < s1.size(); ++r) {
      const NodeId x = s1[r];
      const uint64_t row_begin = space.RowBegin(x);
      if (unfilled(x, row_begin)) continue;
      auto emit_ranked = [&](uint32_t c, NodeId y, uint32_t block) {
        emit(r, c, row_begin + space.Rank(block, y));
      };
      const PairSpace::Compatible compatible =
          space.CompatibleWith(g1.Label(x));
      const ClassGroup* match = nullptr;
      uint32_t match_block = PairSpace::kIncompatible;
      size_t matches = 0;
      for (const ClassGroup& run : grouped.groups) {
        const uint32_t block = compatible.Block(run.label);
        if (block == PairSpace::kIncompatible) continue;
        match = &run;
        match_block = block;
        if (++matches > 1) break;
      }
      if (matches == 1) {
        // One compatible run: its nodes are already in column order.
        for (uint32_t k = match->begin; k < match->end; ++k) {
          emit_ranked(grouped.pos[k], grouped.nodes[k], match_block);
        }
      } else if (matches > 1) {
        // Several runs: record each compatible column's rank base, then
        // walk the columns in ascending order to merge the runs.
        column_blocks->assign(s2.size(), PairSpace::kIncompatible);
        for (const ClassGroup& run : grouped.groups) {
          const uint32_t block = compatible.Block(run.label);
          if (block == PairSpace::kIncompatible) continue;
          for (uint32_t k = run.begin; k < run.end; ++k) {
            (*column_blocks)[grouped.pos[k]] = block;
          }
        }
        for (uint32_t c = 0; c < s2.size(); ++c) {
          const uint32_t block = (*column_blocks)[c];
          if (block != PairSpace::kIncompatible) {
            emit_ranked(c, s2[c], block);
          }
        }
      }
    }
    return buf->size() - before;
  };

  // One classification pass over the compatible part of N±(u) x N±(v)
  // per pair. Each chunk is classified into its worker's reused scratch
  // vector, recording its chunk-local span offsets, and copied into its
  // own buffer at exact size; that buffer is the index.
  const size_t num_chunks = (n + kChunkPairs - 1) / kChunkPairs;
  nbr_offsets_.assign(2 * n + num_chunks, 0);
  chunks->assign(num_chunks, std::vector<Ref>());
  // One cache line per worker: the push_backs would otherwise false-share
  // the neighboring workers' vector headers.
  struct alignas(64) WorkerScratch {
    std::vector<Ref> entries;
    std::vector<uint32_t> column_blocks;
  };
  std::vector<WorkerScratch> scratch(static_cast<size_t>(pool.num_threads()));
  // ordering: relaxed — read only after the region has joined.
  std::atomic<bool> overflow{false};
  pool.ParallelForChunked(num_chunks, 1,
                         [&](int worker, size_t begin, size_t end) {
    WorkerScratch& mine = scratch[static_cast<size_t>(worker)];
    std::vector<Ref>& buf = mine.entries;
    for (size_t chunk = begin; chunk < end; ++chunk) {
      buf.clear();
      const size_t last = std::min(n, (chunk + 1) * kChunkPairs);
      // offsets[2j + 1] and offsets[2j + 2] end pair (chunk·K + j)'s spans.
      uint32_t* offsets = &nbr_offsets_[2 * chunk * kChunkPairs + chunk];
      for (size_t i = chunk * kChunkPairs; i < last; ++i) {
        const size_t j = i - chunk * kChunkPairs;
        const NodeId u = PairFirst(keys_[i]);
        const NodeId v = PairSecond(keys_[i]);
        if (!(plan.skip_diagonal && u == v)) {
          if (plan.use_out) {
            classify_direction(g1.OutNeighbors(u), g2.OutNeighbors(v), out2,
                               v, &mine.column_blocks, &buf);
          }
          offsets[2 * j + 1] = static_cast<uint32_t>(buf.size());
          if (plan.use_in) {
            classify_direction(g1.InNeighbors(u), g2.InNeighbors(v), in2, v,
                               &mine.column_blocks, &buf);
          }
        } else {
          offsets[2 * j + 1] = static_cast<uint32_t>(buf.size());
        }
        offsets[2 * j + 2] = static_cast<uint32_t>(buf.size());
        if (buf.size() > kMaxChunkEntries) {
          overflow.store(true, std::memory_order_relaxed);
          break;
        }
      }
      (*chunks)[chunk].assign(buf.begin(), buf.end());
    }
  });
  if (overflow.load(std::memory_order_relaxed)) {
    return Status::ResourceExhausted(StrFormat(
        "a neighbor index chunk would hold more than %llu entries, the most "
        "its 32-bit offsets address",
        static_cast<unsigned long long>(kMaxChunkEntries)));
  }
  return Status::OK();
}

namespace {

/// Appends the entries of one direction of a pair to `*out`: every (x, y)
/// of s1 x s2 that `space` holds, in (row, col) order, with its slot. The
/// edit-time counterpart of the build's label-run walk; the two agree on
/// an unpruned space, where the candidate id's ref is the slot.
template <typename Ref>
void ClassifyInto(std::span<const NodeId> s1, std::span<const NodeId> s2,
                  const PairSpace& space, std::vector<Ref>* out) {
  using PosT = decltype(Ref::row);
  for (uint32_t r = 0; r < s1.size(); ++r) {
    for (uint32_t c = 0; c < s2.size(); ++c) {
      const uint32_t slot = space.Find(s1[r], s2[c]);
      if (slot == PairSpace::kNotFound) continue;
      FSIM_DCHECK(r <= std::numeric_limits<PosT>::max());
      FSIM_DCHECK(c <= std::numeric_limits<PosT>::max());
      out->push_back(Ref{static_cast<PosT>(r), static_cast<PosT>(c), slot});
    }
  }
}

}  // namespace

Status PairStore::ReserveInsert(uint64_t new_entries, size_t out_degree,
                                size_t in_degree, uint64_t budget_bytes) {
  const bool widen =
      packed_refs_ && ((plan_.use_out && out_degree > kPackedDegreeLimit) ||
                       (plan_.use_in && in_degree > kPackedDegreeLimit));
  const size_t entry_bytes = packed_refs_ && !widen ? sizeof(PackedNeighborRef)
                                                    : sizeof(NeighborRef);
  // The new entries may all land in one chunk.
  uint64_t largest_chunk = 0;
  for (const auto& chunk : nbr_chunks_) {
    largest_chunk = std::max<uint64_t>(largest_chunk, chunk.size());
  }
  for (const auto& chunk : nbr_chunks_packed_) {
    largest_chunk = std::max<uint64_t>(largest_chunk, chunk.size());
  }
  if (new_entries > kMaxChunkEntries - largest_chunk) {
    return Status::ResourceExhausted(StrFormat(
        "edit could grow a neighbor index chunk of %llu entries by %llu, "
        "past the %llu its 32-bit offsets address",
        static_cast<unsigned long long>(largest_chunk),
        static_cast<unsigned long long>(new_entries),
        static_cast<unsigned long long>(kMaxChunkEntries)));
  }
  const uint64_t entries = NumEntries();
  const uint64_t offsets_bytes = nbr_offsets_.size() * sizeof(uint32_t);
  const uint64_t needed = (entries + new_entries) * entry_bytes + offsets_bytes;
  if (needed > budget_bytes) {
    return Status::ResourceExhausted(StrFormat(
        "edit could grow the neighbor index to %llu bytes (%llu live + %llu "
        "new entries of %zu bytes + %llu offset bytes), over "
        "neighbor_index_budget_bytes %llu",
        static_cast<unsigned long long>(needed),
        static_cast<unsigned long long>(entries),
        static_cast<unsigned long long>(new_entries), entry_bytes,
        static_cast<unsigned long long>(offsets_bytes),
        static_cast<unsigned long long>(budget_bytes)));
  }
  if (widen) {
    nbr_chunks_.resize(nbr_chunks_packed_.size());
    for (size_t c = 0; c < nbr_chunks_packed_.size(); ++c) {
      nbr_chunks_[c].reserve(nbr_chunks_packed_[c].size());
      for (const PackedNeighborRef& e : nbr_chunks_packed_[c]) {
        nbr_chunks_[c].push_back(NeighborRef{e.row, e.col, e.ref});
      }
    }
    nbr_chunks_packed_ = {};
    packed_refs_ = false;
  }
  return Status::OK();
}

void PairStore::RestageSpans(const DynamicGraph& g1, const DynamicGraph& g2,
                             std::span<const uint32_t> spans) {
  FSIM_DCHECK(info_.pruned == 0);
  if (packed_refs_) {
    RestageChunks(g1, g2, spans, &nbr_chunks_packed_);
  } else {
    RestageChunks(g1, g2, spans, &nbr_chunks_);
  }
}

template <typename Ref>
void PairStore::RestageChunks(const DynamicGraph& g1, const DynamicGraph& g2,
                              std::span<const uint32_t> spans,
                              std::vector<std::vector<Ref>>* chunks) {
  const size_t n = keys_.size();
  auto classify = [&](size_t k, std::vector<Ref>* out) {
    const NodeId u = U(k / 2);
    const NodeId v = V(k / 2);
    if (plan_.skip_diagonal && u == v) return;
    if (k % 2 == 0) {
      if (plan_.use_out) {
        ClassifyInto(g1.OutNeighbors(u), g2.OutNeighbors(v), *space_, out);
      }
    } else if (plan_.use_in) {
      ClassifyInto(g1.InNeighbors(u), g2.InNeighbors(v), *space_, out);
    }
  };
  std::vector<Ref> fresh;          // the chunk's listed spans, re-staged
  std::vector<size_t> fresh_ends;  // end of each listed span in `fresh`
  std::vector<Ref> region;         // the rebuilt region's new entries
  size_t s = 0;
  while (s < spans.size()) {
    const size_t chunk = spans[s] / (2 * kChunkPairs);
    const size_t first_span = 2 * chunk * kChunkPairs;
    const size_t num_spans =
        2 * std::min(n, (chunk + 1) * kChunkPairs) - first_span;
    uint32_t* offsets = &nbr_offsets_[first_span + chunk];
    std::vector<Ref>& buf = (*chunks)[chunk];
    const auto at = [&](uint32_t offset) {
      return buf.begin() + static_cast<std::ptrdiff_t>(offset);
    };
    const size_t listed = s;
    fresh.clear();
    fresh_ends.clear();
    size_t first_resized = SIZE_MAX;
    size_t last_resized = SIZE_MAX;
    for (; s < spans.size() && spans[s] < first_span + num_spans; ++s) {
      const size_t j = spans[s] - first_span;
      const size_t begin = fresh.size();
      classify(spans[s], &fresh);
      fresh_ends.push_back(fresh.size());
      if (fresh.size() - begin != offsets[j + 1] - offsets[j]) {
        if (first_resized == SIZE_MAX) first_resized = s;
        last_resized = s;
      }
    }
    auto fresh_span = [&](size_t q) {
      const size_t end = fresh_ends[q - listed];
      const size_t begin = q == listed ? 0 : fresh_ends[q - listed - 1];
      return std::span<const Ref>(fresh.data() + begin, end - begin);
    };
    // The region from the first to the last resized span is rebuilt, and
    // the entries after it move once, by its net size change; listed
    // spans outside it keep their size and are overwritten in place.
    if (first_resized != SIZE_MAX) {
      const size_t j1 = spans[first_resized] - first_span;
      const size_t j2 = spans[last_resized] - first_span;
      // ReserveInsert admitted the growth, so every offset fits 32 bits.
      const uint32_t region_begin = offsets[j1];
      const uint32_t old_region_end = offsets[j2 + 1];
      region.clear();
      uint32_t old_begin = region_begin;
      for (size_t j = j1, q = first_resized; j <= j2; ++j) {
        const uint32_t old_end = offsets[j + 1];
        if (q <= last_resized && spans[q] - first_span == j) {
          const std::span<const Ref> entries = fresh_span(q++);
          region.insert(region.end(), entries.begin(), entries.end());
        } else {
          region.insert(region.end(), at(old_begin), at(old_end));
        }
        offsets[j + 1] = static_cast<uint32_t>(region_begin + region.size());
        old_begin = old_end;
      }
      const uint32_t new_region_end = offsets[j2 + 1];
      if (new_region_end > old_region_end) {
        buf.insert(at(old_region_end), new_region_end - old_region_end,
                   Ref{});
      } else {
        buf.erase(at(new_region_end), at(old_region_end));
      }
      std::copy(region.begin(), region.end(), at(region_begin));
      for (size_t j = j2 + 1; j < num_spans; ++j) {
        offsets[j + 1] = offsets[j + 1] - old_region_end + new_region_end;
      }
    }
    for (size_t q = listed; q < s; ++q) {
      if (first_resized != SIZE_MAX && q >= first_resized &&
          q <= last_resized) {
        continue;
      }
      const std::span<const Ref> entries = fresh_span(q);
      std::copy(entries.begin(), entries.end(),
                at(offsets[spans[q] - first_span]));
    }
  }
}

void FrontierTracker::Init(size_t num_pairs, int num_workers) {
  const size_t words = (num_pairs + 63) / 64;
  epoch_ = 0;
  stamps_.assign(static_cast<size_t>(num_workers),
                 std::vector<uint32_t>(num_pairs, 0));
  influence_.assign(static_cast<size_t>(num_workers),
                    std::vector<float>(num_pairs, 0.0f));
  marked_.assign(static_cast<size_t>(num_workers),
                 std::vector<uint64_t>(words, 0));
  marked_union_.assign(words, 0);
  carry_.assign(num_pairs, 0.0);
}

void FrontierTracker::BuildNext(ThreadPool& pool, double tolerance,
                                bool previous_sweep_was_full,
                                std::vector<uint32_t>* frontier) {
  // Scans the marked-bit words in chunks of 4096 pairs: coarse enough
  // that the two-pass offsets stay tiny, fine enough to balance across
  // workers.
  const size_t n = marked_union_.size();
  constexpr size_t kGrain = 4096 / 64;
  const size_t num_chunks = (n + kGrain - 1) / kGrain;
  chunk_offsets_.assign(num_chunks + 1, 0);
  const uint32_t epoch = epoch_;
  const size_t workers = stamps_.size();
  // A full sweep evaluated every pair, absorbing all carried influence.
  if (previous_sweep_was_full) {
    std::fill(carry_.begin(), carry_.end(), 0.0);
  }

  // Pass 1: per-chunk counts. The marked pairs' per-worker influence sums
  // collapse into the cross-iteration carry_ accumulator (unmarked pairs
  // keep a carry at or below the tolerance, as every larger one was
  // reset). Chunks partition the pairs, so writes are race-free.
  pool.ParallelForChunked(n, kGrain, [&](int, size_t begin, size_t end) {
    uint32_t count = 0;
    for (size_t word = begin; word < end; ++word) {
      uint64_t bits = 0;
      for (size_t w = 0; w < workers; ++w) {
        bits |= marked_[w][word];
        marked_[w][word] = 0;
      }
      marked_union_[word] = bits;
      for (; bits != 0; bits &= bits - 1) {
        const size_t j = word * 64 + std::countr_zero(bits);
        double sum = carry_[j];
        for (size_t w = 0; w < workers; ++w) {
          if (stamps_[w][j] == epoch) sum += influence_[w][j];
        }
        carry_[j] = sum;
        if (sum > tolerance) ++count;
      }
    }
    chunk_offsets_[begin / kGrain + 1] = count;
  });
  for (size_t c = 1; c <= num_chunks; ++c) {
    chunk_offsets_[c] += chunk_offsets_[c - 1];
  }

  // Pass 2: fill each chunk's slice; evaluated pairs reset their carried
  // influence (their next evaluation starts from a clean slate).
  frontier->resize(num_chunks == 0 ? 0 : chunk_offsets_[num_chunks]);
  pool.ParallelForChunked(n, kGrain, [&](int, size_t begin, size_t end) {
    uint32_t pos = chunk_offsets_[begin / kGrain];
    for (size_t word = begin; word < end; ++word) {
      for (uint64_t bits = marked_union_[word]; bits != 0; bits &= bits - 1) {
        const size_t j = word * 64 + std::countr_zero(bits);
        if (carry_[j] > tolerance) {
          (*frontier)[pos++] = static_cast<uint32_t>(j);
          carry_[j] = 0.0;
        }
      }
    }
  });
}

}  // namespace fsim
