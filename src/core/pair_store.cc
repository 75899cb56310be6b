#include "core/pair_store.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/init_value.h"
#include "core/operators.h"

namespace fsim {

namespace {

/// Groups node ids by label id.
std::vector<std::vector<NodeId>> NodesByLabel(const Graph& g,
                                              size_t dict_size) {
  std::vector<std::vector<NodeId>> groups(dict_size);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    groups[g.Label(u)].push_back(u);
  }
  return groups;
}

}  // namespace

Result<PairStore> PairStore::Build(const Graph& g1, const Graph& g2,
                                   const FSimConfig& config,
                                   const LabelSimilarityCache& lsim,
                                   bool build_neighbor_index,
                                   ThreadPool* pool) {
  PairStore store;
  const size_t n1 = g1.NumNodes();
  const size_t n2 = g2.NumNodes();

  // --- Stage 1: θ-constrained candidate enumeration (Remark 2). ---
  if (config.theta <= 0.0) {
    const uint64_t total = static_cast<uint64_t>(n1) * n2;
    if (total > config.pair_limit) {
      return Status::InvalidArgument(StrFormat(
          "candidate pairs %llu exceed pair_limit %llu (theta=0 enumerates "
          "|V1|x|V2|)",
          static_cast<unsigned long long>(total),
          static_cast<unsigned long long>(config.pair_limit)));
    }
    store.keys_.reserve(total);
    for (NodeId u = 0; u < n1; ++u) {
      for (NodeId v = 0; v < n2; ++v) {
        store.keys_.push_back(PairKey(u, v));
      }
    }
  } else {
    const size_t dict_size = g1.dict()->size();
    auto groups1 = NodesByLabel(g1, dict_size);
    auto groups2 = NodesByLabel(g2, dict_size);
    // Count first so the reserve is exact and the limit check is cheap.
    uint64_t total = 0;
    for (LabelId a = 0; a < dict_size; ++a) {
      if (groups1[a].empty()) continue;
      for (LabelId b = 0; b < dict_size; ++b) {
        if (groups2[b].empty()) continue;
        if (lsim.Compatible(a, b, config.theta)) {
          total += static_cast<uint64_t>(groups1[a].size()) *
                   groups2[b].size();
        }
      }
    }
    if (total > config.pair_limit) {
      return Status::InvalidArgument(StrFormat(
          "candidate pairs %llu exceed pair_limit %llu",
          static_cast<unsigned long long>(total),
          static_cast<unsigned long long>(config.pair_limit)));
    }
    store.keys_.reserve(total);
    for (LabelId a = 0; a < dict_size; ++a) {
      if (groups1[a].empty()) continue;
      for (LabelId b = 0; b < dict_size; ++b) {
        if (groups2[b].empty()) continue;
        if (!lsim.Compatible(a, b, config.theta)) continue;
        for (NodeId u : groups1[a]) {
          for (NodeId v : groups2[b]) {
            store.keys_.push_back(PairKey(u, v));
          }
        }
      }
    }
  }
  store.info_.theta_candidates = store.keys_.size();

  // --- Stage 2: upper-bound pruning (Eq. 6). ---
  // Tracked pruned pairs -> pruned_ub_ slot; the index build tags refs
  // into it, nothing reads it afterwards.
  FlatPairMap pruned_index;
  if (config.upper_bound) {
    const OperatorConfig op = config.operators();
    const double label_weight = 1.0 - config.w_out - config.w_in;
    auto compat = [&](NodeId x, NodeId y) {
      return lsim.Compatible(g1.Label(x), g2.Label(y), config.theta);
    };
    std::vector<uint64_t> kept;
    kept.reserve(store.keys_.size());
    const bool track_pruned = config.alpha > 0.0;
    for (uint64_t key : store.keys_) {
      const NodeId u = PairFirst(key);
      const NodeId v = PairSecond(key);
      double bound =
          config.w_out * DirectionUpperBound(op, g1.OutNeighbors(u),
                                             g2.OutNeighbors(v), compat) +
          config.w_in * DirectionUpperBound(op, g1.InNeighbors(u),
                                            g2.InNeighbors(v), compat) +
          label_weight *
              LabelTermValue(config, lsim, g1.Label(u), g2.Label(v));
      const bool keep = bound > config.beta ||
                        (config.pin_diagonal && u == v);
      if (keep) {
        kept.push_back(key);
      } else if (track_pruned) {
        pruned_index.Insert(key,
                            static_cast<uint32_t>(store.pruned_ub_.size()));
        store.pruned_ub_.push_back(static_cast<float>(bound));
      }
    }
    store.info_.pruned = store.keys_.size() - kept.size();
    store.keys_ = std::move(kept);
  }
  store.info_.kept = store.keys_.size();

  // --- Stage 3: index + initialization (§3.3). ---
  std::sort(store.keys_.begin(), store.keys_.end());
  store.index_ = FlatPairMap(store.keys_.size());
  store.prev_.resize(store.keys_.size());
  store.curr_.resize(store.keys_.size());
  for (size_t i = 0; i < store.keys_.size(); ++i) {
    store.index_.Insert(store.keys_[i], static_cast<uint32_t>(i));
    store.prev_[i] = InitValue(config, lsim, g1, g2, PairFirst(store.keys_[i]),
                               PairSecond(store.keys_[i]));
  }

  // --- Stage 4: pair-graph CSR neighbor index (budget ceiling). ---
  if (build_neighbor_index) {
    FSIM_RETURN_NOT_OK(
        store.BuildNeighborIndex(g1, g2, config, lsim, pruned_index, pool));
#ifdef FSIM_DEBUG_CHECKS
    const Status valid = store.ValidateNeighborIndex();
    FSIM_CHECK(valid.ok()) << valid.ToString();
#endif
  }
  return store;
}

size_t PairStore::NeighborIndexBytes() const {
  size_t bytes = nbr_offsets_.capacity() * sizeof(uint64_t);
  for (const std::vector<NeighborRef>& chunk : nbr_chunks_) {
    bytes += chunk.capacity() * sizeof(NeighborRef);
  }
  for (const std::vector<PackedNeighborRef>& chunk : nbr_chunks_packed_) {
    bytes += chunk.capacity() * sizeof(PackedNeighborRef);
  }
  return bytes;
}

Status PairStore::ValidateNeighborIndex() const {
  ValidatorCounters::Bump("PairStore::ValidateNeighborIndex");
  const size_t n = keys_.size();
  if (nbr_offsets_.size() != 2 * n + 1) {
    return Status::Internal(StrFormat(
        "neighbor index has %zu offsets for %zu pairs (want %zu)",
        nbr_offsets_.size(), n, 2 * n + 1));
  }
  if (nbr_offsets_.front() != 0) {
    return Status::Internal("neighbor index offsets do not start at 0");
  }
  for (size_t k = 1; k < nbr_offsets_.size(); ++k) {
    if (nbr_offsets_[k] < nbr_offsets_[k - 1]) {
      return Status::Internal(
          StrFormat("neighbor index offsets regress at span %zu", k));
    }
  }
  // Exactly one entry layout may be populated, with one buffer per chunk,
  // and each buffer must hold exactly its pairs' offsets range (the batch
  // build is tight — any slack means a torn or double-written span).
  const size_t other_chunks =
      packed_refs_ ? nbr_chunks_.size() : nbr_chunks_packed_.size();
  if (other_chunks != 0) {
    return Status::Internal("both neighbor-ref layouts are populated");
  }
  const size_t num_chunks = (n + kChunkPairs - 1) / kChunkPairs;
  const size_t chunk_count =
      packed_refs_ ? nbr_chunks_packed_.size() : nbr_chunks_.size();
  if (chunk_count != num_chunks) {
    return Status::Internal(StrFormat(
        "neighbor index has %zu chunk buffers for %zu pairs (want %zu)",
        chunk_count, n, num_chunks));
  }
  for (size_t c = 0; c < num_chunks; ++c) {
    const uint64_t range =
        nbr_offsets_[2 * std::min((c + 1) * kChunkPairs, n)] -
        nbr_offsets_[2 * c * kChunkPairs];
    const size_t held = packed_refs_ ? nbr_chunks_packed_[c].size()
                                     : nbr_chunks_[c].size();
    if (held != range) {
      return Status::Internal(StrFormat(
          "neighbor index chunk %zu slack: its offsets span %llu entries but "
          "its buffer holds %zu",
          c, static_cast<unsigned long long>(range), held));
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
                                     const LabelSimilarityCache& lsim,
                                     const FlatPairMap& pruned_index,
                                     ThreadPool* pool) {
  const size_t n = keys_.size();
  // The pruned-ref tag bit halves the addressable range of a ref.
  if (n >= kNeighborRefPrunedTag || pruned_ub_.size() >= kNeighborRefPrunedTag) {
    return Status::ResourceExhausted(StrFormat(
        "neighbor index refs overflow: %zu maintained and %zu pruned pairs, "
        "but a ref addresses at most %u",
        n, pruned_ub_.size(), kNeighborRefPrunedTag - 1));
  }

  // With the active set engaged, a direction's span is also materialized
  // when only the *opposite* weight is nonzero (it is then never evaluated
  // but serves as the reverse-dependency list for frontier marking), and
  // pinned diagonal spans are kept so their first-sweep init -> 1 snap can
  // notify dependents. See the OutRefs comment in the header.
  struct SpanPlan {
    bool use_out;
    bool use_in;
    bool skip_diagonal;
  };
  auto plan_for = [&](bool active_spans) {
    return SpanPlan{
        config.w_out > 0.0 || (active_spans && config.w_in > 0.0),
        config.w_in > 0.0 || (active_spans && config.w_out > 0.0),
        config.pin_diagonal && !active_spans};
  };
  // Entry layout: the packed 8-byte NeighborRef when every row/col fits in
  // 16 bits; positions inside a neighbor list run 0..deg-1, so a direction
  // packs while its max degree is <= 65536. The 12-byte layout otherwise.
  constexpr size_t kPackedDegreeLimit = 0x10000;
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
  const uint64_t offsets_bytes = (2 * n + 1) * sizeof(uint64_t);
  auto entry_bytes_for = [&](const SpanPlan& p) {
    return packed_for(p) ? sizeof(PackedNeighborRef) : sizeof(NeighborRef);
  };
  auto bound_bytes = [&](const SpanPlan& p, uint64_t max_entries) {
    return max_entries * entry_bytes_for(p) + offsets_bytes;
  };
  auto fits = [&](const SpanPlan& p, uint64_t max_entries) {
    return bound_bytes(p, max_entries) <= config.neighbor_index_budget_bytes;
  };

  // Prefer the widened layout the active set needs; if only the widening
  // blows the budget (single-direction configs double their entry count),
  // fall back to the evaluation-only index — the driver then runs full
  // sweeps (reverse_spans() false) instead of the build failing.
  bool active_spans = config.active_set != ActiveSetMode::kOff;
  SpanPlan plan = plan_for(active_spans);
  uint64_t max_entries = max_entries_for(plan);
  if (active_spans && !fits(plan, max_entries)) {
    active_spans = false;
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
  const bool packed = packed_for(plan);
  if (packed) {
    FillNeighborRefs(g1, g2, config, lsim, pruned_index, pool, active_spans,
                     &nbr_chunks_packed_);
  } else {
    FillNeighborRefs(g1, g2, config, lsim, pruned_index, pool, active_spans,
                     &nbr_chunks_);
  }
  packed_refs_ = packed;
  reverse_spans_ = active_spans;
  return Status::OK();
}

template <typename Ref>
void PairStore::FillNeighborRefs(const Graph& g1, const Graph& g2,
                                 const FSimConfig& config,
                                 const LabelSimilarityCache& lsim,
                                 const FlatPairMap& pruned_index,
                                 ThreadPool* pool, bool active_spans,
                                 std::vector<std::vector<Ref>>* chunks) {
  const size_t n = keys_.size();
  const bool use_out =
      config.w_out > 0.0 || (active_spans && config.w_in > 0.0);
  const bool use_in =
      config.w_in > 0.0 || (active_spans && config.w_out > 0.0);
  const bool skip_diagonal = config.pin_diagonal && !active_spans;
  const double theta = config.theta;
  const bool need_compat = theta > 0.0;
  const double alpha = config.upper_bound ? config.alpha : 0.0;

  // Score source of candidate pair (x, y): the maintained-pair index, or a
  // tagged pruned-bound index whose score is α * bound. Pairs that are
  // label-incompatible, or pruned and untracked (score 0), are omitted —
  // zero never contributes to any operator.
  auto classify = [&](NodeId x, NodeId y, uint32_t* ref) -> bool {
    if (need_compat && !lsim.Compatible(g1.Label(x), g2.Label(y), theta)) {
      return false;
    }
    const uint32_t idx = index_.Find(PairKey(x, y));
    if (idx != FlatPairMap::kNotFound) {
      *ref = idx;
      return true;
    }
    if (alpha > 0.0) {
      const uint32_t p = pruned_index.Find(PairKey(x, y));
      if (p != FlatPairMap::kNotFound) {
        *ref = kNeighborRefPrunedTag | p;
        return true;
      }
    }
    return false;
  };

  using PosT = decltype(Ref::row);
  // Appends the entries of one direction's N±(u) x N±(v) to `buf` and
  // returns how many there were.
  auto classify_direction = [&](std::span<const NodeId> s1,
                                std::span<const NodeId> s2,
                                std::vector<Ref>* buf) -> uint64_t {
    const size_t before = buf->size();
    for (uint32_t r = 0; r < s1.size(); ++r) {
      for (uint32_t c = 0; c < s2.size(); ++c) {
        uint32_t ref;
        if (classify(s1[r], s2[c], &ref)) {
          // The packed layout was selected on a degree bound; a position
          // overflowing PosT would wrap silently and corrupt the span.
          FSIM_DCHECK(r <= std::numeric_limits<PosT>::max());
          FSIM_DCHECK(c <= std::numeric_limits<PosT>::max());
          buf->push_back(
              Ref{static_cast<PosT>(r), static_cast<PosT>(c), ref});
        }
      }
    }
    return buf->size() - before;
  };

  // One classification pass over N±(u) x N±(v) per pair — roughly the
  // hash-probe work of one iteration over Hp, repaid after the first
  // indexed iteration. Each chunk is classified into its worker's reused
  // scratch vector, recording span counts in nbr_offsets_, and copied into
  // its own buffer at exact size; that buffer is the index.
  nbr_offsets_.assign(2 * n + 1, 0);
  chunks->assign((n + kChunkPairs - 1) / kChunkPairs, std::vector<Ref>());
  ThreadPool serial_pool(1);
  if (pool == nullptr) pool = &serial_pool;
  // One cache line per worker: the push_backs would otherwise false-share
  // the neighboring workers' vector headers.
  struct alignas(64) WorkerScratch {
    std::vector<Ref> entries;
  };
  std::vector<WorkerScratch> scratch(static_cast<size_t>(pool->num_threads()));
  pool->ParallelForChunked(chunks->size(), 1,
                          [&](int worker, size_t begin, size_t end) {
    std::vector<Ref>& buf = scratch[static_cast<size_t>(worker)].entries;
    for (size_t chunk = begin; chunk < end; ++chunk) {
      buf.clear();
      const size_t last = std::min(n, (chunk + 1) * kChunkPairs);
      for (size_t i = chunk * kChunkPairs; i < last; ++i) {
        const NodeId u = PairFirst(keys_[i]);
        const NodeId v = PairSecond(keys_[i]);
        if (skip_diagonal && u == v) continue;
        if (use_out) {
          nbr_offsets_[2 * i + 1] = classify_direction(
              g1.OutNeighbors(u), g2.OutNeighbors(v), &buf);
        }
        if (use_in) {
          nbr_offsets_[2 * i + 2] = classify_direction(
              g1.InNeighbors(u), g2.InNeighbors(v), &buf);
        }
      }
      (*chunks)[chunk].assign(buf.begin(), buf.end());
    }
  });
  // In-place prefix sum: nbr_offsets_[k] currently holds the count of
  // span k-1.
  for (size_t k = 1; k < nbr_offsets_.size(); ++k) {
    nbr_offsets_[k] += nbr_offsets_[k - 1];
  }
}

void FrontierTracker::Init(size_t num_pairs, int num_workers,
                           bool tolerance) {
  num_pairs_ = num_pairs;
  tolerance_ = tolerance;
  epoch_ = 0;
  if (tolerance) {
    const size_t words = (num_pairs + 63) / 64;
    stamps_.assign(static_cast<size_t>(num_workers),
                   std::vector<uint32_t>(num_pairs, 0));
    influence_.assign(static_cast<size_t>(num_workers),
                      std::vector<float>(num_pairs, 0.0f));
    marked_.assign(static_cast<size_t>(num_workers),
                   std::vector<uint64_t>(words, 0));
    marked_union_.assign(words, 0);
    carry_.assign(num_pairs, 0.0);
  } else {
    // Value-initialized to epoch 0 (< the first BeginIteration's epoch).
    shared_stamps_ =
        std::make_unique<std::atomic<uint32_t>[]>(num_pairs);
  }
}

void FrontierTracker::BuildNext(ThreadPool& pool, double tolerance,
                                bool previous_sweep_was_full,
                                std::vector<uint32_t>* frontier) {
  // Exact mode scans the stamps, tolerance mode the marked-bit words, in
  // 4096-pair chunks: coarse enough that the two-pass offsets stay tiny,
  // fine enough to balance across workers.
  const size_t n = tolerance_ ? marked_union_.size() : num_pairs_;
  const size_t grain = tolerance_ ? 4096 / 64 : 4096;
  const size_t num_chunks = (n + grain - 1) / grain;
  chunk_offsets_.assign(num_chunks + 1, 0);
  const uint32_t epoch = epoch_;
  const size_t workers = stamps_.size();
  // A full sweep evaluated every pair, absorbing all carried influence.
  if (tolerance_ && previous_sweep_was_full) {
    std::fill(carry_.begin(), carry_.end(), 0.0);
  }

  // Pass 1: per-chunk counts. Exact mode reads the one shared stamp
  // array; tolerance mode collapses the marked pairs' per-worker
  // influence sums into the cross-iteration carry_ accumulator (unmarked
  // pairs keep a carry at or below the tolerance, as every larger one was
  // reset). Chunks partition the pairs, so writes are race-free.
  pool.ParallelForChunked(n, grain, [&](int, size_t begin, size_t end) {
    uint32_t count = 0;
    if (!tolerance_) {
      const std::atomic<uint32_t>* stamps = shared_stamps_.get();
      for (size_t j = begin; j < end; ++j) {
        if (stamps[j].load(std::memory_order_relaxed) == epoch) ++count;
      }
    } else {
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
    }
    chunk_offsets_[begin / grain + 1] = count;
  });
  for (size_t c = 1; c <= num_chunks; ++c) {
    chunk_offsets_[c] += chunk_offsets_[c - 1];
  }

  // Pass 2: fill each chunk's slice; evaluated pairs reset their carried
  // influence (their next evaluation starts from a clean slate).
  frontier->resize(num_chunks == 0 ? 0 : chunk_offsets_[num_chunks]);
  pool.ParallelForChunked(n, grain, [&](int, size_t begin, size_t end) {
    uint32_t pos = chunk_offsets_[begin / grain];
    if (!tolerance_) {
      const std::atomic<uint32_t>* stamps = shared_stamps_.get();
      for (size_t j = begin; j < end; ++j) {
        if (stamps[j].load(std::memory_order_relaxed) == epoch) {
          (*frontier)[pos++] = static_cast<uint32_t>(j);
        }
      }
    } else {
      for (size_t word = begin; word < end; ++word) {
        for (uint64_t bits = marked_union_[word]; bits != 0;
             bits &= bits - 1) {
          const size_t j = word * 64 + std::countr_zero(bits);
          if (carry_[j] > tolerance) {
            (*frontier)[pos++] = static_cast<uint32_t>(j);
            carry_[j] = 0.0;
          }
        }
      }
    }
  });
}

}  // namespace fsim
