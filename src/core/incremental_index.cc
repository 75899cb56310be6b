#include "core/incremental_index.h"

#include <algorithm>

#include "common/string_util.h"

namespace fsim {

void IncrementalNeighborIndex::ClassifyInto(std::span<const NodeId> s1,
                                            std::span<const NodeId> s2,
                                            const NeighborIndexEnv& env,
                                            std::vector<NeighborRef>* out) {
  for (uint32_t r = 0; r < s1.size(); ++r) {
    for (uint32_t c = 0; c < s2.size(); ++c) {
      const uint32_t slot = env.pairs.Find(s1[r], s2[c]);
      // Pairs outside the space (θ-incompatible ones included) would look
      // up 0.0, which never contributes to any operator; omit them (the
      // incremental engine maintains the full θ-candidate set, so there is
      // no pruned side table to tag into).
      if (slot == PairSpace::kNotFound) continue;
      out->push_back(NeighborRef{r, c, slot});
    }
  }
}

Status IncrementalNeighborIndex::Build(const NeighborIndexEnv& env,
                                       const FSimConfig& config) {
  const std::vector<uint64_t>& keys = env.pairs.keys();
  const size_t n = keys.size();
  // Stay inside the untagged ref range shared with the batch index.
  if (n >= kNeighborRefPrunedTag) {
    return Status::ResourceExhausted(StrFormat(
        "neighbor index refs overflow: %zu maintained pairs, but a ref "
        "addresses at most %u",
        n, kNeighborRefPrunedTag - 1));
  }

  pin_diagonal_ = config.pin_diagonal;
  budget_bytes_ = config.neighbor_index_budget_bytes;

  // Budget gate against the pre-filter bound Σ |N±(u)|·|N±(v)| over both
  // directions (compatibility filtering only shrinks the real footprint).
  uint64_t max_entries = 0;
  for (uint64_t key : keys) {
    const NodeId u = PairFirst(key);
    const NodeId v = PairSecond(key);
    if (pin_diagonal_ && u == v) continue;
    max_entries +=
        static_cast<uint64_t>(env.g1.OutDegree(u)) * env.g2.OutDegree(v);
    max_entries +=
        static_cast<uint64_t>(env.g1.InDegree(u)) * env.g2.InDegree(v);
  }
  const uint64_t meta_bytes = 2 * n * sizeof(SpanMeta);
  const uint64_t bound_bytes = max_entries * sizeof(NeighborRef) + meta_bytes;
  if (bound_bytes > budget_bytes_) {
    return Status::ResourceExhausted(StrFormat(
        "incremental neighbor index needs up to %llu bytes (%llu candidate "
        "entries of %zu bytes + %llu span bytes), over "
        "neighbor_index_budget_bytes %llu",
        static_cast<unsigned long long>(bound_bytes),
        static_cast<unsigned long long>(max_entries), sizeof(NeighborRef),
        static_cast<unsigned long long>(meta_bytes),
        static_cast<unsigned long long>(budget_bytes_)));
  }

  spans_.assign(2 * n, SpanMeta{});
  arena_.clear();
  freed_ = 0;
  restaged_spans_ = 0;
  for (size_t i = 0; i < n; ++i) {
    const NodeId u = PairFirst(keys[i]);
    const NodeId v = PairSecond(keys[i]);
    if (pin_diagonal_ && u == v) {
      // Pinned pairs are never evaluated and never change, so neither
      // direction span is needed (their dependents receive no pushes).
      continue;
    }
    for (int dir : {kOut, kIn}) {
      SpanMeta& m = spans_[2 * i + dir];
      m.offset = arena_.size();
      if (dir == kOut) {
        ClassifyInto(env.g1.OutNeighbors(u), env.g2.OutNeighbors(v), env,
                     &arena_);
      } else {
        ClassifyInto(env.g1.InNeighbors(u), env.g2.InNeighbors(v), env,
                     &arena_);
      }
      m.size = static_cast<uint32_t>(arena_.size() - m.offset);
      m.capacity = m.size;
    }
  }
  // Drop the append growth's spare capacity, so MemoryBytes() (and the
  // neighbor_index_bytes it reports) is the live index.
  arena_.shrink_to_fit();
  live_ = arena_.size();
  return Status::OK();
}

Status IncrementalNeighborIndex::CheckGrowth(uint64_t new_entries) const {
  const uint64_t entries = live_ + new_entries;
  const uint64_t needed =
      entries * sizeof(NeighborRef) + spans_.capacity() * sizeof(SpanMeta);
  if (needed <= budget_bytes_) return Status::OK();
  return Status::ResourceExhausted(StrFormat(
      "edit could grow the neighbor index to %llu bytes (%llu live + %llu "
      "new entries), over neighbor_index_budget_bytes %llu",
      static_cast<unsigned long long>(needed),
      static_cast<unsigned long long>(live_),
      static_cast<unsigned long long>(new_entries),
      static_cast<unsigned long long>(budget_bytes_)));
}

void IncrementalNeighborIndex::Restage(size_t pair, int dir, NodeId u,
                                       NodeId v,
                                       const NeighborIndexEnv& env) {
  if (pin_diagonal_ && u == v) return;
  ++restaged_spans_;
  stage_.clear();
  if (dir == kOut) {
    ClassifyInto(env.g1.OutNeighbors(u), env.g2.OutNeighbors(v), env,
                 &stage_);
  } else {
    ClassifyInto(env.g1.InNeighbors(u), env.g2.InNeighbors(v), env, &stage_);
  }
  SpanMeta& m = spans_[2 * pair + dir];
  live_ = live_ - m.size + stage_.size();
  if (stage_.size() <= m.capacity) {
    std::copy(stage_.begin(), stage_.end(), arena_.begin() + m.offset);
    m.size = static_cast<uint32_t>(stage_.size());
    return;
  }
  // Outgrown: relocate to the arena tail with growth slack, so a pair whose
  // neighborhood keeps growing amortizes its relocations.
  freed_ += m.capacity;
  m.offset = arena_.size();
  m.size = static_cast<uint32_t>(stage_.size());
  m.capacity = m.size + m.size / 2 + 4;
  arena_.insert(arena_.end(), stage_.begin(), stage_.end());
  arena_.resize(arena_.size() + (m.capacity - m.size));
  if (freed_ > arena_.size() / 2 && freed_ > 4096) Compact();
  // The budget is a ceiling: relocation slack is reclaimable, and the
  // engine's CheckGrowth keeps the live entries themselves within it.
  if (MemoryBytes() > budget_bytes_) Compact();
}

Status IncrementalNeighborIndex::Validate(size_t num_pairs) const {
  ValidatorCounters::Bump("IncrementalNeighborIndex::Validate");
  if (spans_.size() != 2 * num_pairs) {
    return Status::Internal("incremental index holds " +
                            std::to_string(spans_.size()) + " spans for " +
                            std::to_string(num_pairs) + " pairs");
  }
  uint64_t capacity_total = 0;
  uint64_t size_total = 0;
  std::vector<std::pair<uint64_t, uint64_t>> extents;  // [offset, offset+cap)
  extents.reserve(spans_.size());
  for (size_t s = 0; s < spans_.size(); ++s) {
    const SpanMeta& m = spans_[s];
    if (m.size > m.capacity) {
      return Status::Internal("span " + std::to_string(s) + " has size " +
                              std::to_string(m.size) + " > capacity " +
                              std::to_string(m.capacity));
    }
    if (m.offset + m.capacity > arena_.size()) {
      return Status::Internal("span " + std::to_string(s) +
                              " extends past the arena");
    }
    capacity_total += m.capacity;
    size_total += m.size;
    if (m.capacity > 0) extents.emplace_back(m.offset, m.offset + m.capacity);
    uint64_t prev_key = 0;
    bool first = true;
    for (uint32_t k = 0; k < m.size; ++k) {
      const NeighborRef& entry = arena_[m.offset + k];
      if (entry.ref >= num_pairs) {
        return Status::Internal("span " + std::to_string(s) + " ref " +
                                std::to_string(entry.ref) +
                                " outside the maintained pairs");
      }
      const uint64_t key =
          (static_cast<uint64_t>(entry.row) << 32) | entry.col;
      if (!first && key <= prev_key) {
        return Status::Internal("span " + std::to_string(s) +
                                " not strictly (row, col)-sorted");
      }
      prev_key = key;
      first = false;
    }
  }
  // Slack accounting: every arena slot is owned by exactly one span or
  // counted in freed_; Restage relocations must keep this exact.
  if (capacity_total + freed_ != arena_.size()) {
    return Status::Internal(
        "arena slack accounting off: Σcapacity=" +
        std::to_string(capacity_total) + " + freed=" + std::to_string(freed_) +
        " != arena=" + std::to_string(arena_.size()));
  }
  if (size_total != live_) {
    return Status::Internal("live entry count off: Σsize=" +
                            std::to_string(size_total) +
                            " != live=" + std::to_string(live_));
  }
  std::sort(extents.begin(), extents.end());
  for (size_t k = 1; k < extents.size(); ++k) {
    if (extents[k].first < extents[k - 1].second) {
      return Status::Internal("arena spans overlap");
    }
  }
  return Status::OK();
}

void IncrementalNeighborIndex::Compact() {
  std::vector<NeighborRef> packed;
  packed.reserve(live_);
  for (SpanMeta& m : spans_) {
    const uint64_t offset = packed.size();
    packed.insert(packed.end(), arena_.begin() + m.offset,
                  arena_.begin() + m.offset + m.size);
    m.offset = offset;
    m.capacity = m.size;
  }
  arena_ = std::move(packed);
  freed_ = 0;
}

}  // namespace fsim
