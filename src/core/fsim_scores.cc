#include "core/fsim_scores.h"

#include <algorithm>

#include "common/check.h"
#include "core/simd/dispatch.h"

namespace fsim {

namespace {

/// The TopKInto score-reject prescan kernel (find_first_ge). FSimScores
/// carries no config, so the level is resolved once per process from the
/// environment/host (FSIM_SIMD honored); this is safe because find_first_ge
/// is the exact complement of the scalar reject at every level — the
/// surviving candidate set, and hence the result, is level-invariant.
simd::FindFirstGeFn TopKPrescanKernel() {
  static const simd::FindFirstGeFn fn =
      simd::KernelsFor(simd::ResolveSimdLevel(SimdMode::kAuto)).find_first_ge;
  return fn;
}

/// Descending score, ties broken by ascending node id — the ranking order of
/// every top-k surface (FSimScores::TopK, the snapshot top-k cache).
inline bool RanksBefore(const std::pair<NodeId, double>& a,
                        const std::pair<NodeId, double>& b) {
  if (a.second != b.second) return a.second > b.second;
  return a.first < b.first;
}

}  // namespace

FSimScores::FSimScores(std::shared_ptr<const PairSpace> space,
                       std::vector<double> values, FSimStats stats)
    : space_(std::move(space)),
      values_(std::move(values)),
      stats_(std::move(stats)) {
  FSIM_CHECK_EQ(values_.size(), space_->size());
}

std::vector<std::pair<NodeId, double>> FSimScores::TopK(NodeId u,
                                                        size_t k) const {
  std::vector<std::pair<NodeId, double>> out;
  TopKInto(u, k, &out);
  return out;
}

size_t FSimScores::TopKInto(
    NodeId u, size_t k, std::vector<std::pair<NodeId, double>>* out) const {
  const size_t base = out->size();
  if (k == 0) return 0;
  const auto [first, last] = space_->Row(u);
  const std::vector<uint64_t>& keys = space_->keys();

  // Bounded min-heap over out's tail: the heap top (out[base]) is the
  // currently weakest kept entry under the ranking order, so a candidate
  // enters iff it ranks before the top. The heap comparator is the reverse
  // of RanksBefore (make_heap builds a max-heap, we need the weakest on top).
  auto heap_cmp = [](const std::pair<NodeId, double>& a,
                     const std::pair<NodeId, double>& b) {
    return RanksBefore(a, b);
  };
  const simd::FindFirstGeFn find_first_ge = TopKPrescanKernel();
  size_t i = first;
  while (i < last) {
    if (out->size() - base >= k) {
      // Hot path: once the heap is warm the prescan skips every candidate
      // scoring below the heap top in one vectorized sweep (the exact
      // complement of the old one-compare-per-candidate reject; the top is
      // loop-invariant across the skipped run since nothing enters).
      i += find_first_ge(values_.data() + i, last - i, (*out)[base].second);
      if (i >= last) break;
      const std::pair<NodeId, double> entry{PairSecond(keys[i]), values_[i]};
      if (RanksBefore(entry, (*out)[base])) {
        std::pop_heap(out->begin() + base, out->end(), heap_cmp);
        out->back() = entry;
        std::push_heap(out->begin() + base, out->end(), heap_cmp);
      }
      ++i;
    } else {
      out->emplace_back(PairSecond(keys[i]), values_[i]);
      std::push_heap(out->begin() + base, out->end(), heap_cmp);
      ++i;
    }
  }
  std::sort_heap(out->begin() + base, out->end(), heap_cmp);
  return out->size() - base;
}

std::vector<std::pair<NodeId, double>> FSimScores::Row(NodeId u) const {
  const auto [first, last] = space_->Row(u);
  const std::vector<uint64_t>& keys = space_->keys();
  std::vector<std::pair<NodeId, double>> row;
  row.reserve(last - first);
  for (size_t i = first; i < last; ++i) {
    row.emplace_back(PairSecond(keys[i]), values_[i]);
  }
  return row;
}

}  // namespace fsim
