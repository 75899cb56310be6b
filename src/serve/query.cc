#include "serve/query.h"

#include <algorithm>

#include "common/check.h"
#include "obs/trace.h"

namespace fsim {

QueryEngine::Clock::time_point QueryEngine::DeadlineFor(double budget_ms) {
  FSIM_DCHECK(ValidBudget(budget_ms));
  constexpr Clock::time_point kNoDeadline = Clock::time_point::max();
  if (!(budget_ms > 0.0)) return kNoDeadline;
  const Clock::time_point now = Clock::now();
  // Compared in double milliseconds first: converting a budget past the
  // clock's range to its integer ticks is undefined behaviour. The 1/1024
  // slack absorbs the rounding of both sides to double.
  const std::chrono::duration<double, std::milli> budget(budget_ms);
  const std::chrono::duration<double, std::milli> headroom = kNoDeadline - now;
  if (budget >= headroom - headroom / 1024.0) return kNoDeadline;
  return now + std::chrono::duration_cast<Clock::duration>(budget);
}

namespace {

/// Best-effort TOPK from the snapshot's precomputed cache prefix: the first
/// min(k, cache_k, |row|) ranked entries, no row scan, no allocation beyond
/// the copy. Exact when k fits the cache — degraded only beyond it.
std::vector<std::pair<NodeId, double>> CachePrefixTopK(
    const FSimSnapshot& snapshot, NodeId u, size_t k, bool* degraded) {
  const auto cached = snapshot.CachedTopK(u);
  const size_t n = std::min(k, cached.size());
  // A short cache row can be short because the row itself is short (exact)
  // or because cache_k < k truncated it (degraded); only the latter can
  // lose entries.
  *degraded = k > snapshot.cache_k() && cached.size() == snapshot.cache_k();
  return {cached.begin(), cached.begin() + n};
}

constexpr char kLatencyHelp[] =
    "End-to-end query latency by verb (snapshot acquire + answer)";

}  // namespace

QueryEngine::QueryEngine(const SnapshotStore* store, ThreadPool* pool)
    : store_(store), pool_(pool) {
  obs::Registry& registry = obs::Registry::Default();
  const auto histogram = [&](const char* verb) {
    return registry.GetHistogram(kLatencyFamily, kLatencyHelp,
                                 obs::Histogram::Unit::kNanoseconds, "verb",
                                 verb);
  };
  latency_pair_ = histogram("PAIR");
  latency_topk_ = histogram("TOPK");
  latency_thresh_ = histogram("THRESH");
  latency_batch_ = histogram("BATCH");
}

QueryResult QueryEngine::Answer(const FSimSnapshot& snapshot,
                                const Query& query,
                                Clock::time_point deadline) {
  QueryResult result;
  result.kind = query.kind;
  result.version = snapshot.meta().version;
  const bool over_budget = deadline != Clock::time_point::max() &&
                           Clock::now() >= deadline;
  switch (query.kind) {
    case Query::Kind::kPair:
      // O(1) slot lookup — cheaper than any degradation bookkeeping.
      result.score = snapshot.PairScore(query.u, query.v);
      break;
    case Query::Kind::kTopK:
      if (over_budget) {
        result.entries = CachePrefixTopK(snapshot, query.u, query.k,
                                         &result.degraded);
      } else {
        result.entries = snapshot.TopK(query.u, query.k);
      }
      break;
    case Query::Kind::kThreshold:
      if (over_budget) {
        // Cache prefix filtered by tau: every returned entry is a true
        // hit, but hits ranked past the cache depth are missing.
        bool truncated = false;
        auto prefix = CachePrefixTopK(snapshot, query.u,
                                      snapshot.cache_k(), &truncated);
        auto& entries = result.entries;
        for (const auto& entry : prefix) {
          if (entry.second >= query.tau) entries.push_back(entry);
        }
        // Degraded unless the cache provably holds the whole answer: the
        // full (untruncated) row fit in the cache, or the prefix's tail
        // already fell below tau.
        const auto cached = snapshot.CachedTopK(query.u);
        const bool complete =
            (cached.size() < snapshot.cache_k()) ||
            (!cached.empty() && cached.back().second < query.tau);
        result.degraded = !complete;
      } else {
        result.entries = snapshot.ThresholdNeighbors(query.u, query.tau);
      }
      break;
  }
  return result;
}

Result<QueryResult> QueryEngine::Run(const Query& query) const {
  if (!ValidBudget(query.budget_ms)) {
    return Status::InvalidArgument("budget_ms must be finite and >= 0");
  }
  obs::Histogram* latency =
      query.kind == Query::Kind::kPair
          ? latency_pair_
          : (query.kind == Query::Kind::kTopK ? latency_topk_
                                              : latency_thresh_);
  obs::ScopedLatencyTimer timer(latency);
  const SnapshotStore::ReadGuard snapshot(*store_);
  if (!snapshot) {
    return Status::NotFound("no snapshot published yet");
  }
  return Answer(*snapshot, query, DeadlineFor(query.budget_ms));
}

Result<std::vector<QueryResult>> QueryEngine::RunBatch(
    std::span<const Query> queries, double budget_ms) const {
  if (!ValidBudget(budget_ms)) {
    return Status::InvalidArgument("budget_ms must be finite and >= 0");
  }
  // One observation for the whole batch — per-query timing inside the
  // fan-out lambda would put two clock reads around O(1) answers.
  obs::ScopedLatencyTimer timer(latency_batch_);
  FSIM_TRACE_SPAN_ARG("serve.batch", queries.size());
  // One pin for the whole batch: the pool workers read through the
  // caller's guard, which stays open until every chunk has finished.
  const SnapshotStore::ReadGuard snapshot(*store_);
  if (!snapshot) {
    return Status::NotFound("no snapshot published yet");
  }
  const Clock::time_point deadline = DeadlineFor(budget_ms);
  std::vector<QueryResult> results(queries.size());
  if (pool_ != nullptr && queries.size() >= kParallelBatchMin) {
    // Top-k/threshold answers allocate entry vectors, so chunks are sized
    // for rebalancing (a mixed batch's expensive queries cluster).
    constexpr size_t kBatchGrain = 16;
    pool_->ParallelForChunked(
        queries.size(), kBatchGrain,
        [&](int /*worker*/, size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            results[i] = Answer(*snapshot, queries[i], deadline);
          }
        });
  } else {
    for (size_t i = 0; i < queries.size(); ++i) {
      results[i] = Answer(*snapshot, queries[i], deadline);
    }
  }
  return results;
}

}  // namespace fsim
