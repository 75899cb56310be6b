#include "core/topk_allpairs.h"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.h"
#include "core/fsim_engine.h"
#include "core/pair_evaluator.h"
#include "core/pair_store.h"
#include "label/label_similarity.h"

namespace fsim {

namespace {

/// Collects the k+1 best eligible (score, index) entries — enough to test
/// the boundary separation — in O(pairs * log k).
void BestEntries(const PairStore& store, const TopKPairsOptions& options,
                 std::vector<std::pair<double, size_t>>* best) {
  const size_t want = options.k + 1;
  best->clear();
  auto worse = [](const std::pair<double, size_t>& a,
                  const std::pair<double, size_t>& b) {
    // Min-heap on score; tie-break prefers larger index out first so the
    // kept set is deterministic.
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  };
  for (size_t i = 0; i < store.size(); ++i) {
    if (options.exclude_diagonal && store.U(i) == store.V(i)) continue;
    std::pair<double, size_t> entry{store.prev(i), i};
    if (best->size() < want) {
      best->push_back(entry);
      std::push_heap(best->begin(), best->end(), worse);
    } else if (worse(entry, best->front())) {
      std::pop_heap(best->begin(), best->end(), worse);
      best->back() = entry;
      std::push_heap(best->begin(), best->end(), worse);
    }
  }
  // sort_heap with this comparator leaves the entries in descending score
  // order (the comparator inverts the usual "less" orientation).
  std::sort_heap(best->begin(), best->end(), worse);
}

}  // namespace

Result<TopKPairsResult> ComputeTopKPairs(const Graph& g1, const Graph& g2,
                                         const FSimConfig& config,
                                         const TopKPairsOptions& options) {
  FSIM_RETURN_NOT_OK(ValidateFSimConfig(g1, g2, config));
  if (options.k == 0) {
    return Status::InvalidArgument("k must be positive");
  }

  ThreadPool pool(config.num_threads);
  LabelSimilarityCache lsim(*g1.dict(), config.label_sim);
  FSIM_ASSIGN_OR_RETURN(PairStore store,
                        PairStore::Build(g1, g2, config, lsim, &pool));

  const double w = config.w_out + config.w_in;
  const uint32_t max_iters = FSimIterationBound(config);
  const PairEvaluator evaluator(g1, g2, config, lsim, store);

  // The active-set driver leaves store.prev() holding the complete state
  // after every Step (full sweeps swap, frontier sweeps commit only the
  // evaluated entries), so the boundary-separation scan below reads the
  // same snapshot it always did — the top-k engine inherits the
  // frozen-pair skipping for free.
  ActiveSetDriver driver(pool, store, evaluator, g1, g2, config);
  std::vector<std::pair<double, size_t>> best;

  TopKPairsResult result;
  result.iteration_bound = max_iters;

  // Tolerance-mode frontier skipping lets maintained scores drift up to
  // frontier_tolerance * (1 + w) / (1 - w) from the exact sweep values
  // (docs/performance.md "Active-set iteration"), so the boundary
  // separation test must absorb that slack on both compared scores or it
  // could certify a set whose boundary pairs are swapped in the exact
  // solution. Exact mode contributes zero slack (bit-identical sweeps).
  const double score_slack =
      driver.active() && config.active_set == ActiveSetMode::kTolerance &&
              w < 1.0
          ? config.frontier_tolerance * (1.0 + w) / (1.0 - w)
          : 0.0;

  for (uint32_t iter = 1; iter <= max_iters; ++iter) {
    const double max_delta = driver.Step();
    result.iterations = iter;

    // Residual radius from the contraction tail bound, plus the
    // tolerance-mode drift slack.
    const double radius =
        (w < 1.0 && w > 0.0 ? max_delta * w / (1.0 - w) : max_delta) +
        score_slack;
    result.radius = radius;

    const bool converged = max_delta < config.epsilon;

    // Boundary test: kth best must beat the (k+1)th by more than 2r. With
    // no boundary (fewer than k+1 eligible pairs) the set is trivially
    // certain.
    BestEntries(store, options, &best);
    const bool have_boundary = best.size() > options.k;
    const bool separated =
        !have_boundary ||
        best[options.k - 1].first - best[options.k].first > 2.0 * radius;
    if (separated) {
      result.certified = true;
      if (!options.converge_scores || converged) break;
    } else if (converged) {
      // Converged but boundary still within 2r (e.g. exact ties): report
      // uncertified.
      result.certified = false;
      break;
    }
  }

  // Materialize the pairs from the last sweep's snapshot.
  BestEntries(store, options, &best);
  const size_t take = std::min(options.k, best.size());
  result.pairs.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    result.pairs.push_back(ScoredPair{store.U(best[i].second),
                                      store.V(best[i].second),
                                      best[i].first});
  }
  return result;
}

}  // namespace fsim
