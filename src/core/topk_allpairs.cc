#include "core/topk_allpairs.h"

#include <algorithm>
#include <memory>

#include "core/fsim_solver.h"

namespace fsim {

namespace {

/// Collects the k+1 best eligible (score, slot) entries — enough to test
/// the boundary separation — in O(pairs * log k).
void BestEntries(const FSimSolver& solver, const TopKPairsOptions& options,
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
  const std::vector<uint64_t>& keys = solver.space().keys();
  const double* values = solver.values();
  for (size_t i = 0; i < keys.size(); ++i) {
    if (options.exclude_diagonal &&
        PairFirst(keys[i]) == PairSecond(keys[i])) {
      continue;
    }
    std::pair<double, size_t> entry{values[i], i};
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
  if (options.k == 0) {
    return Status::InvalidArgument("k must be positive");
  }
  FSIM_ASSIGN_OR_RETURN(std::unique_ptr<FSimSolver> solver,
                        FSimSolver::Create(g1, g2, config, {}));

  const double w = config.w_out + config.w_in;
  TopKPairsResult result;
  result.iteration_bound = FSimIterationBound(config);

  // Tolerance frontiers let maintained scores drift up to
  // frontier_tolerance * (1 + w) / (1 - w) from the full-sweep values
  // (docs/performance.md "Active-set iteration"), so the boundary
  // separation test must absorb that slack on both compared scores or it
  // could certify a set whose boundary pairs are swapped in the full-sweep
  // solution. Full sweeps, on the index or the panels, add no slack.
  const double score_slack =
      solver->active_set()
          ? config.frontier_tolerance * (1.0 + w) / (1.0 - w)
          : 0.0;

  // The solver leaves values() holding the complete state after every
  // step, so the boundary test reads one consistent snapshot.
  std::vector<std::pair<double, size_t>> best;
  FSimStats stats;
  solver->Run(&stats, [&](double max_delta) {
    // Residual radius from the contraction tail bound, plus the
    // tolerance-mode drift slack.
    result.radius =
        (w > 0.0 ? max_delta * w / (1.0 - w) : max_delta) + score_slack;
    // Boundary test: kth best must beat the (k+1)th by more than 2r. With
    // no boundary (fewer than k+1 eligible pairs) the set is trivially
    // certain. A boundary still within 2r at convergence (e.g. exact
    // ties) is reported uncertified.
    BestEntries(*solver, options, &best);
    const bool separated = best.size() <= options.k ||
                           best[options.k - 1].first - best[options.k].first >
                               2.0 * result.radius;
    if (separated) {
      result.certified = true;
    } else if (max_delta < config.epsilon) {
      result.certified = false;
    }
    return separated && !options.converge_scores;
  });
  result.iterations = stats.iterations;

  // Materialize the pairs from the last step's snapshot.
  const size_t take = std::min(options.k, best.size());
  const std::vector<uint64_t>& keys = solver->space().keys();
  result.pairs.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    const uint64_t key = keys[best[i].second];
    result.pairs.push_back(
        ScoredPair{PairFirst(key), PairSecond(key), best[i].first});
  }
  return result;
}

}  // namespace fsim
