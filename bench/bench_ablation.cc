// Ablation study of the framework's design choices (DESIGN.md §6):
//
//  (a) sparse candidate store vs dense matrix iteration for the two
//      mappings the dense engine accepts (s, b), with θ filtering off and
//      on — the table that decides whether the dense engine stays;
//  (b) greedy ½-approximate vs exact Hungarian realization of the injective
//      mapping operators (M_dp / M_bj) — the paper's speed/fidelity
//      trade-off [23];
//  (c) certified all-pairs top-k early termination vs full ε-convergence —
//      the Theorem 1 tail bound in action.
#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "core/dense_engine.h"
#include "core/topk_allpairs.h"
#include "eval/metrics.h"

using namespace fsim;

namespace {

double MaxAbsDiffOnPairs(const FSimScores& sparse,
                         const DenseFSimScores& dense) {
  double max_diff = 0.0;
  for (size_t i = 0; i < sparse.keys().size(); ++i) {
    const NodeId u = PairFirst(sparse.keys()[i]);
    const NodeId v = PairSecond(sparse.keys()[i]);
    max_diff =
        std::max(max_diff, std::abs(sparse.values()[i] - dense.Score(u, v)));
  }
  return max_diff;
}

void SparseVsDense() {
  bench::PrintHeader(
      "Ablation (a): sparse candidate store vs dense matrix iteration "
      "(FSim_s and FSim_b, paper defaults; dense on its tile panels)");
  TablePrinter table({"dataset", "variant", "theta", "pairs", "sparse",
                      "dense", "max |diff|"});
  for (const char* name : {"yeast", "nell"}) {
    Graph g = MakeDatasetByName(name);
    for (SimVariant variant : {SimVariant::kSimple, SimVariant::kBi}) {
      for (double theta : {0.0, 1.0}) {
        FSimConfig config = bench::PaperDefaults(variant);
        config.theta = theta;
        config.pair_limit = bench::kBenchPairLimit;
        const char* variant_name = SimVariantName(variant);
        const char* theta_name = theta == 0 ? "0" : "1";

        Timer sparse_timer;
        auto sparse = ComputeFSim(g, g, config);
        const double sparse_s = sparse_timer.Seconds();
        if (!sparse.ok()) {
          table.AddRow({name, variant_name, theta_name, "-",
                        sparse.status().ToString(), "-", "-"});
          continue;
        }

        Timer dense_timer;
        auto dense = ComputeFSimDense(g, g, config);
        const double dense_s = dense_timer.Seconds();
        if (!dense.ok()) {
          table.AddRow({name, variant_name, theta_name,
                        std::to_string(sparse->NumPairs()),
                        bench::FormatSeconds(sparse_s),
                        dense.status().ToString(), "-"});
          continue;
        }
        char diff[24];
        std::snprintf(diff, sizeof(diff), "%.1e",
                      MaxAbsDiffOnPairs(*sparse, *dense));
        table.AddRow({name, variant_name, theta_name,
                      std::to_string(sparse->NumPairs()),
                      bench::FormatSeconds(sparse_s),
                      bench::FormatSeconds(dense_s), diff});
      }
    }
  }
  table.Print();
  std::printf(
      "expected: identical scores (diff ~ 0); dense wins only at theta=0, "
      "where every pair is a candidate and the panels run flat; at "
      "theta=1 sparse wins by not visiting incompatible pairs at all\n");
}

void GreedyVsHungarian() {
  bench::PrintHeader(
      "Ablation (b): greedy 1/2-approximate vs exact Hungarian matching "
      "(FSim_bj)");
  TablePrinter table(
      {"dataset", "greedy", "hungarian", "Pearson", "max |diff|"});
  for (const char* name : {"yeast", "nell"}) {
    Graph g = MakeDatasetByName(name);
    FSimConfig config = bench::PaperDefaults(SimVariant::kBijective);
    config.theta = 1.0;  // keep the Hungarian run tractable

    config.matching = MatchingAlgo::kGreedy;
    auto greedy = bench::RunFSim(g, g, config);
    config.matching = MatchingAlgo::kHungarian;
    auto hungarian = bench::RunFSim(g, g, config);
    if (!greedy || !hungarian) continue;

    double max_diff = 0.0;
    for (size_t i = 0; i < greedy->scores.keys().size(); ++i) {
      max_diff = std::max(max_diff,
                          std::abs(greedy->scores.values()[i] -
                                   hungarian->scores.values()[i]));
    }
    char pearson[16], diff[24];
    std::snprintf(pearson, sizeof(pearson), "%.4f",
                  CorrelateScores(greedy->scores, hungarian->scores));
    std::snprintf(diff, sizeof(diff), "%.3f", max_diff);
    table.AddRow({name, bench::FormatSeconds(greedy->seconds),
                  bench::FormatSeconds(hungarian->seconds), pearson, diff});
  }
  table.Print();
  std::printf(
      "expected: greedy is faster with near-1 correlation (the paper "
      "adopts greedy for exactly this trade-off); Hungarian realizes C3 "
      "exactly, so its scores upper-bound greedy's\n");
}

void TopKEarlyTermination() {
  bench::PrintHeader(
      "Ablation (c): certified top-k early termination vs full convergence "
      "(FSim_bj, k = 10)");
  TablePrinter table({"dataset", "iters (topk)", "iter bound", "certified",
                      "topk", "full"});
  for (const char* name : {"yeast", "nell"}) {
    Graph g = MakeDatasetByName(name);
    FSimConfig config = bench::PaperDefaults(SimVariant::kBijective);
    config.theta = 1.0;
    config.epsilon = 1e-6;  // a demanding convergence target
    config.pair_limit = bench::kBenchPairLimit;

    TopKPairsOptions options;
    options.k = 10;
    options.exclude_diagonal = true;

    Timer topk_timer;
    auto topk = ComputeTopKPairs(g, g, config, options);
    const double topk_s = topk_timer.Seconds();
    if (!topk.ok()) continue;

    Timer full_timer;
    auto full = ComputeFSim(g, g, config);
    const double full_s = full_timer.Seconds();
    if (!full.ok()) continue;

    table.AddRow({name, std::to_string(topk->iterations),
                  std::to_string(topk->iteration_bound),
                  topk->certified ? "yes" : "no",
                  bench::FormatSeconds(topk_s),
                  bench::FormatSeconds(full_s)});
  }
  table.Print();
  std::printf(
      "expected: certification lands well before the Corollary 1 iteration "
      "bound, so the top-k query costs a fraction of full convergence\n");
}

}  // namespace

int main() {
  SparseVsDense();
  GreedyVsHungarian();
  TopKEarlyTermination();
  return 0;
}
