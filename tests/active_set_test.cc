// Tests for tolerance frontiers, the active-set mode of the iterate driver
// (core/pair_evaluator.h ActiveSetDriver, docs/performance.md "Active-set
// iteration"): with frontier_tolerance = τ > 0 a solve must stay within
// τ · (1 + w) / (1 - w) of the full-sweep scores, plus the termination
// residual of both runs, across the MappingKind x OmegaKind x matching x θ
// sweep (s and b at θ = 0 run on the tile panels instead, so they are
// swept at θ > 0), through the dense-frontier fallback, single-direction
// configs (whose reverse dependency lists come from the opposite-direction
// spans), the AsUndirected adaptation (out-span doubles as its own
// dependent list), pruned-ref skipping, and the top-k and incremental
// engines that share the machinery; and it must actually skip work where
// pairs settle. Whether the reverse spans list every dependent is checked
// exactly, span by span, in tests/pair_store_build_test.cc
// (PairStoreReverseSpansTest).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>

#include "core/fsim_config.h"
#include "core/fsim_engine.h"
#include "core/incremental.h"
#include "core/panel_engine.h"
#include "core/topk_allpairs.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "tests/test_graphs.h"

namespace fsim {
namespace {

using ::fsim::testing::MakeDenseRandomGraph;

/// A directed chain: dependencies have bounded depth, so pairs settle
/// wave by wave from the chain's tail — the workload where frontiers
/// provably shrink.
Graph MakeChainGraph(uint32_t n = 30) {
  static const char* kLabels[] = {"x", "y"};
  GraphBuilder builder;
  for (uint32_t i = 0; i < n; ++i) builder.AddNode(kLabels[i % 2]);
  for (uint32_t i = 0; i + 1 < n; ++i) builder.AddEdge(i, i + 1);
  return std::move(builder).BuildOrDie();
}

/// Two sources feeding the heads of two parallel chains: an unlabeled DAG
/// on which SimRank scores settle exactly, level by level, so frontiers
/// shrink under pin_diagonal too.
Graph MakeLadderGraph(uint32_t length = 12) {
  GraphBuilder builder;
  for (uint32_t i = 0; i < 2 + 2 * length; ++i) builder.AddNode("x");
  for (NodeId head : {2u, 3u}) {
    builder.AddEdge(0, head);
    builder.AddEdge(1, head);
  }
  for (uint32_t k = 0; k + 1 < length; ++k) {
    builder.AddEdge(2 + 2 * k, 4 + 2 * k);
    builder.AddEdge(3 + 2 * k, 5 + 2 * k);
  }
  return std::move(builder).BuildOrDie();
}

/// The distance a tolerance run at `config` may keep from a full-sweep run
/// of the same config: the frontier bound τ(1+w)/(1-w), plus each run's
/// termination residual, the Theorem 1 tail Δ·w/(1-w) of its last max
/// delta Δ.
double ToleranceBound(const FSimConfig& config, const FSimStats& tolerance,
                      const FSimStats& full) {
  const double w = config.w_out + config.w_in;
  return config.frontier_tolerance * (1.0 + w) / (1.0 - w) +
         (tolerance.final_delta + full.final_delta) * w / (1.0 - w);
}

/// Max |a - b| over two score tables of the same pairs.
double MaxDiff(const FSimScores& a, const FSimScores& b) {
  EXPECT_EQ(a.keys(), b.keys());
  double max_diff = 0.0;
  for (size_t i = 0; i < a.values().size(); ++i) {
    max_diff = std::max(max_diff, std::abs(a.values()[i] - b.values()[i]));
  }
  return max_diff;
}

/// Runs `config` with tolerance frontiers at `tolerance` and with full
/// sweeps (frontier_tolerance = 0), asserts the tolerance run engaged the
/// active set and, when `check_bound`, stayed within ToleranceBound of the
/// full sweeps. Returns the tolerance run's stats.
FSimStats ExpectWithinToleranceBound(const Graph& g, FSimConfig config,
                                     double tolerance,
                                     const std::string& context,
                                     bool check_bound = true) {
  config.neighbor_index_budget_bytes = 1ULL << 30;
  config.frontier_tolerance = 0.0;
  auto full = ComputeFSimSelf(g, config);
  EXPECT_TRUE(full.ok()) << context << ": " << full.status().ToString();
  if (!full.ok()) return {};
  EXPECT_FALSE(full->stats().active_set) << context;
  EXPECT_EQ(full->stats().full_sweep_iterations, full->stats().iterations)
      << context;

  config.frontier_tolerance = tolerance;
  auto tol = ComputeFSimSelf(g, config);
  EXPECT_TRUE(tol.ok()) << context << ": " << tol.status().ToString();
  if (!tol.ok()) return {};
  const FSimStats& stats = tol->stats();
  EXPECT_TRUE(stats.active_set) << context;
  EXPECT_EQ(stats.active_pairs_history.size(), stats.iterations) << context;
  if (!stats.active_pairs_history.empty()) {
    EXPECT_EQ(stats.active_pairs_history.front(), stats.maintained_pairs)
        << context;
  }
  const double diff = MaxDiff(*tol, *full);
  if (check_bound) {
    EXPECT_LE(diff, ToleranceBound(config, stats, full->stats())) << context;
  }
  return stats;
}

const MappingKind kAllMappings[] = {
    MappingKind::kMaxPerRow, MappingKind::kInjectiveRow,
    MappingKind::kMaxBothSides, MappingKind::kInjectiveSym,
    MappingKind::kProduct};
const OmegaKind kAllOmegas[] = {OmegaKind::kSizeS1, OmegaKind::kSumSizes,
                                OmegaKind::kGeoMean, OmegaKind::kMaxSize,
                                OmegaKind::kProduct};

using SweepParam = std::tuple<MappingKind, OmegaKind, MatchingAlgo>;

class ActiveSetToleranceSweep : public ::testing::TestWithParam<SweepParam> {
};

TEST_P(ActiveSetToleranceSweep, StaysWithinBoundOfFullSweeps) {
  const auto [mapping, omega, matching] = GetParam();
  const Graph g = MakeDenseRandomGraph(/*seed=*/11 + static_cast<int>(omega));
  // The bound rests on the Theorem 1 contraction, which a greedy injective
  // matching does not give (condition C3): there a skipped sub-τ change
  // can flip a later greedy tie, and the run may settle elsewhere. Those
  // cases run, but only the contracting ones are held to the bound.
  const bool injective = mapping == MappingKind::kInjectiveRow ||
                         mapping == MappingKind::kInjectiveSym;
  const bool contraction = !injective || matching == MatchingAlgo::kHungarian;
  for (double theta : {0.0, 0.4}) {
    FSimConfig config;
    config.operator_override = OperatorConfig{mapping, omega};
    config.matching = matching;
    config.label_sim = LabelSimKind::kEditDistance;
    config.theta = theta;
    config.w_out = 0.35;
    config.w_in = 0.35;
    config.epsilon = 1e-6;  // enough iterations for frontiers to matter
    config.active_set_activation_fraction = 0.0;  // pin the frontier path
    // At θ = 0, s and b iterate on the tile panels in full sweeps, with no
    // active set (tests/panel_engine_test.cc); their sweep is the θ > 0
    // leg.
    if (RunsOnTilePanels(config)) continue;
    ExpectWithinToleranceBound(g, config, /*tolerance=*/1e-4,
                               "theta=" + std::to_string(theta),
                               contraction);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Operators, ActiveSetToleranceSweep,
    ::testing::Combine(::testing::ValuesIn(kAllMappings),
                       ::testing::ValuesIn(kAllOmegas),
                       ::testing::Values(MatchingAlgo::kGreedy,
                                         MatchingAlgo::kHungarian)));

// On the chain, dependencies have bounded depth, so the frontier must
// actually shrink and the sparse-commit path is exercised for real.
TEST(ActiveSetTolerance, ChainFrontierShrinks) {
  const Graph g = MakeChainGraph();
  FSimConfig config;
  config.w_out = 0.7;
  config.w_in = 0.0;
  config.epsilon = 1e-12;
  config.active_set_activation_fraction = 0.0;
  const FSimStats stats =
      ExpectWithinToleranceBound(g, config, /*tolerance=*/1e-6, "chain");
  ASSERT_GT(stats.active_pairs_history.size(), 2u);
  EXPECT_LT(stats.active_pairs_history.back(),
            stats.active_pairs_history.front());
  EXPECT_GT(stats.frozen_fraction, 0.1);
  EXPECT_LT(stats.full_sweep_iterations, stats.iterations);
}

// The default activation policy (deferred marking) turns frontiers on by
// itself once enough deltas are sub-tolerance, and keeps the bound.
TEST(ActiveSetTolerance, DefaultActivationWithinBound) {
  const Graph g = MakeChainGraph();
  FSimConfig config;
  config.w_out = 0.4;
  config.w_in = 0.3;
  config.epsilon = 1e-10;
  const FSimStats stats = ExpectWithinToleranceBound(
      g, config, /*tolerance=*/1e-6, "default activation");
  EXPECT_LT(stats.full_sweep_iterations, stats.iterations);
  EXPECT_GT(stats.frozen_fraction, 0.0);
}

// frontier_density_threshold = 0 forces every iteration through the
// full-sweep fallback: the run is then the full-sweep run bit for bit and
// reports full_sweep_iterations == iterations. Threshold 1 takes every
// frontier short of all pairs.
TEST(ActiveSetTolerance, DenseFrontierFallback) {
  const Graph g = MakeChainGraph();
  FSimConfig config;
  config.w_out = 0.7;
  config.w_in = 0.0;
  config.epsilon = 1e-12;
  auto full = ComputeFSimSelf(g, config);
  ASSERT_TRUE(full.ok());
  config.frontier_tolerance = 1e-6;
  config.active_set_activation_fraction = 0.0;
  config.frontier_density_threshold = 0.0;
  auto dense = ComputeFSimSelf(g, config);
  ASSERT_TRUE(dense.ok());
  EXPECT_EQ(dense->stats().full_sweep_iterations, dense->stats().iterations);
  EXPECT_EQ(dense->stats().iterations, full->stats().iterations);
  EXPECT_EQ(dense->values(), full->values());
  config.frontier_density_threshold = 1.0;
  auto sparse = ComputeFSimSelf(g, config);
  ASSERT_TRUE(sparse.ok());
  EXPECT_LT(sparse->stats().full_sweep_iterations,
            sparse->stats().iterations);
  EXPECT_LE(MaxDiff(*sparse, *full),
            ToleranceBound(config, sparse->stats(), full->stats()));
}

// Single-direction configs: the reverse-dependency lists come from the
// opposite-direction spans, which exist only for the frontiers' sake.
TEST(ActiveSetTolerance, SimRankConfigWithinBound) {
  LabelingOptions lo;
  lo.num_labels = 1;
  const Graph g = ErdosRenyi(14, 40, lo, 31);
  FSimConfig config = SimRankFSimConfig(0.8);  // w_out = 0, pin_diagonal
  config.epsilon = 1e-8;
  config.active_set_activation_fraction = 0.0;
  ExpectWithinToleranceBound(g, config, /*tolerance=*/1e-4, "simrank");
}

TEST(ActiveSetTolerance, RoleSimUndirectedWithinBound) {
  LabelingOptions lo;
  lo.num_labels = 1;
  const Graph g = ErdosRenyi(12, 30, lo, 47).AsUndirected();
  FSimConfig config = RoleSimFSimConfig(0.15);  // w_in = 0, empty in-lists
  config.epsilon = 1e-8;
  config.active_set_activation_fraction = 0.0;
  ExpectWithinToleranceBound(g, config, /*tolerance=*/1e-4, "rolesim");
}

// A single-direction config doubles its span bound when the frontiers
// widen the index (at θ = 0, Σ outdeg(u)·outdeg(v) = Σ indeg(u)·indeg(v)
// = |E|²). When only the widened layout blows the budget, the build must
// fall back to the evaluation-only index — index still built, active set
// reporting off, full-sweep scores — instead of failing the build.
TEST(ActiveSetTolerance, BudgetFallsBackToEvaluationOnlyIndex) {
  const Graph g = MakeDenseRandomGraph(3, 12);
  FSimConfig config;
  config.w_out = 0.7;
  config.w_in = 0.0;
  config.theta = 0.0;
  config.epsilon = 1e-6;
  auto full = ComputeFSimSelf(g, config);
  ASSERT_TRUE(full.ok());
  config.frontier_tolerance = 1e-4;
  auto active = ComputeFSimSelf(g, config);
  ASSERT_TRUE(active.ok());
  EXPECT_TRUE(active->stats().active_set);
  EXPECT_LE(MaxDiff(*active, *full),
            ToleranceBound(config, active->stats(), full->stats()));

  const uint64_t entry_bytes = active->stats().packed_neighbor_refs
                                   ? sizeof(PackedNeighborRef)
                                   : sizeof(NeighborRef);
  const uint64_t pairs =
      static_cast<uint64_t>(g.NumNodes()) * g.NumNodes();
  const uint64_t edges = g.NumEdges();
  const uint64_t bound_base =
      edges * edges * entry_bytes + (2 * pairs + 1) * sizeof(uint64_t);
  config.neighbor_index_budget_bytes = bound_base;  // widened = 2x entries
  auto limited = ComputeFSimSelf(g, config);
  ASSERT_TRUE(limited.ok()) << limited.status().ToString();
  EXPECT_GT(limited->stats().neighbor_index_bytes, 0u);
  EXPECT_FALSE(limited->stats().active_set);
  EXPECT_EQ(limited->values(), full->values());
}

// Upper-bound pruning with α > 0 plants tagged pruned-table refs in the
// spans; frontier marking must skip them (their bounds never change).
TEST(ActiveSetTolerance, PrunedRefsAreSkipped) {
  const Graph g = MakeDenseRandomGraph(5);
  FSimConfig config;
  config.label_sim = LabelSimKind::kEditDistance;
  config.theta = 0.4;
  config.w_out = 0.35;
  config.w_in = 0.35;
  config.upper_bound = true;
  config.alpha = 0.3;
  config.beta = 0.35;
  config.epsilon = 1e-8;
  config.active_set_activation_fraction = 0.0;
  ExpectWithinToleranceBound(g, config, /*tolerance=*/1e-4, "pruned-alpha");
}

// Tolerance mode at a coarse τ: scores stay within its bound of the
// full-sweep scores, and work is actually skipped.
TEST(ActiveSetTolerance, ErrorBoundHolds) {
  const Graph g = MakeDenseRandomGraph(21);
  FSimConfig config;
  config.label_sim = LabelSimKind::kEditDistance;
  config.theta = 0.0;
  config.w_out = 0.35;
  config.w_in = 0.35;
  config.epsilon = 1e-9;
  config.active_set_activation_fraction = 0.0;
  auto off = ComputeFSimSelf(g, config);
  ASSERT_TRUE(off.ok());
  config.frontier_tolerance = 1e-3;
  auto tol = ComputeFSimSelf(g, config);
  ASSERT_TRUE(tol.ok()) << tol.status().ToString();

  const double w = config.w_out + config.w_in;
  const double bound =
      config.frontier_tolerance * (1.0 + w) / (1.0 - w) + 1e-6;
  EXPECT_LE(MaxDiff(*tol, *off), bound);
  // The skipping must be real: fewer evaluations than iterations * pairs.
  EXPECT_GT(tol->stats().frozen_fraction, 0.0);
  EXPECT_LE(tol->stats().iterations, off->stats().iterations);

  // IncrementalFSim's initial solve runs on the same driver, so its
  // tolerance mode — per-worker influence trackers at any thread count —
  // keeps the same bound against its own full-sweep solve.
  for (int threads : {1, 3}) {
    config.num_threads = threads;
    config.frontier_tolerance = 1e-3;
    auto inc_tol = IncrementalFSim::Create(g, g, config);
    ASSERT_TRUE(inc_tol.ok()) << inc_tol.status().ToString();
    config.frontier_tolerance = 0.0;
    auto inc_full = IncrementalFSim::Create(g, g, config);
    ASSERT_TRUE(inc_full.ok());
    const FSimScores a = inc_tol->Snapshot();
    const FSimScores b = inc_full->Snapshot();
    EXPECT_LE(MaxDiff(a, b), bound) << "t=" << threads;
    EXPECT_GT(a.stats().frozen_fraction, 0.0) << "t=" << threads;
  }
}

// The top-k all-pairs engine shares the driver and widens its
// certification radius by the tolerance bound, so a set it certifies is
// the full-sweep run's certified set.
TEST(ActiveSetTopK, TopKPairsWithinBound) {
  const Graph g = MakeDenseRandomGraph(9);
  FSimConfig config;
  config.label_sim = LabelSimKind::kEditDistance;
  config.theta = 0.4;
  config.w_out = 0.35;
  config.w_in = 0.35;
  config.epsilon = 1e-6;
  config.active_set_activation_fraction = 0.0;
  TopKPairsOptions options;
  options.k = 8;
  options.exclude_diagonal = true;
  auto full = ComputeTopKPairs(g, g, config, options);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  config.frontier_tolerance = 1e-4;
  auto tol = ComputeTopKPairs(g, g, config, options);
  ASSERT_TRUE(tol.ok()) << tol.status().ToString();
  ASSERT_TRUE(full->certified);
  ASSERT_TRUE(tol->certified);
  const double w = config.w_out + config.w_in;
  const double slack = config.frontier_tolerance * (1.0 + w) / (1.0 - w);
  EXPECT_GE(tol->radius, slack);
  ASSERT_EQ(tol->pairs.size(), full->pairs.size());
  auto sorted_pairs = [](const TopKPairsResult& result) {
    std::vector<uint64_t> keys;
    for (const ScoredPair& p : result.pairs) keys.push_back(PairKey(p.u, p.v));
    std::sort(keys.begin(), keys.end());
    return keys;
  };
  EXPECT_EQ(sorted_pairs(*tol), sorted_pairs(*full));
  for (size_t i = 0; i < tol->pairs.size(); ++i) {
    EXPECT_NEAR(tol->pairs[i].score, full->pairs[i].score,
                tol->radius + full->radius)
        << i;
  }
}

// IncrementalFSim's initial solve (the serving layer's warm-start path)
// runs ComputeFSim's sparse solve on the same driver: by default full
// sweeps, equal bit for bit to ComputeFSim at any thread count, with the
// same iterate stats — on transpose-consistent and undirected graphs, and
// under SimRank's pin_diagonal — and with frontier_tolerance > 0 within
// the tolerance bound, skipping work where pairs settle.
TEST(ActiveSetIncremental, InitialSolveLockstep) {
  LabelingOptions lo;
  lo.num_labels = 3;
  const Graph directed = ErdosRenyi(16, 48, lo, 77);
  LabelingOptions lo1;
  lo1.num_labels = 1;
  const Graph undirected = ErdosRenyi(12, 30, lo1, 13).AsUndirected();
  const Graph unlabeled = ErdosRenyi(14, 40, lo1, 31);
  const Graph chain = MakeChainGraph();
  const Graph ladder = MakeLadderGraph();
  struct Case {
    const Graph* g;
    FSimConfig config;
    const char* name;
    bool settles;  // pairs settle, so the frontiers shrink
  };
  FSimConfig plain;
  plain.w_out = 0.4;
  plain.w_in = 0.4;
  plain.epsilon = 1e-8;
  FSimConfig rolesim = RoleSimFSimConfig(0.15);
  rolesim.epsilon = 1e-8;
  FSimConfig simrank = SimRankFSimConfig(0.8);
  simrank.epsilon = 1e-8;
  const Case cases[] = {{&directed, plain, "directed", false},
                        {&undirected, rolesim, "undirected", false},
                        {&unlabeled, simrank, "simrank", false},
                        {&chain, plain, "chain", true},
                        {&ladder, simrank, "ladder simrank", true}};
  for (const Case& c : cases) {
    std::vector<double> single_thread;
    for (int threads : {1, 3}) {
      const std::string name =
          std::string(c.name) + " t=" + std::to_string(threads);
      FSimConfig config = c.config;
      config.num_threads = threads;
      config.active_set_activation_fraction = 0.0;
      auto full = IncrementalFSim::Create(*c.g, *c.g, config);
      ASSERT_TRUE(full.ok()) << name << ": " << full.status().ToString();
      auto batch = ComputeFSim(*c.g, *c.g, config);
      ASSERT_TRUE(batch.ok()) << name;
      const FSimScores a = full->Snapshot();
      EXPECT_EQ(a.values(), batch->values()) << name;
      if (threads == 1) {
        single_thread = a.values();
      } else {
        EXPECT_EQ(a.values(), single_thread) << name;
      }
      const FSimStats& sa = a.stats();
      EXPECT_GT(sa.iterations, 1u) << name;
      EXPECT_EQ(sa.iterations, batch->stats().iterations) << name;
      EXPECT_EQ(sa.final_delta, batch->stats().final_delta) << name;
      EXPECT_LT(sa.final_delta, config.epsilon) << name;
      EXPECT_FALSE(sa.active_set) << name;
      EXPECT_EQ(sa.full_sweep_iterations, sa.iterations) << name;
      EXPECT_EQ(sa.frozen_fraction, 0.0) << name;
      EXPECT_GT(sa.iterate_seconds, 0.0) << name;

      config.frontier_tolerance = 1e-6;
      auto tol = IncrementalFSim::Create(*c.g, *c.g, config);
      ASSERT_TRUE(tol.ok()) << name << ": " << tol.status().ToString();
      const FSimScores b = tol->Snapshot();
      const FSimStats& sb = b.stats();
      EXPECT_TRUE(sb.active_set) << name;
      EXPECT_LE(MaxDiff(b, a), ToleranceBound(config, sb, sa)) << name;
      EXPECT_GT(sb.iterate_seconds, 0.0) << name;
      // The engine solves on a store whose reverse-span layout spans
      // pinned diagonal pairs too, so one forced full sweep suffices
      // under pin_diagonal as well.
      EXPECT_LT(sb.frozen_fraction, 1.0) << name;
      if (c.settles) {
        EXPECT_EQ(sb.full_sweep_iterations, 1u) << name;
        EXPECT_GT(sb.frozen_fraction, 0.0) << name;
      }
    }
  }
}

// Invalid frontier knobs are rejected up front; τ = 0 is the default.
TEST(ActiveSetConfig, Validation) {
  const Graph g = MakeChainGraph(6);
  FSimConfig config;
  config.frontier_tolerance = -1e-6;
  EXPECT_FALSE(ComputeFSimSelf(g, config).ok());
  config.frontier_tolerance = 1e-3;
  config.frontier_density_threshold = 1.5;
  EXPECT_FALSE(ComputeFSimSelf(g, config).ok());
  config.frontier_density_threshold = 0.5;
  config.active_set_activation_fraction = -0.1;
  EXPECT_FALSE(ComputeFSimSelf(g, config).ok());
  config.active_set_activation_fraction = 0.125;
  EXPECT_TRUE(ComputeFSimSelf(g, config).ok());
  config.frontier_tolerance = 0.0;
  EXPECT_TRUE(ComputeFSimSelf(g, config).ok());
}

}  // namespace
}  // namespace fsim
