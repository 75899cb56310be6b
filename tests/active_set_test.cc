// Lockstep tests for the delta-driven active-set iterate driver
// (core/pair_evaluator.h ActiveSetDriver, docs/performance.md "Active-set
// iteration"): exact mode must be bit-identical to full sweeps — same
// scores, same iteration count, same convergence decision — across the
// MappingKind x OmegaKind x matching x θ sweep (s and b at θ = 0 run on
// the tile panels instead, so they are swept at θ > 0), including the
// dense-frontier fallback, single-direction configs (whose reverse
// dependency lists come from the opposite-direction spans), the
// AsUndirected adaptation (out-span doubles as its own dependent list),
// pruned-ref skipping, and the top-k and incremental engines that share
// the machinery. Tolerance mode must stay within its documented
// frontier_tolerance * (1 + w) / (1 - w) error bound while actually
// skipping work.
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

/// A directed chain: dependencies have bounded depth, so pairs freeze
/// *exactly* (bit-level) wave by wave from the chain's tail — the
/// deterministic workload where exact-mode frontiers provably shrink.
Graph MakeChainGraph(uint32_t n = 30) {
  static const char* kLabels[] = {"x", "y"};
  GraphBuilder builder;
  for (uint32_t i = 0; i < n; ++i) builder.AddNode(kLabels[i % 2]);
  for (uint32_t i = 0; i + 1 < n; ++i) builder.AddEdge(i, i + 1);
  return std::move(builder).BuildOrDie();
}

/// Two sources feeding the heads of two parallel chains: an unlabeled DAG
/// on which SimRank scores settle exactly, level by level, so exact-mode
/// frontiers shrink under pin_diagonal too.
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

/// Runs `config` with the exact active set (marking from iteration 1) and
/// with the active set off, and asserts the runs are indistinguishable:
/// same pair set, same scores bit for bit, same iteration count and
/// convergence flag.
void ExpectExactLockstep(const Graph& g, FSimConfig config,
                         const std::string& context) {
  config.neighbor_index_budget_bytes = 1ULL << 30;
  config.active_set = ActiveSetMode::kExact;
  config.active_set_activation_fraction = 0.0;  // pin the frontier path
  auto active = ComputeFSimSelf(g, config);
  ASSERT_TRUE(active.ok()) << context << ": " << active.status().ToString();
  EXPECT_TRUE(active->stats().active_set) << context;

  config.active_set = ActiveSetMode::kOff;
  auto off = ComputeFSimSelf(g, config);
  ASSERT_TRUE(off.ok()) << context << ": " << off.status().ToString();
  EXPECT_FALSE(off->stats().active_set) << context;

  ASSERT_EQ(active->keys().size(), off->keys().size()) << context;
  EXPECT_EQ(active->stats().iterations, off->stats().iterations) << context;
  EXPECT_EQ(active->stats().converged, off->stats().converged) << context;
  for (size_t i = 0; i < active->keys().size(); ++i) {
    ASSERT_EQ(active->keys()[i], off->keys()[i]) << context;
    // Bit-identical, not just close: frozen pairs carry their exact value.
    ASSERT_EQ(active->values()[i], off->values()[i])
        << context << " pair " << i << " (u="
        << PairFirst(active->keys()[i]) << ", v="
        << PairSecond(active->keys()[i]) << ")";
  }
  const auto& history = active->stats().active_pairs_history;
  ASSERT_EQ(history.size(), active->stats().iterations) << context;
  if (!history.empty()) {
    EXPECT_EQ(history.front(), active->stats().maintained_pairs) << context;
  }
}

const MappingKind kAllMappings[] = {
    MappingKind::kMaxPerRow, MappingKind::kInjectiveRow,
    MappingKind::kMaxBothSides, MappingKind::kInjectiveSym,
    MappingKind::kProduct};
const OmegaKind kAllOmegas[] = {OmegaKind::kSizeS1, OmegaKind::kSumSizes,
                                OmegaKind::kGeoMean, OmegaKind::kMaxSize,
                                OmegaKind::kProduct};

using SweepParam = std::tuple<MappingKind, OmegaKind, MatchingAlgo>;

class ActiveSetLockstep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ActiveSetLockstep, ExactModeMatchesFullSweeps) {
  const auto [mapping, omega, matching] = GetParam();
  const Graph g = MakeDenseRandomGraph(/*seed=*/11 + static_cast<int>(omega));
  for (double theta : {0.0, 0.4}) {
    FSimConfig config;
    config.operator_override = OperatorConfig{mapping, omega};
    config.matching = matching;
    config.label_sim = LabelSimKind::kEditDistance;
    config.theta = theta;
    config.w_out = 0.35;
    config.w_in = 0.35;
    config.epsilon = 1e-6;  // enough iterations for frontiers to matter
    // At θ = 0, s and b iterate on the tile panels in full sweeps, with no
    // active set (tests/panel_engine_test.cc); their lockstep is the θ > 0
    // leg.
    if (RunsOnTilePanels(config)) continue;
    ExpectExactLockstep(g, config,
                        "theta=" + std::to_string(theta));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Operators, ActiveSetLockstep,
    ::testing::Combine(::testing::ValuesIn(kAllMappings),
                       ::testing::ValuesIn(kAllOmegas),
                       ::testing::Values(MatchingAlgo::kGreedy,
                                         MatchingAlgo::kHungarian)));

// On the chain, dependencies have bounded depth, so the exact frontier
// must actually shrink (pairs freeze bit-exactly wave by wave) and the
// sparse-commit path is exercised for real.
TEST(ActiveSetExact, ChainFrontierShrinks) {
  const Graph g = MakeChainGraph();
  FSimConfig config;
  config.w_out = 0.7;
  config.w_in = 0.0;
  config.epsilon = 1e-12;
  config.active_set = ActiveSetMode::kExact;
  config.active_set_activation_fraction = 0.0;
  auto active = ComputeFSimSelf(g, config);
  ASSERT_TRUE(active.ok()) << active.status().ToString();
  const auto& stats = active->stats();
  ASSERT_TRUE(stats.active_set);
  ASSERT_GT(stats.active_pairs_history.size(), 2u);
  EXPECT_LT(stats.active_pairs_history.back(),
            stats.active_pairs_history.front());
  EXPECT_GT(stats.frozen_fraction, 0.1);
  EXPECT_LT(stats.full_sweep_iterations, stats.iterations);

  config.active_set = ActiveSetMode::kOff;
  auto off = ComputeFSimSelf(g, config);
  ASSERT_TRUE(off.ok());
  ASSERT_EQ(active->keys().size(), off->keys().size());
  EXPECT_EQ(active->stats().iterations, off->stats().iterations);
  for (size_t i = 0; i < active->values().size(); ++i) {
    ASSERT_EQ(active->values()[i], off->values()[i]) << "pair " << i;
  }
}

// The default activation policy (deferred marking) must not change results
// either — only when marking starts.
TEST(ActiveSetExact, DefaultActivationLockstep) {
  const Graph g = MakeChainGraph();
  FSimConfig config;
  config.w_out = 0.4;
  config.w_in = 0.3;
  config.epsilon = 1e-10;
  auto active = ComputeFSimSelf(g, config);  // defaults: kExact, 0.125
  ASSERT_TRUE(active.ok());
  config.active_set = ActiveSetMode::kOff;
  auto off = ComputeFSimSelf(g, config);
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(active->stats().iterations, off->stats().iterations);
  for (size_t i = 0; i < active->values().size(); ++i) {
    ASSERT_EQ(active->values()[i], off->values()[i]) << "pair " << i;
  }
}

// frontier_density_threshold = 0 forces every iteration through the
// full-sweep fallback; the run must still be bit-identical and report
// full_sweep_iterations == iterations.
TEST(ActiveSetExact, DenseFrontierFallback) {
  const Graph g = MakeChainGraph();
  FSimConfig config;
  config.w_out = 0.7;
  config.w_in = 0.0;
  config.epsilon = 1e-12;
  config.active_set = ActiveSetMode::kExact;
  config.active_set_activation_fraction = 0.0;
  config.frontier_density_threshold = 0.0;
  auto dense = ComputeFSimSelf(g, config);
  ASSERT_TRUE(dense.ok());
  EXPECT_EQ(dense->stats().full_sweep_iterations, dense->stats().iterations);
  config.frontier_density_threshold = 1.0;
  auto sparse = ComputeFSimSelf(g, config);
  ASSERT_TRUE(sparse.ok());
  EXPECT_LT(sparse->stats().full_sweep_iterations,
            sparse->stats().iterations);
  ASSERT_EQ(dense->values().size(), sparse->values().size());
  for (size_t i = 0; i < dense->values().size(); ++i) {
    ASSERT_EQ(dense->values()[i], sparse->values()[i]) << "pair " << i;
  }
}

// Single-direction configs: the reverse-dependency lists come from the
// opposite-direction spans, which exist only for the active set's sake.
TEST(ActiveSetExact, SimRankConfigLockstep) {
  LabelingOptions lo;
  lo.num_labels = 1;
  const Graph g = ErdosRenyi(14, 40, lo, 31);
  FSimConfig config = SimRankFSimConfig(0.8);  // w_out = 0, pin_diagonal
  config.epsilon = 1e-8;
  ExpectExactLockstep(g, config, "simrank");
}

TEST(ActiveSetExact, RoleSimUndirectedLockstep) {
  LabelingOptions lo;
  lo.num_labels = 1;
  const Graph g = ErdosRenyi(12, 30, lo, 47).AsUndirected();
  FSimConfig config = RoleSimFSimConfig(0.15);  // w_in = 0, empty in-lists
  config.epsilon = 1e-8;
  ExpectExactLockstep(g, config, "rolesim");
}

// A single-direction config doubles its span bound when the active set
// widens the index (at θ = 0, Σ outdeg(u)·outdeg(v) = Σ indeg(u)·indeg(v)
// = |E|²). When only the widened layout blows the budget, the build must
// fall back to the evaluation-only index — index still built, active set
// reporting off, scores unchanged — instead of failing the build.
TEST(ActiveSetExact, BudgetFallsBackToEvaluationOnlyIndex) {
  const Graph g = MakeDenseRandomGraph(3, 12);
  FSimConfig config;
  config.w_out = 0.7;
  config.w_in = 0.0;
  config.theta = 0.0;
  config.epsilon = 1e-6;
  auto active = ComputeFSimSelf(g, config);
  ASSERT_TRUE(active.ok());
  EXPECT_TRUE(active->stats().active_set);

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

  config.active_set = ActiveSetMode::kOff;
  auto off = ComputeFSimSelf(g, config);
  ASSERT_TRUE(off.ok());
  ASSERT_EQ(limited->values().size(), off->values().size());
  for (size_t i = 0; i < off->values().size(); ++i) {
    ASSERT_EQ(limited->values()[i], off->values()[i]) << "pair " << i;
    ASSERT_EQ(active->values()[i], off->values()[i]) << "pair " << i;
  }
}

// Upper-bound pruning with α > 0 plants tagged pruned-table refs in the
// spans; frontier marking must skip them (their bounds never change).
TEST(ActiveSetExact, PrunedRefsAreSkipped) {
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
  ExpectExactLockstep(g, config, "pruned-alpha");
}

// Tolerance mode: scores stay within frontier_tolerance * (1 + w) / (1 - w)
// of the full-sweep scores (both runs converged far below the tolerance,
// so the termination residual is negligible), and work is actually skipped.
TEST(ActiveSetTolerance, ErrorBoundHolds) {
  const Graph g = MakeDenseRandomGraph(21);
  FSimConfig config;
  config.label_sim = LabelSimKind::kEditDistance;
  config.theta = 0.0;
  config.w_out = 0.35;
  config.w_in = 0.35;
  config.epsilon = 1e-9;
  config.active_set = ActiveSetMode::kTolerance;
  config.frontier_tolerance = 1e-3;
  config.active_set_activation_fraction = 0.0;
  auto tol = ComputeFSimSelf(g, config);
  ASSERT_TRUE(tol.ok()) << tol.status().ToString();
  config.active_set = ActiveSetMode::kOff;
  auto off = ComputeFSimSelf(g, config);
  ASSERT_TRUE(off.ok());

  const double w = config.w_out + config.w_in;
  const double bound =
      config.frontier_tolerance * (1.0 + w) / (1.0 - w) + 1e-6;
  double max_diff = 0.0;
  for (size_t i = 0; i < tol->values().size(); ++i) {
    max_diff = std::max(max_diff,
                        std::abs(tol->values()[i] - off->values()[i]));
  }
  EXPECT_LE(max_diff, bound);
  // The skipping must be real: fewer evaluations than iterations * pairs.
  EXPECT_GT(tol->stats().frozen_fraction, 0.0);
  EXPECT_LE(tol->stats().iterations, off->stats().iterations);

  // IncrementalFSim's initial solve runs on the same driver, so its
  // tolerance mode — per-worker influence trackers at any thread count —
  // keeps the same bound against its own exact-mode solve.
  for (int threads : {1, 3}) {
    config.num_threads = threads;
    config.active_set = ActiveSetMode::kTolerance;
    auto inc_tol = IncrementalFSim::Create(g, g, config);
    ASSERT_TRUE(inc_tol.ok()) << inc_tol.status().ToString();
    config.active_set = ActiveSetMode::kExact;
    auto inc_exact = IncrementalFSim::Create(g, g, config);
    ASSERT_TRUE(inc_exact.ok());
    const FSimScores a = inc_tol->Snapshot();
    const FSimScores b = inc_exact->Snapshot();
    ASSERT_EQ(a.keys(), b.keys());
    double inc_diff = 0.0;
    for (size_t i = 0; i < a.values().size(); ++i) {
      inc_diff = std::max(inc_diff, std::abs(a.values()[i] - b.values()[i]));
    }
    EXPECT_LE(inc_diff, bound) << "t=" << threads;
    EXPECT_GT(a.stats().frozen_fraction, 0.0) << "t=" << threads;
  }
}

// The top-k all-pairs engine shares the driver; its certified result must
// not depend on the scheduling mode.
TEST(ActiveSetTopK, TopKPairsLockstep) {
  const Graph g = MakeDenseRandomGraph(9);
  FSimConfig config;
  config.label_sim = LabelSimKind::kEditDistance;
  config.theta = 0.4;
  config.w_out = 0.35;
  config.w_in = 0.35;
  config.epsilon = 1e-6;
  config.active_set = ActiveSetMode::kExact;
  config.active_set_activation_fraction = 0.0;
  TopKPairsOptions options;
  options.k = 8;
  options.exclude_diagonal = true;
  auto active = ComputeTopKPairs(g, g, config, options);
  ASSERT_TRUE(active.ok()) << active.status().ToString();
  config.active_set = ActiveSetMode::kOff;
  auto off = ComputeTopKPairs(g, g, config, options);
  ASSERT_TRUE(off.ok());
  ASSERT_EQ(active->pairs.size(), off->pairs.size());
  EXPECT_EQ(active->iterations, off->iterations);
  EXPECT_EQ(active->certified, off->certified);
  for (size_t i = 0; i < active->pairs.size(); ++i) {
    EXPECT_EQ(active->pairs[i].u, off->pairs[i].u) << i;
    EXPECT_EQ(active->pairs[i].v, off->pairs[i].v) << i;
    EXPECT_EQ(active->pairs[i].score, off->pairs[i].score) << i;
  }
}

// IncrementalFSim's initial solve runs on ActiveSetDriver (the serving
// layer's warm-start path): exact mode must match the off-mode solve bit
// for bit at any thread count — on transpose-consistent and undirected
// graphs, and under SimRank's pin_diagonal — and its iterate stats must
// describe the same loop ComputeFSim runs.
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
    bool freezes;  // exact frontiers shrink below the density threshold
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
      config.active_set = ActiveSetMode::kExact;
      config.active_set_activation_fraction = 0.0;
      auto active = IncrementalFSim::Create(*c.g, *c.g, config);
      ASSERT_TRUE(active.ok()) << name << ": " << active.status().ToString();
      auto batch = ComputeFSim(*c.g, *c.g, config);
      ASSERT_TRUE(batch.ok()) << name;
      config.active_set = ActiveSetMode::kOff;
      auto off = IncrementalFSim::Create(*c.g, *c.g, config);
      ASSERT_TRUE(off.ok()) << name;
      FSimScores a = active->Snapshot();
      FSimScores b = off->Snapshot();
      ASSERT_EQ(a.values().size(), b.values().size()) << name;
      EXPECT_EQ(a.stats().converged, b.stats().converged) << name;
      for (size_t i = 0; i < a.values().size(); ++i) {
        ASSERT_EQ(a.values()[i], b.values()[i]) << name << " pair " << i;
      }
      if (threads == 1) {
        single_thread = a.values();
      } else {
        ASSERT_EQ(a.values(), single_thread) << name;
      }

      // The iterate stats: exact mode runs the full-sweep trajectory, so
      // the iteration count and final delta agree with the off-mode solve
      // and with ComputeFSim's.
      const FSimStats& sa = a.stats();
      const FSimStats& sb = b.stats();
      EXPECT_GT(sa.iterations, 1u) << name;
      EXPECT_EQ(sa.iterations, sb.iterations) << name;
      EXPECT_EQ(sa.final_delta, sb.final_delta) << name;
      EXPECT_EQ(sa.iterations, batch->stats().iterations) << name;
      EXPECT_EQ(sa.final_delta, batch->stats().final_delta) << name;
      EXPECT_LT(sa.final_delta, config.epsilon) << name;
      EXPECT_TRUE(sa.active_set) << name;
      EXPECT_FALSE(sb.active_set) << name;
      EXPECT_EQ(sb.full_sweep_iterations, sb.iterations) << name;
      EXPECT_EQ(sb.frozen_fraction, 0.0) << name;
      EXPECT_GT(sa.iterate_seconds, 0.0) << name;
      EXPECT_GT(sb.iterate_seconds, 0.0) << name;
      // The engine solves on ComputeFSim's store, whose reverse-span layout
      // spans pinned diagonal pairs too, so one forced full sweep suffices
      // under pin_diagonal as well.
      EXPECT_LE(sa.full_sweep_iterations, sa.iterations) << name;
      EXPECT_LT(sa.frozen_fraction, 1.0) << name;
      if (c.freezes) {
        EXPECT_EQ(sa.full_sweep_iterations, 1u) << name;
        EXPECT_EQ(batch->stats().full_sweep_iterations, 1u) << name;
        EXPECT_GT(sa.frozen_fraction, 0.0) << name;
      } else {
        EXPECT_EQ(sa.full_sweep_iterations, sa.iterations) << name;
        EXPECT_EQ(sa.frozen_fraction, 0.0) << name;
      }
    }
  }
}

// Invalid active-set knobs are rejected up front.
TEST(ActiveSetConfig, Validation) {
  const Graph g = MakeChainGraph(6);
  FSimConfig config;
  config.active_set = ActiveSetMode::kTolerance;
  config.frontier_tolerance = 0.0;
  EXPECT_FALSE(ComputeFSimSelf(g, config).ok());
  config.frontier_tolerance = 1e-3;
  config.frontier_density_threshold = 1.5;
  EXPECT_FALSE(ComputeFSimSelf(g, config).ok());
  config.frontier_density_threshold = 0.5;
  config.active_set_activation_fraction = -0.1;
  EXPECT_FALSE(ComputeFSimSelf(g, config).ok());
  config.active_set_activation_fraction = 0.125;
  EXPECT_TRUE(ComputeFSimSelf(g, config).ok());
}

}  // namespace
}  // namespace fsim
