// Tests for the dynamic-graph extensions: single-edge graph edits
// (graph/edits.h), the edit-capable DynamicGraph (graph/dynamic_graph.h),
// ComputeFSim's θ = 0 tile-panel path (core/panel_engine.h, differential
// against the sparse driver), the maintained pair-graph neighbor index
// (core/pair_store.h, differential against a fresh build) and
// incremental FSim maintenance (core/incremental.h, property-tested against
// full recomputation, plus its neighbor-index budget ceiling).
#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/fsim_engine.h"
#include "core/incremental.h"
#include "core/pair_store.h"
#include "core/panel_engine.h"
#include "graph/dynamic_graph.h"
#include "graph/edits.h"
#include "graph/graph_builder.h"
#include "gtest/gtest.h"
#include "test_graphs.h"
#include "tests/path_oracles.h"

namespace fsim {
namespace {

using ::fsim::testing::MakeFigure1;
using ::fsim::testing::MakeRandomPair;

// ---------------------------------------------------------------------------
// Graph edits
// ---------------------------------------------------------------------------

TEST(GraphEdits, AddsEdgePreservingEverythingElse) {
  auto pair = MakeRandomPair(7);
  const Graph& g = pair.g1;
  // Find a missing edge.
  NodeId from = 0, to = 0;
  bool found = false;
  for (NodeId u = 0; u < g.NumNodes() && !found; ++u) {
    for (NodeId v = 0; v < g.NumNodes() && !found; ++v) {
      if (u != v && !g.HasEdge(u, v)) {
        from = u;
        to = v;
        found = true;
      }
    }
  }
  ASSERT_TRUE(found);

  auto edited = WithEdgeAdded(g, from, to);
  ASSERT_TRUE(edited.ok()) << edited.status().ToString();
  EXPECT_EQ(edited->NumNodes(), g.NumNodes());
  EXPECT_EQ(edited->NumEdges(), g.NumEdges() + 1);
  EXPECT_TRUE(edited->HasEdge(from, to));
  EXPECT_EQ(edited->dict(), g.dict());
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    EXPECT_EQ(edited->Label(u), g.Label(u));
    for (NodeId w : g.OutNeighbors(u)) EXPECT_TRUE(edited->HasEdge(u, w));
  }
}

TEST(GraphEdits, AddExistingEdgeIsAlreadyExists) {
  auto pair = MakeRandomPair(8);
  const Graph& g = pair.g1;
  ASSERT_GT(g.NumEdges(), 0u);
  NodeId u = 0;
  while (g.OutDegree(u) == 0) ++u;
  NodeId w = g.OutNeighbors(u)[0];
  auto edited = WithEdgeAdded(g, u, w);
  ASSERT_FALSE(edited.ok());
  EXPECT_EQ(edited.status().code(), StatusCode::kAlreadyExists);
}

TEST(GraphEdits, OutOfRangeEndpointsRejected) {
  auto pair = MakeRandomPair(9);
  const Graph& g = pair.g1;
  NodeId n = static_cast<NodeId>(g.NumNodes());
  EXPECT_EQ(WithEdgeAdded(g, n, 0).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(WithEdgeAdded(g, 0, n).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(WithEdgeRemoved(g, n, 0).status().code(),
            StatusCode::kOutOfRange);
}

TEST(GraphEdits, RemoveAbsentEdgeIsNotFound) {
  GraphBuilder b;
  NodeId a = b.AddNode("x");
  NodeId c = b.AddNode("x");
  b.AddEdge(a, c);
  Graph g = std::move(b).BuildOrDie();
  auto removed = WithEdgeRemoved(g, c, a);
  ASSERT_FALSE(removed.ok());
  EXPECT_EQ(removed.status().code(), StatusCode::kNotFound);
}

TEST(GraphEdits, AddThenRemoveRoundTrips) {
  auto pair = MakeRandomPair(10);
  const Graph& g = pair.g1;
  NodeId from = 1, to = 3;
  if (g.HasEdge(from, to)) {
    auto removed = WithEdgeRemoved(g, from, to);
    ASSERT_TRUE(removed.ok());
    auto readded = WithEdgeAdded(*removed, from, to);
    ASSERT_TRUE(readded.ok());
    EXPECT_EQ(readded->NumEdges(), g.NumEdges());
    for (NodeId u = 0; u < g.NumNodes(); ++u) {
      for (NodeId w : g.OutNeighbors(u)) EXPECT_TRUE(readded->HasEdge(u, w));
    }
  } else {
    auto added = WithEdgeAdded(g, from, to);
    ASSERT_TRUE(added.ok());
    auto removed = WithEdgeRemoved(*added, from, to);
    ASSERT_TRUE(removed.ok());
    EXPECT_EQ(removed->NumEdges(), g.NumEdges());
    EXPECT_FALSE(removed->HasEdge(from, to));
  }
}

// ---------------------------------------------------------------------------
// DynamicGraph: O(deg) edits with a Graph-compatible read API
// ---------------------------------------------------------------------------

TEST(DynamicGraph, MirrorsSourceGraphAndRoundTrips) {
  auto pair = MakeRandomPair(41);
  const Graph& g = pair.g1;
  DynamicGraph d(g);
  EXPECT_EQ(d.NumNodes(), g.NumNodes());
  EXPECT_EQ(d.NumEdges(), g.NumEdges());
  EXPECT_EQ(d.dict(), g.dict());
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    EXPECT_EQ(d.Label(u), g.Label(u));
    EXPECT_EQ(d.OutDegree(u), g.OutDegree(u));
    EXPECT_EQ(d.InDegree(u), g.InDegree(u));
    auto expect_equal = [&](std::span<const NodeId> a,
                            std::span<const NodeId> b) {
      ASSERT_EQ(a.size(), b.size());
      for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
    };
    expect_equal(d.OutNeighbors(u), g.OutNeighbors(u));
    expect_equal(d.InNeighbors(u), g.InNeighbors(u));
  }

  Graph back = d.ToGraph();
  EXPECT_EQ(back.NumNodes(), g.NumNodes());
  EXPECT_EQ(back.NumEdges(), g.NumEdges());
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (NodeId w : g.OutNeighbors(u)) EXPECT_TRUE(back.HasEdge(u, w));
  }
}

TEST(DynamicGraph, InsertAndRemoveKeepAdjacencySorted) {
  auto pair = MakeRandomPair(42);
  DynamicGraph d(pair.g1);
  const size_t edges = d.NumEdges();

  // Find a missing non-loop edge and insert it.
  NodeId from = 0, to = 0;
  bool found = false;
  for (NodeId u = 0; u < d.NumNodes() && !found; ++u) {
    for (NodeId v = 0; v < d.NumNodes() && !found; ++v) {
      if (u != v && !d.HasEdge(u, v)) {
        from = u;
        to = v;
        found = true;
      }
    }
  }
  ASSERT_TRUE(found);
  ASSERT_TRUE(d.InsertEdge(from, to).ok());
  EXPECT_EQ(d.NumEdges(), edges + 1);
  EXPECT_TRUE(d.HasEdge(from, to));
  EXPECT_TRUE(std::is_sorted(d.OutNeighbors(from).begin(),
                             d.OutNeighbors(from).end()));
  EXPECT_TRUE(
      std::is_sorted(d.InNeighbors(to).begin(), d.InNeighbors(to).end()));

  // Duplicate insert is rejected without changing anything.
  EXPECT_EQ(d.InsertEdge(from, to).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(d.NumEdges(), edges + 1);

  ASSERT_TRUE(d.RemoveEdge(from, to).ok());
  EXPECT_EQ(d.NumEdges(), edges);
  EXPECT_FALSE(d.HasEdge(from, to));
  EXPECT_EQ(d.RemoveEdge(from, to).code(), StatusCode::kNotFound);

  const NodeId n = static_cast<NodeId>(d.NumNodes());
  EXPECT_EQ(d.InsertEdge(n, 0).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(d.RemoveEdge(0, n).code(), StatusCode::kOutOfRange);
}

TEST(DynamicGraph, SelfLoopAppearsInBothDirections) {
  auto pair = MakeRandomPair(43);
  DynamicGraph d(pair.g1);
  NodeId a = 2;
  if (d.HasEdge(a, a)) {
    ASSERT_TRUE(d.RemoveEdge(a, a).ok());
  }
  const size_t out_deg = d.OutDegree(a);
  const size_t in_deg = d.InDegree(a);
  ASSERT_TRUE(d.InsertEdge(a, a).ok());
  EXPECT_TRUE(d.HasEdge(a, a));
  EXPECT_EQ(d.OutDegree(a), out_deg + 1);
  EXPECT_EQ(d.InDegree(a), in_deg + 1);
  ASSERT_TRUE(d.RemoveEdge(a, a).ok());
  EXPECT_EQ(d.OutDegree(a), out_deg);
  EXPECT_EQ(d.InDegree(a), in_deg);
}

// ---------------------------------------------------------------------------
// ComputeFSim's two paths: θ = 0 tile panels vs the sparse driver
// ---------------------------------------------------------------------------

class PathEquivalence
    : public ::testing::TestWithParam<std::tuple<SimVariant, double>> {};

TEST_P(PathEquivalence, MatchesSparseDriverOrOracle) {
  const auto [variant, theta] = GetParam();
  for (uint64_t seed : {11u, 12u, 13u}) {
    auto pair = MakeRandomPair(seed);
    FSimConfig config;
    config.variant = variant;
    config.theta = theta;
    config.epsilon = 1e-4;
    SCOPED_TRACE(seed);
    if (RunsOnTilePanels(config)) {
      testing::ExpectPanelsMatchSparse(pair.g1, pair.g2, config);
    } else {
      testing::ExpectMatchesNaiveOracle(pair.g1, pair.g2, config);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariantsAndThetas, PathEquivalence,
    ::testing::Combine(::testing::Values(SimVariant::kSimple,
                                         SimVariant::kDegreePreserving,
                                         SimVariant::kBi,
                                         SimVariant::kBijective),
                       ::testing::Values(0.0, 1.0)),
    [](const ::testing::TestParamInfo<std::tuple<SimVariant, double>>& param_info) {
      return std::string(SimVariantName(std::get<0>(param_info.param))) +
             (std::get<1>(param_info.param) == 0.0 ? "_theta0" : "_theta1");
    });

TEST(PanelEngine, NonMaxFamilyMappingsRunOnTheSparseDriver) {
  // Only s and b run on the tile panels; every other mapping stays on the
  // sparse driver at θ = 0, checked against the naive oracle.
  auto pair = MakeRandomPair(14);
  FSimConfig dp;
  dp.variant = SimVariant::kDegreePreserving;
  FSimConfig bj;
  bj.variant = SimVariant::kBijective;
  const std::pair<const char*, FSimConfig> cases[] = {
      {"dp", dp},
      {"bj", bj},
      {"SimRank", SimRankFSimConfig(0.8)},
      {"RoleSim", RoleSimFSimConfig()},
  };
  for (const auto& [name, config] : cases) {
    SCOPED_TRACE(name);
    EXPECT_FALSE(RunsOnTilePanels(config));
    // Self-similarity, which SimRank's pinned diagonal requires.
    testing::ExpectMatchesNaiveOracle(pair.g1, pair.g1, config);
  }
}

TEST(PanelEngine, UpperBoundRunsOnTheSparseDriver) {
  auto pair = MakeRandomPair(14);
  FSimConfig config;
  config.variant = SimVariant::kSimple;
  config.upper_bound = true;
  EXPECT_FALSE(RunsOnTilePanels(config));
  testing::ExpectMatchesNaiveOracle(pair.g1, pair.g2, config);
}

TEST(PanelEngine, RespectsPairLimit) {
  auto pair = MakeRandomPair(15);
  FSimConfig config;
  config.variant = SimVariant::kSimple;
  config.pair_limit = 4;  // 10 x 12 pairs blow this immediately
  auto scores = ComputeFSim(pair.g1, pair.g2, config);
  ASSERT_FALSE(scores.ok());
  EXPECT_TRUE(scores.status().IsInvalidArgument());
}

TEST(PanelEngine, SimulationDefinitenessOnFigure1) {
  auto fig = MakeFigure1();
  FSimConfig config;
  config.variant = SimVariant::kSimple;
  config.matching = MatchingAlgo::kHungarian;
  ASSERT_TRUE(RunsOnTilePanels(config));
  auto scores = ComputeFSim(fig.pattern, fig.data, config);
  ASSERT_TRUE(scores.ok());
  // u is s-simulated by v2, v3 and v4 but not v1 (Example 1).
  EXPECT_DOUBLE_EQ(scores->Score(fig.u, fig.v2), 1.0);
  EXPECT_DOUBLE_EQ(scores->Score(fig.u, fig.v3), 1.0);
  EXPECT_DOUBLE_EQ(scores->Score(fig.u, fig.v4), 1.0);
  EXPECT_LT(scores->Score(fig.u, fig.v1), 1.0);
}

TEST(PanelEngine, TopKAgreesWithScores) {
  auto pair = MakeRandomPair(16);
  FSimConfig config;
  config.variant = SimVariant::kSimple;
  ASSERT_TRUE(RunsOnTilePanels(config));
  auto scores = ComputeFSim(pair.g1, pair.g2, config);
  ASSERT_TRUE(scores.ok());
  auto top = scores->TopK(0, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_GE(top[0].second, top[1].second);
  EXPECT_GE(top[1].second, top[2].second);
  for (const auto& [v, score] : top) {
    EXPECT_DOUBLE_EQ(score, scores->Score(0, v));
  }
}

TEST(PanelEngine, MilnerModeIgnoresInNeighbors) {
  // w- = 0 is the paper's "original 1971 definition" mode; scores must be
  // independent of any in-only structure. Compare against a graph with an
  // extra source feeding u: with w- = 0, u's scores cannot change.
  GraphBuilder b;
  NodeId u0 = b.AddNode("a");
  NodeId w = b.AddNode("b");
  b.AddEdge(u0, w);
  Graph g1 = std::move(b).BuildOrDie();

  GraphBuilder b2(g1.dict());
  NodeId v0 = b2.AddNode("a");
  NodeId w2 = b2.AddNode("b");
  NodeId src = b2.AddNode("c");
  b2.AddEdge(v0, w2);
  b2.AddEdge(src, v0);  // extra in-edge on v0 only
  Graph g2 = std::move(b2).BuildOrDie();

  FSimConfig config;
  config.variant = SimVariant::kSimple;
  config.w_out = 0.8;
  config.w_in = 0.0;
  config.epsilon = 1e-10;
  ASSERT_TRUE(RunsOnTilePanels(config));
  auto scores = ComputeFSim(g1, g2, config);
  ASSERT_TRUE(scores.ok());
  EXPECT_DOUBLE_EQ(scores->Score(u0, v0), 1.0);  // in-structure invisible
}

// ---------------------------------------------------------------------------
// Incremental maintenance: differential vs full recomputation
// ---------------------------------------------------------------------------

// The second parameter groups the same random edits into bursts of three,
// each applied by one ApplyEdits call and checked after the burst.
class IncrementalEquivalence
    : public ::testing::TestWithParam<std::tuple<SimVariant, bool>> {};

TEST_P(IncrementalEquivalence, TracksFullRecomputeAcrossEdits) {
  const auto [variant, bursts] = GetParam();
  const int burst_size = bursts ? 3 : 1;
  for (uint64_t seed : {21u, 22u}) {
    auto pair = MakeRandomPair(seed);
    FSimConfig config;
    config.variant = variant;
    config.epsilon = 1e-9;
    config.matching = MatchingAlgo::kHungarian;  // exact C3: true contraction
    IncrementalOptions options;
    options.propagation_tolerance = 1e-10;

    auto inc = IncrementalFSim::Create(pair.g1, pair.g2, config, options);
    ASSERT_TRUE(inc.ok()) << inc.status().ToString();

    Rng rng(seed * 977);
    for (int e = 0; e < 6; e += burst_size) {
      std::vector<EdgeEdit> edits;
      for (int k = 0; k < burst_size; ++k) {
        const int graph_index = (rng.Next() % 2 == 0) ? 1 : 2;
        const DynamicGraph& g = graph_index == 1 ? inc->g1() : inc->g2();
        const NodeId n = static_cast<NodeId>(g.NumNodes());
        NodeId from = static_cast<NodeId>(rng.Next() % n);
        NodeId to = static_cast<NodeId>(rng.Next() % n);
        if (from == to) continue;
        const bool repeated = std::any_of(
            edits.begin(), edits.end(), [&](const EdgeEdit& edit) {
              return edit.graph_index == graph_index && edit.from == from &&
                     edit.to == to;
            });
        if (repeated) continue;
        edits.push_back({graph_index, from, to, !g.HasEdge(from, to)});
      }
      if (edits.empty()) continue;
      if (bursts) {
        std::vector<Status> statuses;
        const Status status = inc->ApplyEdits(edits, &statuses);
        ASSERT_TRUE(status.ok()) << status.ToString();
        ASSERT_EQ(statuses.size(), edits.size());
        for (const Status& op_status : statuses) {
          ASSERT_TRUE(op_status.ok()) << op_status.ToString();
        }
      } else {
        const EdgeEdit& edit = edits[0];
        const Status status =
            edit.insert ? inc->InsertEdge(edit.graph_index, edit.from, edit.to)
                        : inc->RemoveEdge(edit.graph_index, edit.from, edit.to);
        ASSERT_TRUE(status.ok()) << status.ToString();
      }

      auto full = ComputeFSim(inc->MaterializeG1(), inc->MaterializeG2(),
                              config);
      ASSERT_TRUE(full.ok()) << full.status().ToString();
      double max_diff = 0.0;
      for (uint64_t key : full->keys()) {
        const NodeId u = PairFirst(key);
        const NodeId v = PairSecond(key);
        max_diff = std::max(
            max_diff, std::abs(full->Score(u, v) - inc->Score(u, v)));
      }
      EXPECT_LT(max_diff, 1e-6)
          << "variant " << SimVariantName(variant) << " seed " << seed
          << " edit " << e;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, IncrementalEquivalence,
    ::testing::Combine(::testing::Values(SimVariant::kSimple,
                                         SimVariant::kDegreePreserving,
                                         SimVariant::kBi,
                                         SimVariant::kBijective),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<SimVariant, bool>>&
           param_info) {
      return std::string(SimVariantName(std::get<0>(param_info.param))) +
             (std::get<1>(param_info.param) ? "_bursts" : "");
    });

TEST(Incremental, GreedyMatchingStaysCloseToFullRecompute) {
  // The greedy ½-approximate matching is not exactly Lipschitz, so the
  // asynchronous repair may settle on a marginally different orbit; the
  // deviation stays far below any score-level significance.
  auto pair = MakeRandomPair(23);
  FSimConfig config;
  config.variant = SimVariant::kBijective;
  config.epsilon = 1e-9;
  auto inc = IncrementalFSim::Create(pair.g1, pair.g2, config);
  ASSERT_TRUE(inc.ok());
  ASSERT_TRUE(inc->InsertEdge(1, 0, 5).ok() ||
              inc->RemoveEdge(1, 0, 5).ok());
  auto full = ComputeFSim(inc->MaterializeG1(), inc->MaterializeG2(), config);
  ASSERT_TRUE(full.ok());
  double max_diff = 0.0;
  for (uint64_t key : full->keys()) {
    const NodeId u = PairFirst(key);
    const NodeId v = PairSecond(key);
    max_diff =
        std::max(max_diff, std::abs(full->Score(u, v) - inc->Score(u, v)));
  }
  EXPECT_LT(max_diff, 1e-4);
}

// A repair leaves influence below τ unabsorbed. That influence must stay
// carried into the later bursts: a pair is re-evaluated once its inputs
// have moved it by more than τ in total, however many bursts that takes,
// so the maintained scores' residual max |F(x) - x| stays within τ and
// the scores within τ·(1+w)/(1-w) of the fixpoint. Dropped at the end of
// each burst, the sub-τ residues would add up over a stream instead.
TEST(Incremental, LongBurstStreamStaysWithinToleranceBound) {
  auto pair = MakeRandomPair(41, 30, 36);
  FSimConfig config;
  config.variant = SimVariant::kSimple;
  config.epsilon = 1e-9;
  config.matching = MatchingAlgo::kHungarian;  // exact C3: true contraction
  IncrementalOptions options;
  options.propagation_tolerance = 1e-3;
  const double tau = options.propagation_tolerance;
  const double w = config.w_out + config.w_in;
  // One Jacobi sweep from the maintained scores measures their residual.
  FSimConfig one_sweep = config;
  one_sweep.max_iterations = 1;

  auto inc = IncrementalFSim::Create(pair.g1, pair.g2, config, options);
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();
  Rng rng(4242);
  for (int burst = 1; burst <= 400; ++burst) {
    const int graph_index = (rng.Next() % 2 == 0) ? 1 : 2;
    const DynamicGraph& g = graph_index == 1 ? inc->g1() : inc->g2();
    const NodeId n = static_cast<NodeId>(g.NumNodes());
    const NodeId from = static_cast<NodeId>(rng.Next() % n);
    const NodeId to = static_cast<NodeId>(rng.Next() % n);
    const Status status = g.HasEdge(from, to)
                              ? inc->RemoveEdge(graph_index, from, to)
                              : inc->InsertEdge(graph_index, from, to);
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_TRUE(inc->converged()) << "burst " << burst;
    if (burst % 20 != 0) continue;

    const FSimScores maintained = inc->Snapshot();
    auto probe = IncrementalFSim::Create(inc->MaterializeG1(),
                                         inc->MaterializeG2(), one_sweep,
                                         options, &maintained);
    ASSERT_TRUE(probe.ok()) << probe.status().ToString();
    ASSERT_EQ(probe->Snapshot().stats().iterations, 1u);
    // Influence is carried as float sums, hence the relative slack.
    EXPECT_LE(probe->Snapshot().stats().final_delta, tau * (1 + 1e-6) + 1e-9)
        << "burst " << burst;

    auto full = ComputeFSim(inc->MaterializeG1(), inc->MaterializeG2(),
                            config);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    double max_diff = 0.0;
    for (uint64_t key : full->keys()) {
      const NodeId u = PairFirst(key);
      const NodeId v = PairSecond(key);
      max_diff =
          std::max(max_diff, std::abs(full->Score(u, v) - inc->Score(u, v)));
    }
    EXPECT_LE(max_diff, tau * (1 + w) / (1 - w) + 1e-8) << "burst " << burst;
  }
}

TEST(Incremental, RejectsUpperBoundConfig) {
  auto pair = MakeRandomPair(24);
  FSimConfig config;
  config.upper_bound = true;
  auto inc = IncrementalFSim::Create(pair.g1, pair.g2, config);
  ASSERT_FALSE(inc.ok());
  EXPECT_TRUE(inc.status().IsInvalidArgument());
}

TEST(Incremental, RejectsNonPositiveTolerance) {
  auto pair = MakeRandomPair(25);
  // A NaN tolerance would stop every repair after its first step.
  for (double tolerance : {0.0, -1e-9,
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    IncrementalOptions options;
    options.propagation_tolerance = tolerance;
    auto inc =
        IncrementalFSim::Create(pair.g1, pair.g2, FSimConfig{}, options);
    ASSERT_FALSE(inc.ok()) << tolerance;
    EXPECT_TRUE(inc.status().IsInvalidArgument()) << tolerance;
  }
}

TEST(Incremental, IllegalEditLeavesStateUntouched) {
  auto pair = MakeRandomPair(26);
  auto inc = IncrementalFSim::Create(pair.g1, pair.g2, FSimConfig{});
  ASSERT_TRUE(inc.ok());
  const double before = inc->Score(0, 0);
  const size_t edges_before = inc->g1().NumEdges();

  // Removing a non-existent edge fails cleanly.
  NodeId from = 0, to = 0;
  bool found = false;
  for (NodeId u = 0; u < inc->g1().NumNodes() && !found; ++u) {
    for (NodeId v = 0; v < inc->g1().NumNodes() && !found; ++v) {
      if (!inc->g1().HasEdge(u, v)) {
        from = u;
        to = v;
        found = true;
      }
    }
  }
  ASSERT_TRUE(found);
  Status status = inc->RemoveEdge(1, from, to);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(inc->g1().NumEdges(), edges_before);
  EXPECT_DOUBLE_EQ(inc->Score(0, 0), before);

  EXPECT_EQ(inc->InsertEdge(3, 0, 1).code(), StatusCode::kInvalidArgument);
}

TEST(Incremental, EditStatsAreReported) {
  auto pair = MakeRandomPair(27);
  FSimConfig config;
  config.variant = SimVariant::kSimple;
  auto inc = IncrementalFSim::Create(pair.g1, pair.g2, config);
  ASSERT_TRUE(inc.ok());
  NodeId from = 0, to = 1;
  Status status = inc->g1().HasEdge(from, to)
                      ? inc->RemoveEdge(1, from, to)
                      : inc->InsertEdge(1, from, to);
  ASSERT_TRUE(status.ok());
  const EditStats& stats = inc->last_edit_stats();
  EXPECT_GT(stats.seeded_pairs, 0u);
  EXPECT_GE(stats.recomputed, stats.seeded_pairs);
  // The repair runs within the Corollary 1 step cap for the default
  // tolerance (ceil(log_{0.8} 1e-9) = 93).
  EXPECT_GE(stats.steps, 1u);
  EXPECT_LE(stats.steps, 93u);
}

TEST(Incremental, SnapshotMatchesLiveScores) {
  auto pair = MakeRandomPair(28);
  FSimConfig config;
  config.variant = SimVariant::kBi;
  auto inc = IncrementalFSim::Create(pair.g1, pair.g2, config);
  ASSERT_TRUE(inc.ok());
  ASSERT_TRUE(inc->InsertEdge(2, 0, 7).ok() || inc->RemoveEdge(2, 0, 7).ok());
  FSimScores snap = inc->Snapshot();
  EXPECT_EQ(snap.NumPairs(), inc->NumPairs());
  for (NodeId u = 0; u < inc->g1().NumNodes(); ++u) {
    for (NodeId v = 0; v < inc->g2().NumNodes(); ++v) {
      EXPECT_DOUBLE_EQ(snap.Score(u, v), inc->Score(u, v));
    }
  }
}

TEST(Incremental, ThetaFilteredCandidateSetSurvivesEdits) {
  auto pair = MakeRandomPair(29);
  FSimConfig config;
  config.variant = SimVariant::kSimple;
  config.theta = 1.0;  // same-label candidates only
  config.epsilon = 1e-9;
  config.matching = MatchingAlgo::kHungarian;
  auto inc = IncrementalFSim::Create(pair.g1, pair.g2, config);
  ASSERT_TRUE(inc.ok());
  const size_t pairs_before = inc->NumPairs();
  ASSERT_TRUE(inc->InsertEdge(1, 0, 4).ok() || inc->RemoveEdge(1, 0, 4).ok());
  EXPECT_EQ(inc->NumPairs(), pairs_before);

  auto full = ComputeFSim(inc->MaterializeG1(), inc->MaterializeG2(), config);
  ASSERT_TRUE(full.ok());
  for (uint64_t key : full->keys()) {
    const NodeId u = PairFirst(key);
    const NodeId v = PairSecond(key);
    EXPECT_NEAR(full->Score(u, v), inc->Score(u, v), 1e-6);
  }
}

// Exact structural equivalence of the maintained neighbor index: after
// every burst of a random edit stream (self-loops included), the engine's
// store must be entry-for-entry identical to a fresh PairStore::Build of
// the materialized graphs — which makes any evaluation through the two
// bit-identical (far inside the 1e-12 score budget the engine-level sweep
// asserts).
struct SweepCase {
  std::string name;
  FSimConfig config;
  bool undirected = false;  // RoleSim's Graph::AsUndirected adaptation
};

void PrintTo(const SweepCase& c, std::ostream* os) { *os << c.name; }

/// The entries a fresh build lists for span `out`/in of (u, v) over the
/// dynamic graphs' own lists: every (x, y) of N±(u) x N±(v) in the space.
std::vector<NeighborRef> ClassifiedSpan(const DynamicGraph& g1,
                                        const DynamicGraph& g2,
                                        const PairSpace& space, NodeId u,
                                        NodeId v, bool out) {
  const auto s1 = out ? g1.OutNeighbors(u) : g1.InNeighbors(u);
  const auto s2 = out ? g2.OutNeighbors(v) : g2.InNeighbors(v);
  std::vector<NeighborRef> refs;
  for (uint32_t r = 0; r < s1.size(); ++r) {
    for (uint32_t c = 0; c < s2.size(); ++c) {
      const uint32_t slot = space.Find(s1[r], s2[c]);
      if (slot != PairSpace::kNotFound) refs.push_back({r, c, slot});
    }
  }
  return refs;
}

template <typename Got, typename Want>
void ExpectSameSpan(Got got, Want want, const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].row, want[k].row) << where;
    EXPECT_EQ(got[k].col, want[k].col) << where;
    EXPECT_EQ(got[k].ref, want[k].ref) << where;
  }
}

/// Compares the engine's store with a fresh build of its materialized
/// graphs. The AsUndirected adaptation leaves Graph in-lists empty while
/// DynamicGraph edits populate them, so no Graph carries an edited
/// undirected graph's in-lists: there the in-spans are checked against
/// the dynamic lists directly.
void ExpectStoreMatchesFreshBuild(const IncrementalFSim& inc, bool undirected,
                                  const std::string& where) {
  const PairStore& got = inc.store();
  const Status valid = got.ValidateNeighborIndex();
  ASSERT_TRUE(valid.ok()) << where << ": " << valid.ToString();
  LabelSimilarityCache lsim(*inc.g1().dict(), inc.config().label_sim);
  auto want = PairStore::Build(inc.MaterializeG1(), inc.MaterializeG2(),
                               inc.config(), lsim, /*pool=*/nullptr,
                               /*rows=*/nullptr, /*reverse_spans=*/true);
  ASSERT_TRUE(want.ok()) << where << ": " << want.status().ToString();
  ASSERT_TRUE(want->reverse_spans()) << where;
  ASSERT_EQ(got.space()->keys(), want->space()->keys()) << where;
  ASSERT_EQ(got.packed_refs(), want->packed_refs()) << where;
  if (!undirected) {
    EXPECT_EQ(got.NeighborIndexBytes(), want->NeighborIndexBytes()) << where;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const std::string at = where + " pair " + std::to_string(i);
    got.WithRefs(i, [&](auto got_out, auto got_in) {
      want->WithRefs(i, [&](auto want_out, auto want_in) {
        ExpectSameSpan(got_out, want_out, at + " out");
        if (!undirected) ExpectSameSpan(got_in, want_in, at + " in");
      });
      if (undirected) {
        ExpectSameSpan(got_in,
                       std::span<const NeighborRef>(ClassifiedSpan(
                           inc.g1(), inc.g2(), *got.space(), got.U(i),
                           got.V(i), /*out=*/false)),
                       at + " in");
      }
    });
  }
}

class MaintainedIndexSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(MaintainedIndexSweep, MatchesFreshBuildAfterRandomEdits) {
  const SweepCase& param = GetParam();
  // Several kChunkPairs-pair chunks at either θ, so edits rewrite chunks
  // other than the first.
  auto pair = MakeRandomPair(51, 30, 40);
  if (param.config.pin_diagonal) pair.g2 = pair.g1;  // self-similarity
  if (param.undirected) {
    pair.g1 = pair.g1.AsUndirected();
    pair.g2 = pair.g2.AsUndirected();
  }
  auto inc = IncrementalFSim::Create(pair.g1, pair.g2, param.config);
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();
  ExpectStoreMatchesFreshBuild(*inc, param.undirected, "create");

  Rng rng(515);
  std::vector<Status> statuses;
  for (int burst = 0; burst < 8; ++burst) {
    std::vector<EdgeEdit> edits;
    for (size_t op = 0; op < 1 + rng.Next() % 3; ++op) {
      const int graph_index = (rng.Next() % 2 == 0) ? 1 : 2;
      const DynamicGraph& target = graph_index == 1 ? inc->g1() : inc->g2();
      const NodeId n = static_cast<NodeId>(target.NumNodes());
      const NodeId from = static_cast<NodeId>(rng.Next() % n);
      const NodeId to = static_cast<NodeId>(rng.Next() % n);
      // Ops apply in order, so a repeated edge in one burst can fail;
      // either way the store must match the graphs afterwards.
      edits.push_back({graph_index, from, to, !target.HasEdge(from, to)});
    }
    ASSERT_TRUE(inc->ApplyEdits(edits, &statuses).ok());
    ExpectStoreMatchesFreshBuild(*inc, param.undirected,
                                 "burst " + std::to_string(burst));
  }
}

std::vector<SweepCase> MaintainedIndexCases() {
  std::vector<SweepCase> cases;
  for (SimVariant variant :
       {SimVariant::kSimple, SimVariant::kDegreePreserving, SimVariant::kBi,
        SimVariant::kBijective}) {
    for (double theta : {0.0, 1.0}) {
      FSimConfig config;
      config.variant = variant;
      config.theta = theta;
      cases.push_back({std::string(SimVariantName(variant)) +
                           (theta == 0.0 ? "_theta0" : "_theta1"),
                       config});
    }
  }
  cases.push_back({"simrank", SimRankFSimConfig()});
  cases.push_back({"rolesim_undirected", RoleSimFSimConfig(), true});
  // The store is built on Create's pool; TSan runs this case.
  FSimConfig threaded;
  threaded.variant = SimVariant::kBi;
  threaded.theta = 1.0;
  threaded.num_threads = 3;
  cases.push_back({"b_theta1_threads3", threaded});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, MaintainedIndexSweep, ::testing::ValuesIn(MaintainedIndexCases()),
    [](const ::testing::TestParamInfo<SweepCase>& param_info) {
      return param_info.param.name;
    });

// The packed 8-byte refs hold 16-bit positions. A star whose hub reaches
// out-degree 65537 puts its one label-compatible leaf at position 65536,
// so the insert must widen the index to 12-byte refs before re-staging,
// and it then stays wide.
TEST(MaintainedIndex, InsertPastPackedDegreeWidensRefs) {
  constexpr NodeId kLeaves = PairStore::kPackedDegreeLimit;
  auto dict = std::make_shared<LabelDict>();
  GraphBuilder star(dict);
  star.AddNode("hub");
  for (NodeId leaf = 1; leaf <= kLeaves; ++leaf) star.AddNode("leaf");
  const NodeId last = star.AddNode("mark");
  for (NodeId leaf = 1; leaf <= kLeaves; ++leaf) star.AddEdge(0, leaf);
  GraphBuilder small(dict);
  const NodeId hub = small.AddNode("hub");
  const NodeId mark = small.AddNode("mark");
  small.AddEdge(hub, mark);
  FSimConfig config;
  config.variant = SimVariant::kBi;
  config.theta = 1.0;
  auto inc = IncrementalFSim::Create(std::move(star).BuildOrDie(),
                                     std::move(small).BuildOrDie(), config);
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();
  ASSERT_TRUE(inc->store().packed_refs());
  ExpectStoreMatchesFreshBuild(*inc, false, "create");

  ASSERT_TRUE(inc->InsertEdge(1, 0, last).ok());
  EXPECT_FALSE(inc->store().packed_refs());
  ExpectStoreMatchesFreshBuild(*inc, false, "widened");
  const uint32_t hub_pair = inc->store().space()->Find(0, hub);
  ASSERT_NE(hub_pair, PairSpace::kNotFound);
  const auto out = inc->store().OutRefs(hub_pair);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].row, kLeaves);

  // Dropping back to the packed degree keeps the wide layout.
  ASSERT_TRUE(inc->RemoveEdge(1, 0, 1).ok());
  EXPECT_FALSE(inc->store().packed_refs());
  EXPECT_TRUE(inc->store().ValidateNeighborIndex().ok());
  EXPECT_EQ(inc->store().OutRefs(hub_pair)[0].row, kLeaves - 1);
}

TEST(Incremental, TruncatedEditReportsNonConvergence) {
  auto pair = MakeRandomPair(33);
  FSimConfig config;
  config.variant = SimVariant::kSimple;

  // A healthy engine reports convergence before and after clean edits.
  auto inc = IncrementalFSim::Create(pair.g1, pair.g2, config);
  ASSERT_TRUE(inc.ok());
  EXPECT_TRUE(inc->converged());
  EXPECT_TRUE(inc->Snapshot().stats().converged);

  // An update-capped edit must surface Internal AND a non-converged
  // snapshot (the old code claimed converged unconditionally).
  IncrementalOptions options;
  options.max_updates_per_edit = 1;
  auto tiny = IncrementalFSim::Create(pair.g1, pair.g2, config, options);
  ASSERT_TRUE(tiny.ok());
  EXPECT_TRUE(tiny->converged());
  NodeId from = 0, to = 1;
  Status status = tiny->g1().HasEdge(from, to)
                      ? tiny->RemoveEdge(1, from, to)
                      : tiny->InsertEdge(1, from, to);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_TRUE(tiny->last_edit_stats().truncated);
  // The cap is checked between repair steps, so the first step — exactly
  // the seeded pairs, well below the full-sweep density here — runs whole
  // and is committed, not discarded.
  EXPECT_EQ(tiny->last_edit_stats().steps, 1u);
  EXPECT_EQ(tiny->last_edit_stats().recomputed,
            tiny->last_edit_stats().seeded_pairs);
  EXPECT_FALSE(tiny->converged());
  EXPECT_FALSE(tiny->Snapshot().stats().converged);

  // Non-convergence is sticky: a later clean edit cannot launder the
  // truncated state.
  Status second = tiny->g1().HasEdge(2, 3) ? tiny->RemoveEdge(1, 2, 3)
                                           : tiny->InsertEdge(1, 2, 3);
  (void)second;  // may truncate again; either way:
  EXPECT_FALSE(tiny->Snapshot().stats().converged);
}

/// Every maintained score, in key order.
std::vector<double> AllScores(const IncrementalFSim& inc) {
  return inc.Snapshot().values();
}

// θ = 0 keeps every candidate entry, so the index's live entries equal the
// Create-time bound and a budget of exactly that footprint admits Create but
// no edit that grows a span. Such an insert must be rejected before the
// graph is touched; a removal, and then re-inserting the removed edge
// (which restores exactly the freed entries), still fit.
TEST(Incremental, OverBudgetInsertIsRejectedAndLeavesStateUntouched) {
  auto pair = MakeRandomPair(35);
  FSimConfig config;
  config.variant = SimVariant::kSimple;
  config.epsilon = 1e-9;
  config.matching = MatchingAlgo::kHungarian;
  IncrementalOptions options;
  options.propagation_tolerance = 1e-10;

  auto probe = IncrementalFSim::Create(pair.g1, pair.g2, config, options);
  ASSERT_TRUE(probe.ok());
  config.neighbor_index_budget_bytes =
      probe->Snapshot().stats().neighbor_index_bytes;
  auto inc = IncrementalFSim::Create(pair.g1, pair.g2, config, options);
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();

  NodeId from = 0;
  NodeId to = 1;
  while (inc->g1().HasEdge(from, to)) ++to;
  const std::vector<double> before = AllScores(*inc);
  const size_t bytes_before = inc->store().NeighborIndexBytes();
  const Status rejected = inc->InsertEdge(1, from, to);
  ASSERT_TRUE(rejected.IsResourceExhausted()) << rejected.ToString();
  EXPECT_NE(rejected.ToString().find("neighbor_index_budget_bytes"),
            std::string::npos);
  EXPECT_FALSE(inc->g1().HasEdge(from, to));
  EXPECT_EQ(AllScores(*inc), before);
  EXPECT_EQ(inc->store().NeighborIndexBytes(), bytes_before);
  EXPECT_TRUE(inc->g1().ValidateAdjacency().ok());
  EXPECT_TRUE(inc->store().ValidateNeighborIndex().ok());

  // Graph 2 goes through the column bound.
  NodeId to2 = 1;
  while (inc->g2().HasEdge(from, to2)) ++to2;
  const Status rejected2 = inc->InsertEdge(2, from, to2);
  ASSERT_TRUE(rejected2.IsResourceExhausted()) << rejected2.ToString();
  EXPECT_FALSE(inc->g2().HasEdge(from, to2));
  EXPECT_EQ(AllScores(*inc), before);

  // Removals never grow spans; re-adding the removed edge needs exactly
  // the entries the removal freed.
  NodeId u = 0;
  while (inc->g1().OutDegree(u) == 0) ++u;
  const NodeId w = inc->g1().OutNeighbors(u)[0];
  ASSERT_TRUE(inc->RemoveEdge(1, u, w).ok());
  ASSERT_TRUE(inc->InsertEdge(1, u, w).ok());
  EXPECT_TRUE(inc->g1().HasEdge(u, w));
  EXPECT_LE(inc->store().NeighborIndexBytes(),
            config.neighbor_index_budget_bytes);
  EXPECT_TRUE(inc->store().ValidateNeighborIndex().ok());
  auto full = ComputeFSim(inc->MaterializeG1(), inc->MaterializeG2(), config);
  ASSERT_TRUE(full.ok());
  for (uint64_t key : full->keys()) {
    EXPECT_NEAR(full->Score(PairFirst(key), PairSecond(key)),
                inc->Score(PairFirst(key), PairSecond(key)), 1e-6);
  }
}

// Repair runs in tolerance mode, so the engine needs the reverse-span
// layout, which ComputeFSim's full sweeps do not build: SimRank's single
// weighted direction doubles its entries when widened, and a budget that
// fits only the evaluation-only index fails Create, naming the bytes and
// the budget.
TEST(Incremental, CreateNeedsTheReverseSpanLayout) {
  auto pair = MakeRandomPair(37);
  FSimConfig config = SimRankFSimConfig();
  LabelSimilarityCache lsim(*pair.g1.dict(), config.label_sim);
  auto evaluation_only = PairStore::Build(pair.g1, pair.g1, config, lsim);
  ASSERT_TRUE(evaluation_only.ok()) << evaluation_only.status().ToString();
  ASSERT_FALSE(evaluation_only->reverse_spans());
  config.neighbor_index_budget_bytes = evaluation_only->NeighborIndexBytes();

  auto batch = ComputeFSim(pair.g1, pair.g1, config);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  auto inc = IncrementalFSim::Create(pair.g1, pair.g1, config);
  ASSERT_TRUE(inc.status().IsResourceExhausted()) << inc.status().ToString();
  const std::string message = inc.status().ToString();
  EXPECT_NE(message.find("neighbor_index_budget_bytes " +
                         std::to_string(config.neighbor_index_budget_bytes)),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("reverse-span"), std::string::npos) << message;
}

// A burst applies every op it can. Rejected ops in the middle (an absent
// removal, an over-budget insert) report their status and change nothing,
// so the burst ends bit for bit where a burst of its valid ops alone ends.
TEST(Incremental, BurstWithRejectedOpsAppliesTheRest) {
  auto pair = MakeRandomPair(35);
  FSimConfig config;
  config.variant = SimVariant::kSimple;
  config.epsilon = 1e-9;
  config.matching = MatchingAlgo::kHungarian;
  IncrementalOptions options;
  options.propagation_tolerance = 1e-10;

  auto probe = IncrementalFSim::Create(pair.g1, pair.g2, config, options);
  ASSERT_TRUE(probe.ok());
  config.neighbor_index_budget_bytes =
      probe->Snapshot().stats().neighbor_index_bytes;
  auto inc = IncrementalFSim::Create(pair.g1, pair.g2, config, options);
  auto ref = IncrementalFSim::Create(pair.g1, pair.g2, config, options);
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();

  // θ = 0 makes every pair a candidate, so removing a graph-2 edge frees
  // 2|E1| entries while a graph-1 insert may add up to 2|E2| — still over
  // the budget after the removal when |E2| - 1 > |E1|.
  ASSERT_GT(inc->g2().NumEdges(), inc->g1().NumEdges() + 1);
  NodeId a = 0;
  while (inc->g2().OutDegree(a) == 0) ++a;
  NodeId c = a + 1;
  while (inc->g2().OutDegree(c) == 0) ++c;
  NodeId absent_to = 1;
  while (inc->g1().HasEdge(0, absent_to)) ++absent_to;
  NodeId insert_to = 2;
  while (inc->g1().HasEdge(1, insert_to)) ++insert_to;
  const std::vector<EdgeEdit> burst = {
      {2, a, inc->g2().OutNeighbors(a)[0], /*insert=*/false},
      {1, 0, absent_to, /*insert=*/false},
      {1, 1, insert_to, /*insert=*/true},
      {2, c, inc->g2().OutNeighbors(c)[0], /*insert=*/false}};

  std::vector<Status> statuses;
  ASSERT_TRUE(inc->ApplyEdits(burst, &statuses).ok());
  ASSERT_EQ(statuses.size(), burst.size());
  EXPECT_TRUE(statuses[0].ok()) << statuses[0].ToString();
  EXPECT_EQ(statuses[1].code(), StatusCode::kNotFound);
  EXPECT_TRUE(statuses[2].IsResourceExhausted()) << statuses[2].ToString();
  EXPECT_TRUE(statuses[3].ok()) << statuses[3].ToString();
  EXPECT_FALSE(inc->g2().HasEdge(burst[0].from, burst[0].to));
  EXPECT_FALSE(inc->g1().HasEdge(1, insert_to));
  EXPECT_FALSE(inc->g2().HasEdge(burst[3].from, burst[3].to));

  const std::vector<EdgeEdit> valid = {burst[0], burst[3]};
  ASSERT_TRUE(ref->ApplyEdits(valid, &statuses).ok());
  EXPECT_EQ(inc->g1().NumEdges(), ref->g1().NumEdges());
  EXPECT_EQ(inc->g2().NumEdges(), ref->g2().NumEdges());
  EXPECT_EQ(inc->last_edit_stats().seeded_pairs,
            ref->last_edit_stats().seeded_pairs);
  EXPECT_EQ(inc->store().NeighborIndexBytes(),
            ref->store().NeighborIndexBytes());
  EXPECT_TRUE(inc->store().ValidateNeighborIndex().ok());
  EXPECT_EQ(AllScores(*inc), AllScores(*ref));

  auto full = ComputeFSim(inc->MaterializeG1(), inc->MaterializeG2(), config);
  ASSERT_TRUE(full.ok());
  for (uint64_t key : full->keys()) {
    EXPECT_NEAR(full->Score(PairFirst(key), PairSecond(key)),
                inc->Score(PairFirst(key), PairSecond(key)), 1e-6);
  }
}

// The reported footprint is the live index, sizes and not capacities: an
// edit that shrinks spans shrinks it to what a fresh build of the edited
// graphs holds.
TEST(Incremental, IndexBytesAreTheLiveFootprint) {
  for (double theta : {0.0, 1.0}) {
    auto pair = MakeRandomPair(36);
    FSimConfig config;
    config.variant = SimVariant::kBijective;
    config.theta = theta;
    auto inc = IncrementalFSim::Create(pair.g1, pair.g2, config);
    ASSERT_TRUE(inc.ok()) << inc.status().ToString();
    const size_t created = inc->store().NeighborIndexBytes();
    EXPECT_EQ(inc->Snapshot().stats().neighbor_index_bytes, created);
    NodeId u = 0;
    while (inc->g1().OutDegree(u) == 0) ++u;
    ASSERT_TRUE(inc->RemoveEdge(1, u, inc->g1().OutNeighbors(u)[0]).ok());
    LabelSimilarityCache lsim(*pair.g1.dict(), config.label_sim);
    auto fresh = PairStore::Build(inc->MaterializeG1(), inc->MaterializeG2(),
                                  config, lsim, /*pool=*/nullptr,
                                  /*rows=*/nullptr, /*reverse_spans=*/true);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    EXPECT_EQ(inc->store().NeighborIndexBytes(), fresh->NeighborIndexBytes())
        << "theta " << theta;
    EXPECT_EQ(inc->Snapshot().stats().neighbor_index_bytes,
              fresh->NeighborIndexBytes())
        << "theta " << theta;
    if (theta == 0.0) {
      EXPECT_LT(inc->store().NeighborIndexBytes(), created);
    }
  }
}

TEST(Incremental, SelfLoopEditsTrackFullRecompute) {
  auto pair = MakeRandomPair(34);
  FSimConfig config;
  config.variant = SimVariant::kBi;
  config.epsilon = 1e-9;
  config.matching = MatchingAlgo::kHungarian;
  IncrementalOptions options;
  options.propagation_tolerance = 1e-10;
  auto inc = IncrementalFSim::Create(pair.g1, pair.g2, config, options);
  ASSERT_TRUE(inc.ok());

  for (int graph_index : {1, 2}) {
    const DynamicGraph& g = graph_index == 1 ? inc->g1() : inc->g2();
    NodeId a = 0;
    while (a < g.NumNodes() && g.HasEdge(a, a)) ++a;
    ASSERT_LT(a, g.NumNodes());

    ASSERT_TRUE(inc->InsertEdge(graph_index, a, a).ok());
    // Duplicate-endpoint re-insert is rejected and leaves state untouched.
    EXPECT_EQ(inc->InsertEdge(graph_index, a, a).code(),
              StatusCode::kAlreadyExists);

    auto full =
        ComputeFSim(inc->MaterializeG1(), inc->MaterializeG2(), config);
    ASSERT_TRUE(full.ok());
    for (uint64_t key : full->keys()) {
      const NodeId u = PairFirst(key);
      const NodeId v = PairSecond(key);
      EXPECT_NEAR(full->Score(u, v), inc->Score(u, v), 1e-6)
          << "graph " << graph_index << " self-loop (" << a << ", " << a
          << ")";
    }

    ASSERT_TRUE(inc->RemoveEdge(graph_index, a, a).ok());
    EXPECT_EQ(inc->RemoveEdge(graph_index, a, a).code(),
              StatusCode::kNotFound);
  }
}

TEST(Incremental, RemoveThenReAddRestoresScores) {
  auto pair = MakeRandomPair(30);
  FSimConfig config;
  config.variant = SimVariant::kDegreePreserving;
  config.epsilon = 1e-9;
  config.matching = MatchingAlgo::kHungarian;
  auto inc = IncrementalFSim::Create(pair.g1, pair.g2, config);
  ASSERT_TRUE(inc.ok());

  // Record, remove an existing edge, re-add it, compare.
  NodeId u = 0;
  while (inc->g1().OutDegree(u) == 0) ++u;
  NodeId w = inc->g1().OutNeighbors(u)[0];
  std::vector<double> before;
  for (NodeId a = 0; a < inc->g1().NumNodes(); ++a) {
    for (NodeId b = 0; b < inc->g2().NumNodes(); ++b) {
      before.push_back(inc->Score(a, b));
    }
  }
  ASSERT_TRUE(inc->RemoveEdge(1, u, w).ok());
  ASSERT_TRUE(inc->InsertEdge(1, u, w).ok());
  size_t i = 0;
  for (NodeId a = 0; a < inc->g1().NumNodes(); ++a) {
    for (NodeId b = 0; b < inc->g2().NumNodes(); ++b) {
      EXPECT_NEAR(inc->Score(a, b), before[i++], 1e-6);
    }
  }
}

}  // namespace
}  // namespace fsim
