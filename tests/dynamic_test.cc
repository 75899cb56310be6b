// Tests for the dynamic-graph extensions: single-edge graph edits
// (graph/edits.h), the edit-capable DynamicGraph (graph/dynamic_graph.h),
// ComputeFSim's θ = 0 tile-panel path (core/panel_engine.h, differential
// against the sparse driver), the maintained pair-graph neighbor index
// (core/incremental_index.h, differential against a fresh build) and
// incremental FSim maintenance (core/incremental.h, property-tested against
// full recomputation, plus its neighbor-index budget ceiling).
#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/fsim_engine.h"
#include "core/incremental.h"
#include "core/incremental_index.h"
#include "core/pair_store.h"
#include "core/panel_engine.h"
#include "graph/dynamic_graph.h"
#include "graph/edits.h"
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
  IncrementalOptions options;
  options.propagation_tolerance = 0.0;
  auto inc = IncrementalFSim::Create(pair.g1, pair.g2, FSimConfig{}, options);
  ASSERT_FALSE(inc.ok());
  EXPECT_TRUE(inc.status().IsInvalidArgument());
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

// Exact structural equivalence of the maintained neighbor index: after a
// stream of random edits (self-loops included), every re-staged span must be
// entry-for-entry identical to a from-scratch build on the edited graphs —
// which makes any evaluation through the two indexes bit-identical (far
// inside the 1e-12 score budget the engine-level sweep asserts).
class MaintainedIndexSweep
    : public ::testing::TestWithParam<std::tuple<SimVariant, double>> {};

TEST_P(MaintainedIndexSweep, MatchesFreshBuildAfterRandomEdits) {
  const auto [variant, theta] = GetParam();
  auto pair = MakeRandomPair(51);
  FSimConfig config;
  config.variant = variant;
  config.theta = theta;
  LabelSimilarityCache lsim(*pair.g1.dict(), config.label_sim);
  auto store = PairStore::Build(pair.g1, pair.g2, config, lsim,
                                /*build_neighbor_index=*/false);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const std::vector<uint64_t>& keys = store->space()->keys();

  DynamicGraph d1(pair.g1);
  DynamicGraph d2(pair.g2);
  const NeighborIndexEnv env{d1, d2, *store->space()};
  IncrementalNeighborIndex maintained;
  ASSERT_TRUE(maintained.Build(env, config).ok());

  Rng rng(515);
  for (int e = 0; e < 12; ++e) {
    const int graph_index = (rng.Next() % 2 == 0) ? 1 : 2;
    DynamicGraph& target = graph_index == 1 ? d1 : d2;
    const NodeId n = static_cast<NodeId>(target.NumNodes());
    const NodeId from = static_cast<NodeId>(rng.Next() % n);
    const NodeId to = static_cast<NodeId>(rng.Next() % n);
    Status status = target.HasEdge(from, to) ? target.RemoveEdge(from, to)
                                             : target.InsertEdge(from, to);
    ASSERT_TRUE(status.ok()) << status.ToString();

    // The engine's invalidation rule, replicated over a plain pair scan:
    // a graph-1 edit re-stages the out-spans of row `from` and the in-spans
    // of row `to`; a graph-2 edit the same per column.
    for (size_t i = 0; i < keys.size(); ++i) {
      const NodeId u = PairFirst(keys[i]);
      const NodeId v = PairSecond(keys[i]);
      const NodeId key_node = graph_index == 1 ? u : v;
      if (key_node == from) {
        maintained.Restage(i, IncrementalNeighborIndex::kOut, u, v, env);
      }
      if (key_node == to) {
        maintained.Restage(i, IncrementalNeighborIndex::kIn, u, v, env);
      }
    }

    IncrementalNeighborIndex fresh;
    ASSERT_TRUE(fresh.Build(env, config).ok());
    for (size_t i = 0; i < keys.size(); ++i) {
      for (int dir :
           {IncrementalNeighborIndex::kOut, IncrementalNeighborIndex::kIn}) {
        auto got = maintained.Refs(i, dir);
        auto want = fresh.Refs(i, dir);
        ASSERT_EQ(got.size(), want.size())
            << "edit " << e << " pair " << i << " dir " << dir;
        for (size_t k = 0; k < got.size(); ++k) {
          EXPECT_EQ(got[k].row, want[k].row);
          EXPECT_EQ(got[k].col, want[k].col);
          EXPECT_EQ(got[k].ref, want[k].ref);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariantsAndThetas, MaintainedIndexSweep,
    ::testing::Combine(::testing::Values(SimVariant::kSimple,
                                         SimVariant::kDegreePreserving,
                                         SimVariant::kBi,
                                         SimVariant::kBijective),
                       ::testing::Values(0.0, 1.0)),
    [](const ::testing::TestParamInfo<std::tuple<SimVariant, double>>& param_info) {
      return std::string(SimVariantName(std::get<0>(param_info.param))) +
             (std::get<1>(param_info.param) == 0.0 ? "_theta0" : "_theta1");
    });

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

// θ = 0 keeps every candidate entry, so the arena's live entries equal the
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
  const size_t bytes_before = inc->neighbor_index().MemoryBytes();
  const Status rejected = inc->InsertEdge(1, from, to);
  ASSERT_TRUE(rejected.IsResourceExhausted()) << rejected.ToString();
  EXPECT_NE(rejected.ToString().find("neighbor_index_budget_bytes"),
            std::string::npos);
  EXPECT_FALSE(inc->g1().HasEdge(from, to));
  EXPECT_EQ(AllScores(*inc), before);
  EXPECT_EQ(inc->neighbor_index().MemoryBytes(), bytes_before);
  EXPECT_TRUE(inc->g1().ValidateAdjacency().ok());
  EXPECT_TRUE(inc->neighbor_index().Validate(inc->NumPairs()).ok());

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
  EXPECT_LE(inc->neighbor_index().MemoryBytes(),
            config.neighbor_index_budget_bytes);
  EXPECT_TRUE(inc->neighbor_index().Validate(inc->NumPairs()).ok());
  auto full = ComputeFSim(inc->MaterializeG1(), inc->MaterializeG2(), config);
  ASSERT_TRUE(full.ok());
  for (uint64_t key : full->keys()) {
    EXPECT_NEAR(full->Score(PairFirst(key), PairSecond(key)),
                inc->Score(PairFirst(key), PairSecond(key)), 1e-6);
  }
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
  EXPECT_EQ(inc->neighbor_index().MemoryBytes(),
            ref->neighbor_index().MemoryBytes());
  EXPECT_TRUE(inc->neighbor_index().Validate(inc->NumPairs()).ok());
  EXPECT_EQ(AllScores(*inc), AllScores(*ref));

  auto full = ComputeFSim(inc->MaterializeG1(), inc->MaterializeG2(), config);
  ASSERT_TRUE(full.ok());
  for (uint64_t key : full->keys()) {
    EXPECT_NEAR(full->Score(PairFirst(key), PairSecond(key)),
                inc->Score(PairFirst(key), PairSecond(key)), 1e-6);
  }
}

// The arena is sized to its live entries: right after Create the reported
// footprint is exactly the entries the spans hold plus the span metadata.
TEST(Incremental, IndexMemoryIsLiveEntriesPlusSpanMetadata) {
  for (double theta : {0.0, 1.0}) {
    auto pair = MakeRandomPair(36);
    FSimConfig config;
    config.variant = SimVariant::kBijective;
    config.theta = theta;
    auto inc = IncrementalFSim::Create(pair.g1, pair.g2, config);
    ASSERT_TRUE(inc.ok()) << inc.status().ToString();
    const IncrementalNeighborIndex& index = inc->neighbor_index();
    size_t live = 0;
    for (size_t i = 0; i < inc->NumPairs(); ++i) {
      live += index.Refs(i, IncrementalNeighborIndex::kOut).size() +
              index.Refs(i, IncrementalNeighborIndex::kIn).size();
    }
    EXPECT_EQ(index.live_entries(), live) << "theta " << theta;
    const size_t expected =
        live * sizeof(NeighborRef) +
        2 * inc->NumPairs() * sizeof(IncrementalNeighborIndex::SpanMeta);
    EXPECT_EQ(index.MemoryBytes(), expected) << "theta " << theta;
    EXPECT_EQ(inc->Snapshot().stats().neighbor_index_bytes, expected)
        << "theta " << theta;
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
