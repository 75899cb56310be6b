// Equivalence tests for ComputeFSim's θ = 0 tile-panel path
// (core/panel_engine.h). For both max-family mappings (s, b) across every
// OmegaKind, with pin_diagonal, w- = 0 and two-graph shapes, at the auto
// and scalar SIMD levels and at 1, 2 and 4 threads, the panel run must
// equal the sparse driver's scores (IncrementalFSim's initial solve) value
// for value, and it is checked against the naive per-visit lookup
// evaluation (tests/naive_fsim.h). The operator sweep spans every
// MappingKind: dp, bj and product stay on the sparse driver at θ = 0 and
// are checked against the oracle on the same input (tests/path_oracles.h).
// Plus the path choice itself and the thread-count lockstep the TSan CI
// leg runs.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "common/string_util.h"
#include "core/fsim_config.h"
#include "core/fsim_engine.h"
#include "core/panel_engine.h"
#include "tests/naive_fsim.h"
#include "tests/path_oracles.h"
#include "tests/test_graphs.h"

namespace fsim {
namespace {

using ::fsim::testing::MakeDenseRandomGraph;

const char* MappingName(MappingKind kind) {
  switch (kind) {
    case MappingKind::kMaxPerRow: return "MaxPerRow";
    case MappingKind::kInjectiveRow: return "InjectiveRow";
    case MappingKind::kMaxBothSides: return "MaxBothSides";
    case MappingKind::kInjectiveSym: return "InjectiveSym";
    case MappingKind::kProduct: return "Product";
  }
  return "Unknown";
}

const char* OmegaName(OmegaKind kind) {
  switch (kind) {
    case OmegaKind::kSizeS1: return "SizeS1";
    case OmegaKind::kSumSizes: return "SumSizes";
    case OmegaKind::kGeoMean: return "GeoMean";
    case OmegaKind::kMaxSize: return "MaxSize";
    case OmegaKind::kProduct: return "Product";
  }
  return "Unknown";
}

const OmegaKind kAllOmegas[] = {OmegaKind::kSizeS1, OmegaKind::kSumSizes,
                                OmegaKind::kGeoMean, OmegaKind::kMaxSize,
                                OmegaKind::kProduct};

using OperatorParam = std::tuple<MappingKind, OmegaKind, MatchingAlgo>;

class PanelEngineOperatorSweep
    : public ::testing::TestWithParam<OperatorParam> {};

/// θ = 0: every |V1| x |V2| pair is a candidate. s and b run on the panels
/// and must equal the sparse driver; every mapping must match the oracle.
TEST_P(PanelEngineOperatorSweep, ThetaZeroMatchesSparseDriverAndOracle) {
  const auto [mapping, omega, matching] = GetParam();
  const Graph g =
      MakeDenseRandomGraph(/*seed=*/7 + static_cast<int>(omega), /*n=*/20);
  FSimConfig config;
  config.operator_override = OperatorConfig{mapping, omega};
  config.matching = matching;
  config.label_sim = LabelSimKind::kEditDistance;
  config.theta = 0.0;
  config.w_out = 0.35;
  config.w_in = 0.35;
  config.epsilon = 1e-4;

  testing::ExpectMatchesNaiveOracle(g, g, config);
  if (RunsOnTilePanels(config)) {
    testing::ExpectPanelsMatchSparse(g, g, config);
  } else {
    auto sparse = ComputeFSimSelf(g, config);
    ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();
    EXPECT_EQ(sparse->stats().simd_panel_bytes, 0u);
  }
}

/// θ > 0 with a non-indicator L: every mapping runs on the sparse driver,
/// against the oracle.
TEST_P(PanelEngineOperatorSweep, ThetaAboveZeroMatchesOracle) {
  const auto [mapping, omega, matching] = GetParam();
  const Graph g =
      MakeDenseRandomGraph(/*seed=*/23 + static_cast<int>(omega), /*n=*/20);
  FSimConfig config;
  config.operator_override = OperatorConfig{mapping, omega};
  config.matching = matching;
  config.label_sim = LabelSimKind::kEditDistance;
  config.theta = 0.4;
  config.w_out = 0.35;
  config.w_in = 0.35;
  config.epsilon = 1e-4;
  ASSERT_FALSE(RunsOnTilePanels(config));
  testing::ExpectMatchesNaiveOracle(g, g, config);
}

INSTANTIATE_TEST_SUITE_P(
    AllOperatorCombinations, PanelEngineOperatorSweep,
    ::testing::Combine(
        ::testing::Values(MappingKind::kMaxPerRow, MappingKind::kInjectiveRow,
                          MappingKind::kMaxBothSides,
                          MappingKind::kInjectiveSym, MappingKind::kProduct),
        ::testing::ValuesIn(kAllOmegas),
        ::testing::Values(MatchingAlgo::kGreedy, MatchingAlgo::kHungarian)),
    [](const ::testing::TestParamInfo<OperatorParam>& param_info) {
      return std::string(MappingName(std::get<0>(param_info.param))) + "_" +
             OmegaName(std::get<1>(param_info.param)) + "_" +
             (std::get<2>(param_info.param) == MatchingAlgo::kHungarian
                  ? "Hungarian"
                  : "Greedy");
    });

/// The input shapes the panel loop has special cases for.
enum class Shape {
  kPlain,        // self-similarity, both directions weighted
  kPinDiagonal,  // the pinned diagonal takes the scalar combine branch
  kNoInWeight,   // w- = 0: no in-direction panels
  kTwoGraphs,    // |V1| != |V2|, and |V2| > 256 spans two v-tiles
};

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kPlain: return "Plain";
    case Shape::kPinDiagonal: return "PinDiagonal";
    case Shape::kNoInWeight: return "NoInWeight";
    case Shape::kTwoGraphs: return "TwoGraphs";
  }
  return "Unknown";
}

using ShapeParam = std::tuple<MappingKind, OmegaKind, Shape>;

class PanelEngineShapeSweep : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(PanelEngineShapeSweep, EqualsSparseDriverAtEveryLevelAndThreadCount) {
  const auto [mapping, omega, shape] = GetParam();
  // Every node has in- and out-neighbors, so no Ωχ divides by zero.
  const Graph g1 =
      MakeDenseRandomGraph(/*seed=*/31 + static_cast<int>(omega), /*n=*/30);
  const Graph other = MakeDenseRandomGraph(
      /*seed=*/41 + static_cast<int>(omega), /*n=*/300, g1.dict());
  const Graph& g2 = shape == Shape::kTwoGraphs ? other : g1;
  FSimConfig config;
  config.operator_override = OperatorConfig{mapping, omega};
  config.label_sim = LabelSimKind::kEditDistance;
  config.w_out = 0.35;
  config.w_in = shape == Shape::kNoInWeight ? 0.0 : 0.35;
  config.pin_diagonal = shape == Shape::kPinDiagonal;
  config.epsilon = 1e-6;
  ASSERT_TRUE(RunsOnTilePanels(config));

  const FSimScores sparse = testing::SparseDriverScores(g1, g2, config);
  ASSERT_EQ(sparse.NumPairs(), size_t{g1.NumNodes()} * g2.NumNodes());
  for (SimdMode simd : {SimdMode::kAuto, SimdMode::kOff}) {
    for (int threads : {1, 2, 4}) {
      SCOPED_TRACE(StrFormat("simd %s, %d threads",
                             simd == SimdMode::kOff ? "off" : "auto",
                             threads));
      config.simd = simd;
      config.num_threads = threads;
      auto panels = ComputeFSim(g1, g2, config);
      ASSERT_TRUE(panels.ok()) << panels.status().ToString();
      EXPECT_GT(panels->stats().simd_panel_bytes, 0u);
      testing::ExpectSameScores(*panels, sparse);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    MaxFamilyShapes, PanelEngineShapeSweep,
    ::testing::Combine(::testing::Values(MappingKind::kMaxPerRow,
                                         MappingKind::kMaxBothSides),
                       ::testing::ValuesIn(kAllOmegas),
                       ::testing::Values(Shape::kPlain, Shape::kPinDiagonal,
                                         Shape::kNoInWeight,
                                         Shape::kTwoGraphs)),
    [](const ::testing::TestParamInfo<ShapeParam>& param_info) {
      return std::string(MappingName(std::get<0>(param_info.param))) + "_" +
             OmegaName(std::get<1>(param_info.param)) + "_" +
             ShapeName(std::get<2>(param_info.param));
    });

TEST(PanelEngineTest, PathFollowsTheConfig) {
  FSimConfig config;
  config.variant = SimVariant::kSimple;
  EXPECT_TRUE(RunsOnTilePanels(config));
  config.variant = SimVariant::kBi;
  EXPECT_TRUE(RunsOnTilePanels(config));
  config.theta = 0.5;
  EXPECT_FALSE(RunsOnTilePanels(config));
  config.theta = 0.0;
  config.upper_bound = true;
  EXPECT_FALSE(RunsOnTilePanels(config));
  config.upper_bound = false;
  for (SimVariant variant :
       {SimVariant::kDegreePreserving, SimVariant::kBijective}) {
    config.variant = variant;
    EXPECT_FALSE(RunsOnTilePanels(config)) << SimVariantName(variant);
  }
  EXPECT_FALSE(RunsOnTilePanels(SimRankFSimConfig(0.8)));
  EXPECT_FALSE(RunsOnTilePanels(RoleSimFSimConfig()));
}

TEST(PanelEngineTest, ToleranceModeRunsFullSweeps) {
  // Tolerance frontiers' bound holds at distance 0, so the panel path
  // serves a positive frontier_tolerance with full sweeps too and reports
  // no active set.
  const Graph g = MakeDenseRandomGraph(5, 40);
  FSimConfig config;
  config.variant = SimVariant::kBi;
  config.epsilon = 1e-6;
  auto off = ComputeFSimSelf(g, config);
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  config.frontier_tolerance = 1e-3;
  auto run = ComputeFSimSelf(g, config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_FALSE(run->stats().active_set);
  EXPECT_TRUE(run->stats().active_pairs_history.empty());
  EXPECT_EQ(run->stats().frozen_fraction, 0.0);
  EXPECT_EQ(run->stats().full_sweep_iterations, run->stats().iterations);
  testing::ExpectSameScores(*run, *off);
}

TEST(PanelEngineThreads, ThetaZeroLockstepAcrossThreadCounts) {
  // 64 rows are eight 8-row chunks and 300 columns two v-tiles, so every
  // worker count splits the rows differently; rows are independent under
  // double buffering, so the values must not move.
  const Graph g1 = MakeDenseRandomGraph(/*seed=*/77, /*n=*/64);
  const Graph g2 = MakeDenseRandomGraph(/*seed=*/78, /*n=*/300, g1.dict());
  for (SimVariant variant : {SimVariant::kSimple, SimVariant::kBi}) {
    FSimConfig config;
    config.variant = variant;
    config.epsilon = 1e-4;
    ASSERT_TRUE(RunsOnTilePanels(config));
    config.num_threads = 1;
    auto serial = ComputeFSim(g1, g2, config);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    for (int threads : {2, 4}) {
      config.num_threads = threads;
      auto parallel = ComputeFSim(g1, g2, config);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      SCOPED_TRACE(StrFormat("%s, %d threads", SimVariantName(variant),
                             threads));
      testing::ExpectSameScores(*parallel, *serial);
    }
  }
}

}  // namespace
}  // namespace fsim
