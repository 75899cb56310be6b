// Equivalence tests for the dense engine's tile-panel loop
// (core/dense_engine.h): for both max-family mappings (s, b) across every
// OmegaKind, ComputeFSimDense must agree with the sparse engine on every
// maintained pair to 1e-12 — and with the naive per-visit lookup evaluation
// (tests/naive_fsim.h) on the full matrix. The panels visit candidates in
// class-grouped order; row/column maxima are order-exact and reduced in
// ascending position order, so only the final additive reductions can
// reassociate — far below the 1e-12 pin. The sweep spans every MappingKind:
// for dp, bj and product, which have no dense path, each case checks the
// rejection and the sparse engine against the oracle on the same input
// (tests/no_dense_path.h).
//
// Plus unit coverage for DenseFSimScores::TopK tie-breaking.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <tuple>

#include "core/dense_engine.h"
#include "core/fsim_config.h"
#include "core/fsim_engine.h"
#include "tests/naive_fsim.h"
#include "tests/no_dense_path.h"
#include "tests/test_graphs.h"

namespace fsim {
namespace {

using ::fsim::testing::MakeDenseRandomGraph;

constexpr double kTolerance = 1e-12;

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

using DenseParam = std::tuple<MappingKind, OmegaKind, MatchingAlgo>;

class DenseEngineOperatorSweep : public ::testing::TestWithParam<DenseParam> {
};

/// θ = 0: the sparse engine maintains every |V1| x |V2| pair, so the dense
/// and sparse engines compute the identical fixed point over the identical
/// pair set — the full-matrix differential check of the issue's sweep.
TEST_P(DenseEngineOperatorSweep, DenseMatchesSparseOnAllPairs) {
  const auto [mapping, omega, matching] = GetParam();
  const Graph g = MakeDenseRandomGraph(/*seed=*/7 + static_cast<int>(omega), /*n=*/20);
  FSimConfig config;
  config.operator_override = OperatorConfig{mapping, omega};
  config.matching = matching;
  config.label_sim = LabelSimKind::kEditDistance;
  config.theta = 0.0;
  config.w_out = 0.35;
  config.w_in = 0.35;
  config.epsilon = 1e-4;

  auto sparse = ComputeFSimSelf(g, config);
  ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();
  ASSERT_EQ(sparse->NumPairs(), g.NumNodes() * g.NumNodes());
  if (!testing::HasDensePath(mapping)) {
    testing::ExpectNoDensePath(g, g, config);
    return;
  }

  auto dense = ComputeFSimDense(g, g, config);
  ASSERT_TRUE(dense.ok()) << dense.status().ToString();
  EXPECT_GT(dense->stats().neighbor_index_bytes, 0u);
  EXPECT_EQ(sparse->stats().iterations, dense->stats().iterations);

  for (uint64_t key : sparse->keys()) {
    const NodeId u = PairFirst(key);
    const NodeId v = PairSecond(key);
    ASSERT_NEAR(sparse->Score(u, v), dense->Score(u, v), kTolerance)
        << "pair (" << u << ", " << v << ")";
  }
}

/// θ > 0 with a non-indicator L: multi-class compatibility bitsets and the
/// per-class panel work lists, cross-checked against the naive per-visit
/// lookup oracle on the *full* matrix (including pairs the sparse engine
/// would not maintain).
TEST_P(DenseEngineOperatorSweep, IndexedMatchesNaiveOracle) {
  const auto [mapping, omega, matching] = GetParam();
  const Graph g = MakeDenseRandomGraph(/*seed=*/23 + static_cast<int>(omega), /*n=*/20);
  FSimConfig config;
  config.operator_override = OperatorConfig{mapping, omega};
  config.matching = matching;
  config.label_sim = LabelSimKind::kEditDistance;
  config.theta = 0.4;
  config.w_out = 0.35;
  config.w_in = 0.35;
  config.epsilon = 1e-4;
  if (!testing::HasDensePath(mapping)) {
    testing::ExpectNoDensePath(g, g, config);
    return;
  }

  auto indexed = ComputeFSimDense(g, g, config);
  ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();

  const testing::NaiveFSimResult naive =
      testing::NaiveFSim(g, g, config, /*all_pairs=*/true);
  EXPECT_EQ(indexed->stats().iterations, naive.iterations);
  ASSERT_EQ(indexed->values().size(), naive.values.size());
  for (size_t i = 0; i < naive.values.size(); ++i) {
    ASSERT_FALSE(std::isnan(indexed->values()[i])) << "entry " << i;
    ASSERT_NEAR(indexed->values()[i], naive.values[i], kTolerance)
        << "entry " << i;
  }

  // Forced-scalar lockstep: FSIM_SIMD=off runs the same panel loop on the
  // scalar kernels and must reproduce the run at whatever level auto
  // resolved to bit for bit (the kernels.h contract).
  const char* prev_env = std::getenv("FSIM_SIMD");
  const std::string saved_env = prev_env ? prev_env : "";
  setenv("FSIM_SIMD", "off", 1);
  auto scalar = ComputeFSimDense(g, g, config);
  if (prev_env) {
    setenv("FSIM_SIMD", saved_env.c_str(), 1);
  } else {
    unsetenv("FSIM_SIMD");
  }
  ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
  EXPECT_EQ(scalar->stats().simd_level, 0u);
  EXPECT_EQ(scalar->stats().iterations, indexed->stats().iterations);
  ASSERT_EQ(scalar->values().size(), indexed->values().size());
  for (size_t i = 0; i < indexed->values().size(); ++i) {
    ASSERT_EQ(scalar->values()[i], indexed->values()[i]) << "entry " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOperatorCombinations, DenseEngineOperatorSweep,
    ::testing::Combine(
        ::testing::Values(MappingKind::kMaxPerRow, MappingKind::kInjectiveRow,
                          MappingKind::kMaxBothSides,
                          MappingKind::kInjectiveSym, MappingKind::kProduct),
        ::testing::Values(OmegaKind::kSizeS1, OmegaKind::kSumSizes,
                          OmegaKind::kGeoMean, OmegaKind::kMaxSize,
                          OmegaKind::kProduct),
        ::testing::Values(MatchingAlgo::kGreedy, MatchingAlgo::kHungarian)),
    [](const ::testing::TestParamInfo<DenseParam>& param_info) {
      return std::string(MappingName(std::get<0>(param_info.param))) + "_" +
             OmegaName(std::get<1>(param_info.param)) + "_" +
             (std::get<2>(param_info.param) == MatchingAlgo::kHungarian
                  ? "Hungarian"
                  : "Greedy");
    });

TEST(DenseEngineTest, TopKBreaksTiesByNodeId) {
  // Row 0: v1 carries the top score; v0 and v2 tie below it and must be
  // returned in ascending node-id order; v3 trails.
  FSimStats stats;
  DenseFSimScores scores(2, 4,
                         {0.5, 0.9, 0.5, 0.1,  //
                          0.2, 0.2, 0.2, 0.2},
                         stats);
  auto top = scores.TopK(0, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], (std::pair<NodeId, double>{1, 0.9}));
  EXPECT_EQ(top[1], (std::pair<NodeId, double>{0, 0.5}));
  EXPECT_EQ(top[2], (std::pair<NodeId, double>{2, 0.5}));

  // k beyond the row clamps; an all-tied row comes back in id order.
  auto row1 = scores.TopK(1, 10);
  ASSERT_EQ(row1.size(), 4u);
  for (NodeId v = 0; v < 4; ++v) {
    EXPECT_EQ(row1[v].first, v);
    EXPECT_DOUBLE_EQ(row1[v].second, 0.2);
  }
}

}  // namespace
}  // namespace fsim
