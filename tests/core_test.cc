// Tests for the FSimχ core: operators (Table 3), the candidate-pair store,
// the iterative engine (Algorithm 1), and the paper's formal guarantees —
// P1-P3 of Definition 4, Theorem 1/Corollary 1 convergence, Theorem 4
// (k-bisimulation) and Theorem 5 (WL test), plus the §4.3 SimRank/RoleSim
// equivalences.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/fsim_config.h"
#include "core/fsim_engine.h"
#include "core/operators.h"
#include "core/pair_store.h"
#include "core/rolesim.h"
#include "core/simrank.h"
#include "exact/exact_simulation.h"
#include "exact/signatures.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "tests/naive_fsim.h"
#include "tests/test_graphs.h"

namespace fsim {
namespace {

using testing::DirectionScore;
using testing::Figure1;
using testing::GraphPair;
using testing::MakeFigure1;
using testing::MakeRandomPair;

constexpr SimVariant kAllVariants[] = {
    SimVariant::kSimple, SimVariant::kDegreePreserving, SimVariant::kBi,
    SimVariant::kBijective};

FSimConfig PropertyConfig(SimVariant variant) {
  FSimConfig config;
  config.variant = variant;
  config.w_out = 0.4;
  config.w_in = 0.4;
  config.label_sim = LabelSimKind::kIndicator;
  config.theta = 0.0;
  config.epsilon = 1e-10;
  config.max_iterations = 120;
  // Hungarian realizes the maximum mapping exactly (condition C3), under
  // which the formal guarantees hold.
  config.matching = MatchingAlgo::kHungarian;
  return config;
}

// ------------------------------------------------------------- Operators --

TEST(OperatorsTest, Table3Configurations) {
  EXPECT_EQ(OperatorsForVariant(SimVariant::kSimple).mapping,
            MappingKind::kMaxPerRow);
  EXPECT_EQ(OperatorsForVariant(SimVariant::kSimple).omega,
            OmegaKind::kSizeS1);
  EXPECT_EQ(OperatorsForVariant(SimVariant::kDegreePreserving).mapping,
            MappingKind::kInjectiveRow);
  EXPECT_EQ(OperatorsForVariant(SimVariant::kBi).omega, OmegaKind::kSumSizes);
  EXPECT_EQ(OperatorsForVariant(SimVariant::kBijective).omega,
            OmegaKind::kGeoMean);
}

TEST(OperatorsTest, OmegaValues) {
  EXPECT_DOUBLE_EQ(OmegaValue(OmegaKind::kSizeS1, 3, 5), 3.0);
  EXPECT_DOUBLE_EQ(OmegaValue(OmegaKind::kSumSizes, 3, 5), 8.0);
  EXPECT_DOUBLE_EQ(OmegaValue(OmegaKind::kGeoMean, 4, 9), 6.0);
  EXPECT_DOUBLE_EQ(OmegaValue(OmegaKind::kMaxSize, 3, 5), 5.0);
  EXPECT_DOUBLE_EQ(OmegaValue(OmegaKind::kProduct, 3, 5), 15.0);
}

/// A lookup backed by an explicit matrix; -1 marks unmappable pairs.
struct MatrixLookup {
  const std::vector<std::vector<double>>* m;
  double operator()(NodeId x, NodeId y) const { return (*m)[x][y]; }
};

TEST(OperatorsTest, MaxPerRowTakesRowMaxima) {
  std::vector<std::vector<double>> m = {{0.2, 0.9}, {0.5, -1.0}};
  std::vector<NodeId> s1 = {0, 1};
  std::vector<NodeId> s2 = {0, 1};
  MatchingScratch scratch;
  OperatorConfig op{MappingKind::kMaxPerRow, OmegaKind::kSizeS1};
  double score = DirectionScore(op, MatchingAlgo::kGreedy, s1, s2,
                                MatrixLookup{&m}, &scratch);
  EXPECT_DOUBLE_EQ(score, (0.9 + 0.5) / 2.0);
}

TEST(OperatorsTest, MaxBothSidesAddsConverseSide) {
  std::vector<std::vector<double>> m = {{0.6, 0.8}};
  std::vector<NodeId> s1 = {0};
  std::vector<NodeId> s2 = {0, 1};
  MatchingScratch scratch;
  OperatorConfig op{MappingKind::kMaxBothSides, OmegaKind::kSumSizes};
  double score = DirectionScore(op, MatchingAlgo::kGreedy, s1, s2,
                                MatrixLookup{&m}, &scratch);
  // Row max 0.8 plus column maxima 0.6 and 0.8, over |S1|+|S2| = 3.
  EXPECT_DOUBLE_EQ(score, (0.8 + 0.6 + 0.8) / 3.0);
}

TEST(OperatorsTest, InjectiveUsesMatchingNotRowMaxima) {
  // Both rows prefer column 0; injectivity forces one onto column 1.
  std::vector<std::vector<double>> m = {{0.9, 0.1}, {0.8, 0.7}};
  std::vector<NodeId> s1 = {0, 1};
  std::vector<NodeId> s2 = {0, 1};
  MatchingScratch scratch;
  OperatorConfig op{MappingKind::kInjectiveRow, OmegaKind::kSizeS1};
  double greedy = DirectionScore(op, MatchingAlgo::kGreedy, s1, s2,
                                 MatrixLookup{&m}, &scratch);
  EXPECT_DOUBLE_EQ(greedy, (0.9 + 0.7) / 2.0);
  double hungarian = DirectionScore(op, MatchingAlgo::kHungarian, s1, s2,
                                    MatrixLookup{&m}, &scratch);
  EXPECT_DOUBLE_EQ(hungarian, (0.9 + 0.7) / 2.0);
}

TEST(OperatorsTest, HungarianBeatsGreedyWhenGreedyTraps) {
  std::vector<std::vector<double>> m = {{0.9, 0.8}, {0.7, 0.0}};
  std::vector<NodeId> s1 = {0, 1};
  std::vector<NodeId> s2 = {0, 1};
  MatchingScratch scratch;
  OperatorConfig op{MappingKind::kInjectiveRow, OmegaKind::kSizeS1};
  double greedy = DirectionScore(op, MatchingAlgo::kGreedy, s1, s2,
                                 MatrixLookup{&m}, &scratch);
  double hungarian = DirectionScore(op, MatchingAlgo::kHungarian, s1, s2,
                                    MatrixLookup{&m}, &scratch);
  EXPECT_DOUBLE_EQ(greedy, 0.9 / 2.0);
  EXPECT_DOUBLE_EQ(hungarian, (0.8 + 0.7) / 2.0);
  EXPECT_GE(greedy, hungarian / 2.0);  // ½-approximation
}

TEST(OperatorsTest, ProductSumsAllPairs) {
  std::vector<std::vector<double>> m = {{0.5, 0.25}, {0.25, 0.5}};
  std::vector<NodeId> s1 = {0, 1};
  std::vector<NodeId> s2 = {0, 1};
  MatchingScratch scratch;
  OperatorConfig op{MappingKind::kProduct, OmegaKind::kProduct};
  double score = DirectionScore(op, MatchingAlgo::kGreedy, s1, s2,
                                MatrixLookup{&m}, &scratch);
  EXPECT_DOUBLE_EQ(score, 1.5 / 4.0);
}

struct EmptyCase {
  MappingKind mapping;
  OmegaKind omega;
  bool s1_empty, s2_empty;
  double expected;
};

class EmptyConventions : public ::testing::TestWithParam<EmptyCase> {};

TEST_P(EmptyConventions, MatchTheDefinition) {
  const auto& c = GetParam();
  std::vector<std::vector<double>> m = {{1.0}};
  std::vector<NodeId> empty;
  std::vector<NodeId> one = {0};
  MatchingScratch scratch;
  OperatorConfig op{c.mapping, c.omega};
  double score = DirectionScore(op, MatchingAlgo::kGreedy,
                                c.s1_empty ? empty : one,
                                c.s2_empty ? empty : one, MatrixLookup{&m},
                                &scratch);
  EXPECT_DOUBLE_EQ(score, c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, EmptyConventions,
    ::testing::Values(
        // s: S1 empty is vacuous truth regardless of S2.
        EmptyCase{MappingKind::kMaxPerRow, OmegaKind::kSizeS1, true, true, 1.0},
        EmptyCase{MappingKind::kMaxPerRow, OmegaKind::kSizeS1, true, false, 1.0},
        EmptyCase{MappingKind::kMaxPerRow, OmegaKind::kSizeS1, false, true, 0.0},
        // dp mirrors s.
        EmptyCase{MappingKind::kInjectiveRow, OmegaKind::kSizeS1, true, false, 1.0},
        EmptyCase{MappingKind::kInjectiveRow, OmegaKind::kSizeS1, false, true, 0.0},
        // b: 1 only when both sides are empty.
        EmptyCase{MappingKind::kMaxBothSides, OmegaKind::kSumSizes, true, true, 1.0},
        EmptyCase{MappingKind::kMaxBothSides, OmegaKind::kSumSizes, true, false, 0.0},
        EmptyCase{MappingKind::kMaxBothSides, OmegaKind::kSumSizes, false, true, 0.0},
        // bj: 1 when both empty, 0 when exactly one is.
        EmptyCase{MappingKind::kInjectiveSym, OmegaKind::kGeoMean, true, true, 1.0},
        EmptyCase{MappingKind::kInjectiveSym, OmegaKind::kGeoMean, true, false, 0.0},
        EmptyCase{MappingKind::kInjectiveSym, OmegaKind::kGeoMean, false, true, 0.0},
        // product (SimRank): 0 when either side is empty.
        EmptyCase{MappingKind::kProduct, OmegaKind::kProduct, true, true, 0.0},
        EmptyCase{MappingKind::kProduct, OmegaKind::kProduct, true, false, 0.0}));

TEST(OperatorsTest, UpperBoundDominatesScore) {
  Rng rng(5);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t n1 = 1 + rng.NextBounded(5);
    const size_t n2 = 1 + rng.NextBounded(5);
    std::vector<std::vector<double>> m(n1, std::vector<double>(n2));
    for (auto& row : m) {
      for (auto& x : row) {
        x = rng.NextBernoulli(0.25) ? -1.0 : rng.NextDouble();
      }
    }
    std::vector<NodeId> s1(n1), s2(n2);
    for (size_t i = 0; i < n1; ++i) s1[i] = static_cast<NodeId>(i);
    for (size_t j = 0; j < n2; ++j) s2[j] = static_cast<NodeId>(j);
    auto compat = [&](NodeId x, NodeId y) { return m[x][y] >= 0.0; };
    MatchingScratch scratch;
    for (SimVariant v : kAllVariants) {
      OperatorConfig op = OperatorsForVariant(v);
      double score = DirectionScore(op, MatchingAlgo::kHungarian, s1, s2,
                                    MatrixLookup{&m}, &scratch);
      double bound = DirectionUpperBound(op, s1, s2, compat);
      EXPECT_LE(score, bound + 1e-9)
          << SimVariantName(v) << " trial " << trial;
    }
  }
}

// ------------------------------------------------------------ Validation --

TEST(ValidationTest, RejectsBadWeights) {
  auto pair = MakeRandomPair(1);
  FSimConfig config;
  config.w_out = 0.6;
  config.w_in = 0.4;  // sum == 1
  EXPECT_TRUE(ComputeFSim(pair.g1, pair.g2, config).status()
                  .IsInvalidArgument());
  config.w_out = -0.1;
  config.w_in = 0.4;
  EXPECT_TRUE(ComputeFSim(pair.g1, pair.g2, config).status()
                  .IsInvalidArgument());
}

TEST(ValidationTest, RejectsSeparateDictionaries) {
  LabelingOptions lo1, lo2;
  Graph g1 = ErdosRenyi(10, 20, lo1, 1);
  Graph g2 = ErdosRenyi(10, 20, lo2, 2);
  EXPECT_TRUE(
      ComputeFSim(g1, g2, FSimConfig{}).status().IsInvalidArgument());
}

TEST(ValidationTest, RejectsBadDomains) {
  auto pair = MakeRandomPair(2);
  FSimConfig config;
  config.theta = 1.5;
  EXPECT_FALSE(ComputeFSim(pair.g1, pair.g2, config).ok());
  config = FSimConfig{};
  config.alpha = 1.0;
  EXPECT_FALSE(ComputeFSim(pair.g1, pair.g2, config).ok());
  config = FSimConfig{};
  config.epsilon = 0.0;
  EXPECT_FALSE(ComputeFSim(pair.g1, pair.g2, config).ok());
  config = FSimConfig{};
  config.num_threads = 0;
  EXPECT_FALSE(ComputeFSim(pair.g1, pair.g2, config).ok());
}

// Every real-valued field is range-checked so that NaN fails, and epsilon
// and frontier_tolerance must be finite: a NaN weight would make every
// score NaN, a NaN θ would empty the candidate space and a NaN epsilon
// would stop the solve after one iteration, all without an error. A
// negative frontier_tolerance fails too, although it would run full
// sweeps as 0 does.
TEST(ValidationTest, RejectsNonFiniteFields) {
  auto pair = MakeRandomPair(2);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Row {
    const char* field;
    void (*set)(FSimConfig*, double);
  };
  const Row rows[] = {
      {"w_out", [](FSimConfig* c, double x) { c->w_out = x; }},
      {"w_in", [](FSimConfig* c, double x) { c->w_in = x; }},
      {"theta", [](FSimConfig* c, double x) { c->theta = x; }},
      {"alpha",
       [](FSimConfig* c, double x) {
         c->upper_bound = true;
         c->alpha = x;
       }},
      {"beta",
       [](FSimConfig* c, double x) {
         c->upper_bound = true;
         c->beta = x;
       }},
      {"epsilon", [](FSimConfig* c, double x) { c->epsilon = x; }},
      {"frontier_tolerance",
       [](FSimConfig* c, double x) { c->frontier_tolerance = x; }},
      {"frontier_density_threshold",
       [](FSimConfig* c, double x) { c->frontier_density_threshold = x; }},
      {"active_set_activation_fraction",
       [](FSimConfig* c, double x) {
         c->active_set_activation_fraction = x;
       }},
  };
  for (const Row& row : rows) {
    for (double x : {nan, inf, -inf}) {
      FSimConfig config;
      row.set(&config, x);
      EXPECT_TRUE(ValidateFSimConfig(pair.g1, pair.g2, config)
                      .IsInvalidArgument())
          << row.field << " = " << x;
    }
    // The table's setters are sound: a valid value passes.
    FSimConfig config;
    row.set(&config, 0.5);
    EXPECT_TRUE(ValidateFSimConfig(pair.g1, pair.g2, config).ok())
        << row.field;
  }

  // frontier_tolerance must also be >= 0.
  for (double x : {-1e-6, inf}) {
    FSimConfig config;
    config.frontier_tolerance = x;
    EXPECT_TRUE(
        ValidateFSimConfig(pair.g1, pair.g2, config).IsInvalidArgument())
        << "frontier_tolerance = " << x;
  }
}

TEST(ValidationTest, PairLimitIsEnforced) {
  auto pair = MakeRandomPair(3, 20, 20);
  FSimConfig config;
  config.pair_limit = 10;
  EXPECT_TRUE(ComputeFSim(pair.g1, pair.g2, config).status()
                  .IsInvalidArgument());
}

// ------------------------------------------------------------ Pair store --

TEST(PairStoreTest, ThetaOneKeepsSameLabelPairsOnly) {
  auto pair = MakeRandomPair(4, 10, 12, 3);
  FSimConfig config;
  config.theta = 1.0;
  LabelSimilarityCache lsim(*pair.g1.dict(), config.label_sim);
  auto store = PairStore::Build(pair.g1, pair.g2, config, lsim);
  ASSERT_TRUE(store.ok());
  size_t expected = 0;
  for (NodeId u = 0; u < pair.g1.NumNodes(); ++u) {
    for (NodeId v = 0; v < pair.g2.NumNodes(); ++v) {
      if (pair.g1.Label(u) == pair.g2.Label(v)) ++expected;
    }
  }
  EXPECT_EQ(store->size(), expected);
  for (size_t i = 0; i < store->size(); ++i) {
    EXPECT_EQ(pair.g1.Label(store->U(i)), pair.g2.Label(store->V(i)));
  }
}

TEST(PairStoreTest, ThetaZeroKeepsAllPairs) {
  auto pair = MakeRandomPair(5, 7, 9);
  FSimConfig config;
  LabelSimilarityCache lsim(*pair.g1.dict(), config.label_sim);
  auto store = PairStore::Build(pair.g1, pair.g2, config, lsim);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->size(), 7u * 9u);
}

TEST(PairStoreTest, KeysAreSortedAndIndexed) {
  auto pair = MakeRandomPair(6, 6, 6);
  FSimConfig config;
  LabelSimilarityCache lsim(*pair.g1.dict(), config.label_sim);
  auto store = PairStore::Build(pair.g1, pair.g2, config, lsim);
  ASSERT_TRUE(store.ok());
  const PairSpace& space = *store->space();
  const std::vector<uint64_t>& keys = space.keys();
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(keys[i - 1], keys[i]);
    }
    EXPECT_EQ(space.Find(PairFirst(keys[i]), PairSecond(keys[i])), i);
  }
}

TEST(PairStoreTest, UpperBoundPruningMonotoneInBeta) {
  auto pair = MakeRandomPair(7, 14, 14);
  size_t prev_kept = ~size_t{0};
  for (double beta : {0.0, 0.3, 0.6, 0.9}) {
    FSimConfig config;
    config.upper_bound = true;
    config.beta = beta;
    LabelSimilarityCache lsim(*pair.g1.dict(), config.label_sim);
    auto store = PairStore::Build(pair.g1, pair.g2, config, lsim);
    ASSERT_TRUE(store.ok());
    EXPECT_LE(store->info().kept, prev_kept);
    prev_kept = store->info().kept;
    EXPECT_EQ(store->info().kept + store->info().pruned,
              store->info().theta_candidates);
  }
}

// ------------------------------------------------- Figure 1 / fractional --

TEST(Figure1FractionalTest, Table2ExactOnesAndOrdering) {
  Figure1 fig = MakeFigure1();
  // Exactly the ✓ entries of Table 2 reach score 1.
  const bool expected[4][4] = {
      // v1    v2     v3     v4
      {false, true, true, true},    // s
      {false, false, true, true},   // dp
      {false, true, false, true},   // b
      {false, false, false, true},  // bj
  };
  int row = 0;
  for (SimVariant variant : kAllVariants) {
    auto scores =
        ComputeFSim(fig.pattern, fig.data, PropertyConfig(variant));
    ASSERT_TRUE(scores.ok());
    const NodeId vs[4] = {fig.v1, fig.v2, fig.v3, fig.v4};
    for (int col = 0; col < 4; ++col) {
      const double s = scores->Score(fig.u, vs[col]);
      if (expected[row][col]) {
        EXPECT_DOUBLE_EQ(s, 1.0)
            << SimVariantName(variant) << " v" << col + 1;
      } else {
        EXPECT_LT(s, 1.0 - 1e-7)
            << SimVariantName(variant) << " v" << col + 1;
        EXPECT_GT(s, 0.5) << "nearly-simulated pairs keep high scores";
      }
    }
    ++row;
  }
}

TEST(Figure1FractionalTest, V1IsWorstCandidateUnderAllVariants) {
  Figure1 fig = MakeFigure1();
  for (SimVariant variant : kAllVariants) {
    auto scores =
        ComputeFSim(fig.pattern, fig.data, PropertyConfig(variant));
    ASSERT_TRUE(scores.ok());
    const double s1 = scores->Score(fig.u, fig.v1);
    EXPECT_LE(s1, scores->Score(fig.u, fig.v2));
    EXPECT_LE(s1, scores->Score(fig.u, fig.v3));
    EXPECT_LE(s1, scores->Score(fig.u, fig.v4));
  }
}

// ----------------------------------------------------- P1-P3 properties --

struct PropertyCase {
  SimVariant variant;
  uint64_t seed;
};

class FSimProperties : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(FSimProperties, P1RangeAndP2SimulationDefiniteness) {
  const auto& param = GetParam();
  GraphPair pair = MakeRandomPair(param.seed, 9, 10, 2);
  auto scores =
      ComputeFSim(pair.g1, pair.g2, PropertyConfig(param.variant));
  ASSERT_TRUE(scores.ok()) << scores.status().ToString();
  BinaryRelation exact = MaxSimulation(pair.g1, pair.g2, param.variant);
  for (NodeId u = 0; u < pair.g1.NumNodes(); ++u) {
    for (NodeId v = 0; v < pair.g2.NumNodes(); ++v) {
      const double s = scores->Score(u, v);
      // P1: range.
      ASSERT_GE(s, 0.0);
      ASSERT_LE(s, 1.0);
      // P2: FSim = 1 ⟺ exact χ-simulation.
      if (exact.Contains(u, v)) {
        ASSERT_DOUBLE_EQ(s, 1.0)
            << SimVariantName(param.variant) << " (" << u << "," << v << ")";
      } else {
        ASSERT_LT(s, 1.0 - 1e-7)
            << SimVariantName(param.variant) << " (" << u << "," << v << ")";
      }
    }
  }
}

std::vector<PropertyCase> MakePropertyCases() {
  std::vector<PropertyCase> cases;
  for (SimVariant v : kAllVariants) {
    for (uint64_t seed = 0; seed < 6; ++seed) cases.push_back({v, seed});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(VariantsAndSeeds, FSimProperties,
                         ::testing::ValuesIn(MakePropertyCases()),
                         [](const auto& param_info) {
                           return std::string(
                                      SimVariantName(param_info.param.variant)) +
                                  "_seed" + std::to_string(param_info.param.seed);
                         });

class SymmetryProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SymmetryProperty, P3ConditionalSymmetry) {
  GraphPair pair = MakeRandomPair(GetParam() ^ 0x515, 8, 9, 2);
  for (SimVariant variant : {SimVariant::kBi, SimVariant::kBijective}) {
    auto fwd = ComputeFSim(pair.g1, pair.g2, PropertyConfig(variant));
    auto bwd = ComputeFSim(pair.g2, pair.g1, PropertyConfig(variant));
    ASSERT_TRUE(fwd.ok() && bwd.ok());
    for (NodeId u = 0; u < pair.g1.NumNodes(); ++u) {
      for (NodeId v = 0; v < pair.g2.NumNodes(); ++v) {
        ASSERT_NEAR(fwd->Score(u, v), bwd->Score(v, u), 1e-9)
            << SimVariantName(variant) << " (" << u << "," << v << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymmetryProperty,
                         ::testing::Range<uint64_t>(0, 6));

// ------------------------------------------------- Theorem 1/Corollary 1 --

class ConvergenceProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConvergenceProperty, DeltaContractsByWeightSum) {
  GraphPair pair = MakeRandomPair(GetParam() ^ 0xC0, 10, 10, 2);
  for (SimVariant variant : kAllVariants) {
    FSimConfig config = PropertyConfig(variant);
    config.record_delta_history = true;
    config.epsilon = 1e-8;
    config.max_iterations = 0;  // use the Corollary 1 bound
    auto scores = ComputeFSim(pair.g1, pair.g1, config);
    ASSERT_TRUE(scores.ok());
    const auto& stats = scores->stats();
    // Corollary 1: converged within ceil(log_{0.8}(1e-8)) = 83 iterations.
    EXPECT_TRUE(stats.converged) << SimVariantName(variant);
    const uint32_t bound = static_cast<uint32_t>(
        std::ceil(std::log(config.epsilon) / std::log(0.8)));
    EXPECT_LE(stats.iterations, bound);
    // Theorem 1: Δ_{k+1} <= (w+ + w-) Δ_k.
    const auto& history = stats.delta_history;
    for (size_t k = 0; k + 1 < history.size(); ++k) {
      EXPECT_LE(history[k + 1], 0.8 * history[k] + 1e-12)
          << SimVariantName(variant) << " at iteration " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConvergenceProperty,
                         ::testing::Range<uint64_t>(0, 4));

// --------------------------------------------------- Theorem 4: k-bisim --

class Theorem4 : public ::testing::TestWithParam<uint32_t> {};

TEST_P(Theorem4, FSimBAtIterationKMatchesKBisimulation) {
  const uint32_t k = GetParam();
  LabelingOptions lo;
  lo.num_labels = 2;
  lo.skew = 0.3;
  Graph g = ErdosRenyi(12, 24, lo, 1234);
  FSimConfig config;
  config.variant = SimVariant::kBi;
  config.w_out = 0.5;
  config.w_in = 0.0;  // k-bisimulation considers out-neighbors only (§4.3)
  config.label_sim = LabelSimKind::kIndicator;
  config.epsilon = 1e-15;
  config.max_iterations = k;
  auto scores = ComputeFSim(g, g, config);
  ASSERT_TRUE(scores.ok());
  auto sig = KBisimulationSignatures(g, k);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      const bool bisimilar = sig[u] == sig[v];
      const bool full_score = scores->Score(u, v) == 1.0;
      ASSERT_EQ(bisimilar, full_score)
          << "k=" << k << " (" << u << "," << v << ") score="
          << scores->Score(u, v);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, Theorem4, ::testing::Values(1u, 2u, 3u, 4u));

// -------------------------------------------------- Theorem 5: WL test --

class Theorem5 : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Theorem5, WLColorsEqualIffBijectiveSimulation) {
  GraphPair pair = MakeRandomPair(GetParam() ^ 0x77, 8, 8, 2);
  Graph u1 = pair.g1.AsUndirected();
  Graph u2 = pair.g2.AsUndirected();
  auto [c1, c2] = WLColors2(u1, u2);
  BinaryRelation bj = MaxSimulation(u1, u2, SimVariant::kBijective);
  auto scores = ComputeFSim(u1, u2, PropertyConfig(SimVariant::kBijective));
  ASSERT_TRUE(scores.ok());
  for (NodeId u = 0; u < u1.NumNodes(); ++u) {
    for (NodeId v = 0; v < u2.NumNodes(); ++v) {
      const bool wl_equal = c1[u] == c2[v];
      ASSERT_EQ(wl_equal, bj.Contains(u, v)) << "(" << u << "," << v << ")";
      ASSERT_EQ(wl_equal, scores->Score(u, v) == 1.0)
          << "(" << u << "," << v << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem5, ::testing::Range<uint64_t>(0, 6));

// ------------------------------------------- SimRank / RoleSim (§4.3) --

TEST(SimRankEquivalenceTest, FrameworkMatchesStandalone) {
  LabelingOptions lo;
  lo.num_labels = 1;  // SimRank is label-free
  Graph g = ErdosRenyi(12, 30, lo, 88);
  const double c = 0.8;
  const uint32_t iters = 8;
  auto standalone = SimRankScores(g, c, iters);
  FSimConfig config = SimRankFSimConfig(c);
  config.max_iterations = iters;
  config.epsilon = 1e-15;
  auto framework = ComputeFSim(g, g, config);
  ASSERT_TRUE(framework.ok()) << framework.status().ToString();
  const size_t n = g.NumNodes();
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      ASSERT_NEAR(framework->Score(u, v), standalone[u * n + v], 1e-10)
          << "(" << u << "," << v << ")";
    }
  }
}

TEST(RoleSimEquivalenceTest, FrameworkMatchesStandalone) {
  LabelingOptions lo;
  lo.num_labels = 1;
  Graph g = ErdosRenyi(10, 22, lo, 99).AsUndirected();
  const double beta = 0.15;
  const uint32_t iters = 6;
  auto standalone = RoleSimScores(g, beta, iters);
  FSimConfig config = RoleSimFSimConfig(beta);
  config.max_iterations = iters;
  config.epsilon = 1e-15;
  auto framework = ComputeFSim(g, g, config);
  ASSERT_TRUE(framework.ok()) << framework.status().ToString();
  const size_t n = g.NumNodes();
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      ASSERT_NEAR(framework->Score(u, v), standalone[u * n + v], 1e-12)
          << "(" << u << "," << v << ")";
    }
  }
}

TEST(SimRankEquivalenceTest, DiagonalPinnedToOne) {
  LabelingOptions lo;
  lo.num_labels = 1;
  Graph g = ErdosRenyi(8, 16, lo, 7);
  FSimConfig config = SimRankFSimConfig(0.6);
  config.max_iterations = 5;
  auto scores = ComputeFSim(g, g, config);
  ASSERT_TRUE(scores.ok());
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    EXPECT_DOUBLE_EQ(scores->Score(u, u), 1.0);
  }
}

// ----------------------------------------------------- Optimizations ----

TEST(ThetaTest, ThetaOneScoresStayInRangeAndKeepDefiniteness) {
  GraphPair pair = MakeRandomPair(0xBEE, 10, 10, 2);
  FSimConfig config = PropertyConfig(SimVariant::kSimple);
  config.theta = 1.0;
  auto scores = ComputeFSim(pair.g1, pair.g2, config);
  ASSERT_TRUE(scores.ok());
  BinaryRelation exact =
      MaxSimulation(pair.g1, pair.g2, SimVariant::kSimple);
  for (NodeId u = 0; u < pair.g1.NumNodes(); ++u) {
    for (NodeId v = 0; v < pair.g2.NumNodes(); ++v) {
      const double s = scores->Score(u, v);
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0);
      // θ = 1 only restricts the mapping to same-label nodes, which is all
      // an exact simulation ever uses — the ✓ pairs still score 1.
      if (exact.Contains(u, v)) {
        EXPECT_DOUBLE_EQ(s, 1.0);
      }
    }
  }
}

TEST(ThetaTest, HigherThetaNeverEnlargesCandidateSet) {
  GraphPair pair = MakeRandomPair(0xCAFE, 12, 12, 3);
  size_t prev = ~size_t{0};
  for (double theta : {0.0, 0.5, 1.0}) {
    FSimConfig config = PropertyConfig(SimVariant::kBijective);
    config.label_sim = LabelSimKind::kJaroWinkler;
    config.theta = theta;
    auto scores = ComputeFSim(pair.g1, pair.g2, config);
    ASSERT_TRUE(scores.ok());
    EXPECT_LE(scores->stats().maintained_pairs, prev);
    prev = scores->stats().maintained_pairs;
  }
}

TEST(UpperBoundTest, BetaZeroPreservesKeptScores) {
  GraphPair pair = MakeRandomPair(0xF00, 10, 10, 2);
  FSimConfig plain = PropertyConfig(SimVariant::kBijective);
  auto base = ComputeFSim(pair.g1, pair.g2, plain);
  ASSERT_TRUE(base.ok());
  FSimConfig with_ub = plain;
  with_ub.upper_bound = true;
  with_ub.beta = 0.0;
  with_ub.alpha = 0.0;
  auto pruned = ComputeFSim(pair.g1, pair.g2, with_ub);
  ASSERT_TRUE(pruned.ok());
  // Pairs pruned at β = 0 have bound 0, hence true score 0; all kept pairs
  // must agree exactly with the unpruned run.
  const auto& keys = pruned->keys();
  for (size_t i = 0; i < keys.size(); ++i) {
    const NodeId u = PairFirst(keys[i]);
    const NodeId v = PairSecond(keys[i]);
    ASSERT_NEAR(pruned->Score(u, v), base->Score(u, v), 1e-12);
  }
}

TEST(UpperBoundTest, Eq6BoundDominatesConvergedScores) {
  GraphPair pair = MakeRandomPair(0xF1, 10, 10, 2);
  for (SimVariant variant : kAllVariants) {
    FSimConfig config = PropertyConfig(variant);
    auto scores = ComputeFSim(pair.g1, pair.g2, config);
    ASSERT_TRUE(scores.ok());
    LabelSimilarityCache lsim(*pair.g1.dict(), config.label_sim);
    const OperatorConfig op = config.operators();
    auto compat = [&](NodeId x, NodeId y) {
      return lsim.Compatible(pair.g1.Label(x), pair.g2.Label(y),
                             config.theta);
    };
    for (NodeId u = 0; u < pair.g1.NumNodes(); ++u) {
      for (NodeId v = 0; v < pair.g2.NumNodes(); ++v) {
        const double bound =
            config.w_out * DirectionUpperBound(op, pair.g1.OutNeighbors(u),
                                               pair.g2.OutNeighbors(v),
                                               compat) +
            config.w_in * DirectionUpperBound(op, pair.g1.InNeighbors(u),
                                              pair.g2.InNeighbors(v),
                                              compat) +
            (1.0 - config.w_out - config.w_in) *
                lsim.Sim(pair.g1.Label(u), pair.g2.Label(v));
        ASSERT_LE(scores->Score(u, v), bound + 1e-9)
            << SimVariantName(variant) << " (" << u << "," << v << ")";
      }
    }
  }
}

TEST(UpperBoundTest, AlphaApproximatesPrunedLookups) {
  GraphPair pair = MakeRandomPair(0xF2, 12, 12, 2);
  FSimConfig config = PropertyConfig(SimVariant::kBijective);
  config.upper_bound = true;
  config.beta = 0.7;
  config.alpha = 0.3;
  auto scores = ComputeFSim(pair.g1, pair.g2, config);
  ASSERT_TRUE(scores.ok());
  EXPECT_GT(scores->stats().pruned_pairs, 0u);
  for (double v : scores->values()) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0 + 1e-12);
  }
}

// --------------------------------------------------------- Parallelism --

TEST(ParallelTest, ThreadCountDoesNotChangeScores) {
  GraphPair pair = MakeRandomPair(0xABC, 14, 14, 3);
  for (SimVariant variant : kAllVariants) {
    FSimConfig serial = PropertyConfig(variant);
    serial.matching = MatchingAlgo::kGreedy;
    FSimConfig parallel = serial;
    parallel.num_threads = 4;
    auto a = ComputeFSim(pair.g1, pair.g2, serial);
    auto b = ComputeFSim(pair.g1, pair.g2, parallel);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->NumPairs(), b->NumPairs());
    const auto& keys = a->keys();
    for (size_t i = 0; i < keys.size(); ++i) {
      const NodeId u = PairFirst(keys[i]);
      const NodeId v = PairSecond(keys[i]);
      ASSERT_DOUBLE_EQ(a->Score(u, v), b->Score(u, v))
          << SimVariantName(variant);
    }
  }
}

// -------------------------------------------------------- Score container --

TEST(FSimScoresTest, RowAndTopK) {
  Figure1 fig = MakeFigure1();
  auto scores =
      ComputeFSim(fig.pattern, fig.data, PropertyConfig(SimVariant::kSimple));
  ASSERT_TRUE(scores.ok());
  auto top = scores->TopK(fig.u, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_GE(top[0].second, top[1].second);
  EXPECT_DOUBLE_EQ(top[0].second, 1.0);
  auto row = scores->Row(fig.u);
  EXPECT_EQ(row.size(), fig.data.NumNodes());  // theta = 0 keeps all pairs
  EXPECT_FALSE(scores->Contains(fig.u, static_cast<NodeId>(1u << 20)));
  EXPECT_DOUBLE_EQ(scores->Score(fig.u, static_cast<NodeId>(1u << 20)), 0.0);
}

TEST(FSimScoresTest, TopKLargerThanRowReturnsAll) {
  Figure1 fig = MakeFigure1();
  auto scores =
      ComputeFSim(fig.pattern, fig.data, PropertyConfig(SimVariant::kSimple));
  ASSERT_TRUE(scores.ok());
  auto top = scores->TopK(fig.u, 1000);
  EXPECT_EQ(top.size(), fig.data.NumNodes());
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].second, top[i].second);
  }
}

// ---------------------------------------------------- Modeling details --

TEST(ModelingTest, MilnerModeIgnoresInNeighbors) {
  // Two nodes identical in out-structure but different in in-structure: the
  // original 1971 definition (w- = 0) scores them 1, the 2011 definition
  // (w- > 0) does not.
  GraphBuilder b;
  NodeId x = b.AddNode("T");   // in: a
  NodeId y = b.AddNode("T");   // in: none
  NodeId a = b.AddNode("S");
  b.AddEdge(a, x);
  Graph g = std::move(b).BuildOrDie();

  FSimConfig milner = PropertyConfig(SimVariant::kSimple);
  milner.w_out = 0.5;
  milner.w_in = 0.0;
  auto m = ComputeFSim(g, g, milner);
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m->Score(x, y), 1.0);

  FSimConfig ma2011 = PropertyConfig(SimVariant::kSimple);
  auto full = ComputeFSim(g, g, ma2011);
  ASSERT_TRUE(full.ok());
  EXPECT_LT(full->Score(x, y), 1.0);  // x's in-neighbor a has no image
  EXPECT_DOUBLE_EQ(full->Score(y, x), 1.0);  // but y ⇝ x still holds
}

TEST(ModelingTest, IsolatedSameLabelNodesFullySimilar) {
  GraphBuilder b;
  b.AddNode("Z");
  b.AddNode("Z");
  Graph g = std::move(b).BuildOrDie();
  for (SimVariant variant : kAllVariants) {
    auto scores = ComputeFSim(g, g, PropertyConfig(variant));
    ASSERT_TRUE(scores.ok());
    EXPECT_DOUBLE_EQ(scores->Score(0, 1), 1.0) << SimVariantName(variant);
  }
}

TEST(ModelingTest, LabelSimilarityDrivesCrossLabelScores) {
  // Same structure, nearly-equal label strings: L_J scores the pair high,
  // L_I scores it at 0 plus nothing (no neighbors).
  GraphBuilder b;
  b.AddNode("health");
  b.AddNode("wealth");
  Graph g = std::move(b).BuildOrDie();
  FSimConfig indicator = PropertyConfig(SimVariant::kSimple);
  auto si = ComputeFSim(g, g, indicator);
  ASSERT_TRUE(si.ok());
  FSimConfig jw = PropertyConfig(SimVariant::kSimple);
  jw.label_sim = LabelSimKind::kJaroWinkler;
  auto sj = ComputeFSim(g, g, jw);
  ASSERT_TRUE(sj.ok());
  EXPECT_GT(sj->Score(0, 1), si->Score(0, 1));
  EXPECT_LT(sj->Score(0, 1), 1.0);
}

}  // namespace
}  // namespace fsim
