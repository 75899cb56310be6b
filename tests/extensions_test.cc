// Tests for the extension components: the HHK-style efficient simulation
// algorithm (equivalence with the naive fixpoint), single-source top-k
// search (exactness of the localized computation + certified error bound),
// score serialization round trips, and the IsoRank baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <string>

#include "common/string_util.h"
#include "core/fsim_engine.h"
#include "core/scores_io.h"
#include "core/topk_search.h"
#include "exact/efficient_simulation.h"
#include "exact/exact_simulation.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "measures/isorank.h"
#include "tests/test_graphs.h"

namespace fsim {
namespace {

// ----------------------------------------------- Efficient simulation ----

class EfficientSimEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EfficientSimEquivalence, MatchesNaiveFixpoint) {
  auto pair = testing::MakeRandomPair(GetParam() ^ 0xEFF, 14, 16, 3);
  BinaryRelation naive =
      MaxSimulation(pair.g1, pair.g2, SimVariant::kSimple);
  BinaryRelation fast = MaxSimulationEfficient(pair.g1, pair.g2);
  for (NodeId u = 0; u < pair.g1.NumNodes(); ++u) {
    for (NodeId v = 0; v < pair.g2.NumNodes(); ++v) {
      ASSERT_EQ(naive.Contains(u, v), fast.Contains(u, v))
          << "(" << u << "," << v << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EfficientSimEquivalence,
                         ::testing::Range<uint64_t>(0, 10));

TEST(EfficientSimTest, Figure1Column) {
  auto fig = testing::MakeFigure1();
  BinaryRelation rel = MaxSimulationEfficient(fig.pattern, fig.data);
  EXPECT_FALSE(rel.Contains(fig.u, fig.v1));
  EXPECT_TRUE(rel.Contains(fig.u, fig.v2));
  EXPECT_TRUE(rel.Contains(fig.u, fig.v3));
  EXPECT_TRUE(rel.Contains(fig.u, fig.v4));
}

TEST(EfficientSimTest, LargerGraphAgreesWithNaive) {
  LabelingOptions lo;
  lo.num_labels = 4;
  lo.dict = std::make_shared<LabelDict>();
  Graph g1 = ErdosRenyi(60, 200, lo, 0xAA);
  Graph g2 = ErdosRenyi(70, 240, lo, 0xBB);
  BinaryRelation naive = MaxSimulation(g1, g2, SimVariant::kSimple);
  BinaryRelation fast = MaxSimulationEfficient(g1, g2);
  EXPECT_EQ(naive.CountPairs(), fast.CountPairs());
}

// ------------------------------------------------------- Top-k search ----

TEST(TopKSearchTest, MatchesFullEngineRow) {
  // Every config the search honors: θ = 0 and θ = 1 candidate sets, a
  // pinned diagonal, upper-bound pruning with tracked bounds, and the
  // θ = 0 s and b configs, whose searches run on the tile panels when the
  // ball covers every row. Each row must equal the full engine's FSim^depth
  // row bit for bit.
  const testing::GraphPair pair = testing::MakeRandomPair(0x70, 12, 14, 3);
  struct Case {
    const char* name;
    bool self;  // g1 against itself (pin_diagonal needs a diagonal)
    FSimConfig config;
  };
  FSimConfig bj;
  bj.variant = SimVariant::kBijective;
  FSimConfig s_theta1;
  s_theta1.variant = SimVariant::kSimple;
  s_theta1.theta = 1.0;
  FSimConfig s_theta0;
  s_theta0.variant = SimVariant::kSimple;
  FSimConfig b_theta0;
  b_theta0.variant = SimVariant::kBi;
  FSimConfig upper_bound;
  upper_bound.theta = 1.0;
  upper_bound.upper_bound = true;
  upper_bound.alpha = 0.2;
  const Case kCases[] = {{"bj theta=0", false, bj},
                         {"s theta=1", false, s_theta1},
                         {"simrank", true, SimRankFSimConfig()},
                         {"upper-bound alpha=0.2", false, upper_bound},
                         {"s theta=0", false, s_theta0},
                         {"b theta=0", false, b_theta0}};
  for (const Case& test_case : kCases) {
    const Graph& g2 = test_case.self ? pair.g1 : pair.g2;
    for (int threads : {1, 3}) {
      for (uint32_t depth : {2u, 6u}) {
        const std::string context =
            StrFormat("%s threads=%d depth=%u", test_case.name, threads,
                      depth);
        FSimConfig config = test_case.config;
        config.num_threads = threads;
        FSimConfig full_config = config;
        full_config.max_iterations = depth;
        full_config.epsilon = 1e-300;  // run exactly `depth` iterations
        auto full = ComputeFSim(pair.g1, g2, full_config);
        ASSERT_TRUE(full.ok()) << context << ": " << full.status().ToString();
        if (config.upper_bound) {
          ASSERT_GT(full->stats().pruned_pairs, 0u) << context;
        }
        for (NodeId source = 0; source < pair.g1.NumNodes(); ++source) {
          TopKOptions options;
          options.depth = depth;
          options.k = g2.NumNodes();
          auto topk = TopKSearch(pair.g1, g2, source, config, options);
          ASSERT_TRUE(topk.ok()) << context << ": "
                                 << topk.status().ToString();
          // The localized computation reproduces FSim^depth(source, ·)
          // exactly, over the same candidates.
          ASSERT_EQ(topk->ranking.size(), full->Row(source).size())
              << context << " source " << source;
          for (const auto& [v, score] : topk->ranking) {
            ASSERT_EQ(score, full->Score(source, v))
                << context << " source " << source << " candidate " << v;
          }
        }
      }
    }
  }
}

TEST(TopKSearchTest, ErrorBoundCoversConvergedScores) {
  auto pair = testing::MakeRandomPair(0x71, 10, 12, 2);
  FSimConfig config;
  config.variant = SimVariant::kSimple;
  config.epsilon = 1e-12;
  config.max_iterations = 150;
  auto converged = ComputeFSim(pair.g1, pair.g2, config);
  ASSERT_TRUE(converged.ok());

  for (uint32_t depth : {2u, 4u, 8u}) {
    TopKOptions options;
    options.depth = depth;
    options.k = pair.g2.NumNodes();
    auto topk = TopKSearch(pair.g1, pair.g2, 0, config, options);
    ASSERT_TRUE(topk.ok());
    for (const auto& [v, score] : topk->ranking) {
      ASSERT_LE(std::abs(score - converged->Score(0, v)),
                topk->error_bound + 1e-12)
          << "depth " << depth << " candidate " << v;
    }
  }
}

TEST(TopKSearchTest, DefaultDepthStopsOnDelta) {
  // Ring graphs: every node is within reach of the source, so the
  // default-depth ball covers every row, the search is the all-pairs
  // solve, and it stops on the delta as ComputeFSim does (6 and 9 steps
  // here, not the 21 of the Corollary 1 depth at ε = 0.01).
  auto dict = std::make_shared<LabelDict>();
  const Graph g1 = testing::MakeDenseRandomGraph(0x76, 24, dict);
  const Graph g2 = testing::MakeDenseRandomGraph(0x77, 30, dict);
  FSimConfig bj_theta1;
  bj_theta1.theta = 1.0;
  FSimConfig s_theta0;
  s_theta0.variant = SimVariant::kSimple;
  for (const FSimConfig& config : {bj_theta1, s_theta0}) {
    const std::string name = SimVariantName(config.variant);
    auto full = ComputeFSim(g1, g2, config);
    ASSERT_TRUE(full.ok()) << name << ": " << full.status().ToString();
    FSimConfig tight = config;
    tight.epsilon = 1e-12;
    auto converged = ComputeFSim(g1, g2, tight);
    ASSERT_TRUE(converged.ok()) << name;
    ASSERT_TRUE(converged->stats().converged) << name;

    TopKOptions options;
    options.k = g2.NumNodes();
    auto topk = TopKSearch(g1, g2, 0, config, options);
    ASSERT_TRUE(topk.ok()) << name << ": " << topk.status().ToString();
    EXPECT_EQ(topk->depth, full->stats().iterations) << name;
    EXPECT_LT(topk->depth, FSimIterationBound(config)) << name;
    ASSERT_EQ(topk->ranking.size(), full->Row(0).size()) << name;
    for (const auto& [v, score] : topk->ranking) {
      EXPECT_EQ(score, full->Score(0, v)) << name << " candidate " << v;
      EXPECT_LE(std::abs(score - converged->Score(0, v)), topk->error_bound)
          << name << " candidate " << v;
    }
  }
}

TEST(TopKSearchTest, RankingIsSortedAndTruncated) {
  auto pair = testing::MakeRandomPair(0x72, 10, 20, 2);
  FSimConfig config;
  TopKOptions options;
  options.k = 5;
  auto topk = TopKSearch(pair.g1, pair.g2, 3, config, options);
  ASSERT_TRUE(topk.ok());
  ASSERT_EQ(topk->ranking.size(), 5u);
  for (size_t i = 1; i < topk->ranking.size(); ++i) {
    EXPECT_GE(topk->ranking[i - 1].second, topk->ranking[i].second);
  }
}

TEST(TopKSearchTest, ThetaRestrictsCandidates) {
  auto pair = testing::MakeRandomPair(0x73, 10, 16, 3);
  FSimConfig config;
  config.theta = 1.0;
  TopKOptions options;
  options.k = 100;
  auto topk = TopKSearch(pair.g1, pair.g2, 2, config, options);
  ASSERT_TRUE(topk.ok());
  for (const auto& [v, score] : topk->ranking) {
    EXPECT_EQ(pair.g1.Label(2), pair.g2.Label(v));
  }
}

TEST(TopKSearchTest, RejectsBadSource) {
  auto pair = testing::MakeRandomPair(0x74, 5, 5);
  FSimConfig config;
  EXPECT_TRUE(TopKSearch(pair.g1, pair.g2, 999, config).status()
                  .IsInvalidArgument());
}

TEST(TopKSearchTest, LocalityReducesPairCount) {
  // On a long path graph, the radius-d ball around an end node is small, so
  // the localized search touches far fewer pairs than all-pairs.
  GraphBuilder b;
  constexpr uint32_t kPathLen = 60;
  for (uint32_t i = 0; i < kPathLen; ++i) b.AddNode("P");
  for (uint32_t i = 0; i + 1 < kPathLen; ++i) b.AddEdge(i, i + 1);
  Graph g = std::move(b).BuildOrDie();
  // bj, and s at θ = 0, whose partial ball keeps it off the tile panels.
  FSimConfig s_theta0;
  s_theta0.variant = SimVariant::kSimple;
  for (const FSimConfig& config : {FSimConfig{}, s_theta0}) {
    TopKOptions options;
    options.depth = 3;
    auto topk = TopKSearch(g, g, 0, config, options);
    ASSERT_TRUE(topk.ok()) << SimVariantName(config.variant);
    EXPECT_EQ(topk->pairs_computed, 4u * kPathLen)  // ball = {0,1,2,3}
        << SimVariantName(config.variant);
    EXPECT_EQ(topk->depth, 3u);
  }
}

// ------------------------------------------------------- Scores I/O ------

TEST(ScoresIoTest, RoundTripPreservesEverything) {
  auto pair = testing::MakeRandomPair(0x75, 10, 12, 3);
  FSimConfig config;
  config.variant = SimVariant::kBi;
  auto scores = ComputeFSim(pair.g1, pair.g2, config);
  ASSERT_TRUE(scores.ok());
  std::string text = ScoresToString(*scores);
  // Read against a space rebuilt from the graphs and config, as a server
  // loading a warm file does.
  auto space = PairSpace::Of(pair.g1, pair.g2, config);
  ASSERT_TRUE(space.ok()) << space.status().ToString();
  auto loaded = ScoresFromString(text, *space);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->NumPairs(), scores->NumPairs());
  for (NodeId u = 0; u < pair.g1.NumNodes(); ++u) {
    for (NodeId v = 0; v < pair.g2.NumNodes(); ++v) {
      ASSERT_DOUBLE_EQ(loaded->Score(u, v), scores->Score(u, v));
    }
  }
}

TEST(ScoresIoTest, SubnormalScoreRoundTrips) {
  // %.17g writes the smallest subnormal as 4.9406564584124654e-324, which
  // strtod reads back with an underflow ERANGE; the value must survive.
  const auto space = testing::FullPairSpace(1, 2);
  const double tiny = std::numeric_limits<double>::denorm_min();
  const FSimScores scores(space, {tiny, 0.5}, FSimStats{});
  const std::string text = ScoresToString(scores);
  EXPECT_NE(text.find("4.9406564584124654e-324"), std::string::npos) << text;
  auto loaded = ScoresFromString(text, space);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->Score(0, 0), tiny);
  EXPECT_EQ(loaded->Score(0, 1), 0.5);
}

// The writer appends each line with std::to_chars; its output must stay
// byte for byte what "%u %u %.17g\n" prints.
TEST(ScoresIoTest, WriterMatchesPrintfByteForByte) {
  std::vector<double> values = {
      0.0,
      1.0,
      1.0 / 3,
      2.0 / 3,
      0.1,
      0.5,
      1e-17,
      std::nextafter(1.0, 0.0),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::min() / 3,
      5e-324,
  };
  std::mt19937_64 rng(0x5c0e);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const uint32_t n1 = 101;
  const uint32_t n2 = 103;  // ids up to three digits
  // Uniform values mixed with tiny ones (every exponent down into the
  // subnormals), short decimals and float-rounded ones.
  while (values.size() < size_t{n1} * n2) {
    const double x = unit(rng);
    const int shift = static_cast<int>(rng() % 1075);
    const double forms[] = {x, std::ldexp(x, -shift),
                            std::round(x * 1000) / 1000,
                            static_cast<double>(static_cast<float>(x))};
    values.push_back(forms[values.size() % 4]);
  }
  const FSimScores scores(testing::FullPairSpace(n1, n2), values,
                          FSimStats{});
  std::string expected = "fsim-scores v1\n";
  expected += StrFormat("pairs %zu\n", values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    const uint64_t key = scores.keys()[i];
    expected += StrFormat("%u %u %.17g\n", PairFirst(key), PairSecond(key),
                          values[i]);
  }
  EXPECT_EQ(ScoresToString(scores), expected);
}

TEST(ScoresIoTest, FileRoundTrip) {
  auto pair = testing::MakeRandomPair(0x76, 6, 6);
  auto scores = ComputeFSim(pair.g1, pair.g2, FSimConfig{});
  ASSERT_TRUE(scores.ok());
  const std::string path = ::testing::TempDir() + "/fsim_scores_test.txt";
  ASSERT_TRUE(SaveScoresToFile(*scores, path).ok());
  auto loaded = LoadScoresFromFile(path, scores->space());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumPairs(), scores->NumPairs());
}

TEST(ScoresIoTest, RejectsCorruptInput) {
  const auto one = testing::FullPairSpace(1, 1);  // (0, 0)
  const auto two = testing::FullPairSpace(2, 1);  // (0, 0), (1, 0)
  EXPECT_TRUE(ScoresFromString("not a score file", one).status().IsIOError());
  EXPECT_TRUE(ScoresFromString("fsim-scores v1\npairs 2\n0 0 0.5\n", two)
                  .status()
                  .IsIOError());  // count mismatch
  EXPECT_TRUE(ScoresFromString("fsim-scores v1\npairs 1\n0 0 7.5\n", one)
                  .status()
                  .IsIOError());  // out-of-range score
  EXPECT_TRUE(ScoresFromString("fsim-scores v1\npairs 1\n0 0 nan\n", one)
                  .status()
                  .IsIOError());  // NaN score
  EXPECT_TRUE(
      ScoresFromString("fsim-scores v1\npairs 2\n0 0 0.5\n0 0 0.6\n", two)
          .status()
          .IsIOError());  // duplicate pair
  EXPECT_TRUE(
      ScoresFromString("fsim-scores v1\npairs 99999999999999\n0 0 0.5\n", one)
          .status()
          .IsIOError());  // count far beyond the text: no bad_alloc
  // A pair outside the space is named.
  const Status outside =
      ScoresFromString("fsim-scores v1\npairs 1\n0 1 0.5\n", one).status();
  EXPECT_TRUE(outside.IsIOError()) << outside.ToString();
  EXPECT_NE(outside.message().find("pair (0, 1)"), std::string::npos)
      << outside.ToString();
  // Ids over 32 bits, signed ids and trailing fields are malformed, not
  // wrapped to (1, 0) or (4294967295, 0) or truncated to three fields.
  const struct {
    const char* bad_line;
    const char* other_line;
  } kStrict[] = {
      {"4294967297 0 0.5", "0 0 0.25"},
      {"-1 0 0.5", "1 0 0.25"},
      {"0 0 0.5 junk", "1 0 0.25"},
  };
  for (const auto& c : kStrict) {
    const Status st =
        ScoresFromString(std::string("fsim-scores v1\npairs 2\n") +
                             c.bad_line + "\n" + c.other_line + "\n",
                         two)
            .status();
    EXPECT_TRUE(st.IsIOError()) << c.bad_line << ": " << st.ToString();
    EXPECT_NE(st.message().find("line 3"), std::string::npos)
        << c.bad_line << ": " << st.ToString();
  }
}

TEST(ScoresIoTest, AcceptsUnsortedInput) {
  auto loaded = ScoresFromString(
      "fsim-scores v1\npairs 4\n1 1 0.75\n0 1 0.5\n1 0 0.25\n0 0 0.125\n",
      testing::FullPairSpace(2, 2));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_DOUBLE_EQ(loaded->Score(1, 1), 0.75);
  EXPECT_DOUBLE_EQ(loaded->Score(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(loaded->Score(1, 0), 0.25);
  EXPECT_DOUBLE_EQ(loaded->Score(0, 0), 0.125);
}

// ----------------------------------------------------------- IsoRank -----

TEST(IsoRankTest, ScoresAreWellFormedAndLabelAware) {
  auto pair = testing::MakeRandomPair(0x77, 10, 12, 2);
  auto scores = IsoRankScores(pair.g1, pair.g2);
  const size_t n2 = pair.g2.NumNodes();
  for (NodeId u = 0; u < pair.g1.NumNodes(); ++u) {
    for (NodeId v = 0; v < n2; ++v) {
      const double s = scores[u * n2 + v];
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0 + 1e-9);
    }
  }
}

TEST(IsoRankTest, IdenticalGraphsFavorDiagonalStructure) {
  LabelingOptions lo;
  lo.num_labels = 3;
  Graph g = ErdosRenyi(12, 30, lo, 0x78);
  auto scores = IsoRankScores(g, g);
  const size_t n = g.NumNodes();
  // The diagonal should carry (weakly) maximal scores within each row's
  // same-label candidates.
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (g.Label(u) != g.Label(v)) continue;
      EXPECT_GE(scores[u * n + u] + 1e-9, 0.0);
    }
    EXPECT_GT(scores[u * n + u], 0.0);
  }
}

TEST(IsoRankTest, LabelMismatchGetsNoPrior) {
  GraphBuilder b;
  b.AddNode("A");
  b.AddNode("B");
  Graph g = std::move(b).BuildOrDie();
  auto scores = IsoRankScores(g, g);
  EXPECT_DOUBLE_EQ(scores[0 * 2 + 1], 0.0);
  EXPECT_GT(scores[0 * 2 + 0], 0.0);
}

}  // namespace
}  // namespace fsim
