// Tests for binary graph serialization (graph/binary_io.h) — round-trips
// plus defensive-decoding failure injection — and for the certified global
// top-k pair search (core/topk_allpairs.h).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/string_util.h"
#include "core/fsim_engine.h"
#include "core/panel_engine.h"
#include "core/topk_allpairs.h"
#include "exact/exact_simulation.h"
#include "graph/binary_io.h"
#include "graph/graph_io.h"
#include "gtest/gtest.h"
#include "test_graphs.h"

namespace fsim {
namespace {

using ::fsim::testing::MakeRandomPair;

// Rewrites the trailing checksum so a deliberately patched payload passes
// the integrity check and exercises the *semantic* validation behind it.
void FixChecksum(std::string* bytes) {
  const size_t payload_end = bytes->size() - 8;
  const uint64_t checksum =
      HashBytes(bytes->data() + 8, payload_end - 8);
  std::memcpy(bytes->data() + payload_end, &checksum, 8);
}

// ---------------------------------------------------------------------------
// Binary graph I/O: round trips
// ---------------------------------------------------------------------------

TEST(BinaryIO, RoundTripsRandomGraphs) {
  for (uint64_t seed : {131u, 132u, 133u}) {
    auto pair = MakeRandomPair(seed, 20, 20, 5);
    const Graph& g = pair.g1;
    std::string bytes = GraphToBinary(g);
    auto loaded = GraphFromBinary(bytes);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    // The canonical text serialization is a structural fingerprint.
    EXPECT_EQ(GraphToString(g), GraphToString(*loaded)) << "seed " << seed;
  }
}

TEST(BinaryIO, RoundTripsEmptyAndEdgelessGraphs) {
  GraphBuilder b;
  b.AddNode("only");
  Graph g = std::move(b).BuildOrDie();
  auto loaded = GraphFromBinary(GraphToBinary(g));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumNodes(), 1u);
  EXPECT_EQ(loaded->NumEdges(), 0u);
  EXPECT_EQ(loaded->LabelName(0), "only");
}

TEST(BinaryIO, RoundTripsThroughFile) {
  auto pair = MakeRandomPair(134);
  const std::string path = ::testing::TempDir() + "/fsim_binary_io_test.bin";
  ASSERT_TRUE(SaveGraphBinaryToFile(pair.g1, path).ok());
  auto loaded = LoadGraphBinaryFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(GraphToString(pair.g1), GraphToString(*loaded));
  std::remove(path.c_str());
}

TEST(BinaryIO, LoadsIntoSharedDictWithRemappedIds) {
  auto pair = MakeRandomPair(135);
  std::string bytes = GraphToBinary(pair.g2);

  // A target dictionary that already contains unrelated labels, so the
  // stored ids cannot be reused verbatim.
  auto dict = std::make_shared<LabelDict>();
  dict->Intern("pre-existing-a");
  dict->Intern("pre-existing-b");
  auto loaded = GraphFromBinary(bytes, dict);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->dict(), dict);
  for (NodeId u = 0; u < loaded->NumNodes(); ++u) {
    EXPECT_EQ(loaded->LabelName(u), pair.g2.LabelName(u));
  }
}

TEST(BinaryIO, LoadedGraphComputesIdenticalFSimScores) {
  auto pair = MakeRandomPair(136);
  auto dict = std::make_shared<LabelDict>();
  auto g1 = GraphFromBinary(GraphToBinary(pair.g1), dict);
  auto g2 = GraphFromBinary(GraphToBinary(pair.g2), dict);
  ASSERT_TRUE(g1.ok() && g2.ok());

  FSimConfig config;
  auto original = ComputeFSim(pair.g1, pair.g2, config);
  auto reloaded = ComputeFSim(*g1, *g2, config);
  ASSERT_TRUE(original.ok() && reloaded.ok());
  for (uint64_t key : original->keys()) {
    const NodeId u = PairFirst(key);
    const NodeId v = PairSecond(key);
    EXPECT_DOUBLE_EQ(original->Score(u, v), reloaded->Score(u, v));
  }
}

// ---------------------------------------------------------------------------
// Binary graph I/O: failure injection
// ---------------------------------------------------------------------------

TEST(BinaryIO, RejectsBadMagic) {
  auto pair = MakeRandomPair(141);
  std::string bytes = GraphToBinary(pair.g1);
  bytes[0] = 'X';
  auto loaded = GraphFromBinary(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIOError());
}

TEST(BinaryIO, RejectsCorruptedPayload) {
  auto pair = MakeRandomPair(142);
  std::string bytes = GraphToBinary(pair.g1);
  bytes[bytes.size() / 2] ^= 0x40;  // flip one bit mid-payload
  auto loaded = GraphFromBinary(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIOError());
}

TEST(BinaryIO, EveryTruncationFailsCleanly) {
  auto pair = MakeRandomPair(143, 6, 6, 2);
  std::string bytes = GraphToBinary(pair.g1);
  // Sweep all prefix lengths: none may crash, all must report an error.
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto loaded = GraphFromBinary(std::string_view(bytes).substr(0, len));
    EXPECT_FALSE(loaded.ok()) << "prefix length " << len;
  }
}

TEST(BinaryIO, RejectsUnsupportedVersion) {
  auto pair = MakeRandomPair(144);
  std::string bytes = GraphToBinary(pair.g1);
  uint32_t bad_version = 99;
  std::memcpy(bytes.data() + 8, &bad_version, 4);
  FixChecksum(&bytes);
  auto loaded = GraphFromBinary(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
}

TEST(BinaryIO, RejectsNonZeroFlags) {
  auto pair = MakeRandomPair(145);
  std::string bytes = GraphToBinary(pair.g1);
  uint32_t flags = 1;
  std::memcpy(bytes.data() + 12, &flags, 4);
  FixChecksum(&bytes);
  auto loaded = GraphFromBinary(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
}

TEST(BinaryIO, RejectsOversizedNodeCount) {
  auto pair = MakeRandomPair(146);
  std::string bytes = GraphToBinary(pair.g1);
  uint64_t huge = 1ULL << 40;
  std::memcpy(bytes.data() + 16, &huge, 8);  // num_nodes field
  FixChecksum(&bytes);
  auto loaded = GraphFromBinary(bytes);
  ASSERT_FALSE(loaded.ok());
}

TEST(BinaryIO, RejectsOversizedEdgeAndLabelCounts) {
  // Header counts sized to provoke giant allocations (or uint64 overflow in
  // a naive size check) must be rejected before any allocation happens.
  auto pair = MakeRandomPair(147);
  for (size_t field_offset : {24u, 32u}) {  // num_edges, num_labels
    for (uint64_t huge : {1ULL << 40, 1ULL << 61}) {
      std::string bytes = GraphToBinary(pair.g1);
      std::memcpy(bytes.data() + field_offset, &huge, 8);
      FixChecksum(&bytes);
      auto loaded = GraphFromBinary(bytes);
      ASSERT_FALSE(loaded.ok())
          << "offset " << field_offset << " value " << huge;
      EXPECT_TRUE(loaded.status().IsIOError());
    }
  }
}

TEST(BinaryIO, RejectsOutOfRangeEdge) {
  // A 2-node, 1-edge graph: the edge record sits in the last 8 payload
  // bytes; patch its target out of range.
  GraphBuilder b;
  NodeId x = b.AddNode("x");
  NodeId y = b.AddNode("y");
  b.AddEdge(x, y);
  Graph g = std::move(b).BuildOrDie();
  std::string bytes = GraphToBinary(g);
  uint32_t bad = 7;
  std::memcpy(bytes.data() + bytes.size() - 12, &bad, 4);  // edge dst
  FixChecksum(&bytes);
  auto loaded = GraphFromBinary(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
}

TEST(BinaryIO, MissingFileIsIOError) {
  auto loaded = LoadGraphBinaryFromFile("/nonexistent/fsim.bin");
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIOError());
}

// ---------------------------------------------------------------------------
// Certified all-pairs top-k
// ---------------------------------------------------------------------------

TEST(TopKPairs, MatchesBruteForceOnConvergedScores) {
  // bj on the neighbor index; s and b at θ = 0 on the tile panels.
  for (SimVariant variant :
       {SimVariant::kBijective, SimVariant::kSimple, SimVariant::kBi}) {
    for (uint64_t seed : {151u, 152u, 153u}) {
      auto pair = MakeRandomPair(seed);
      FSimConfig config;
      config.variant = variant;
      config.epsilon = 1e-10;
      const std::string context = StrFormat(
          "%s seed %llu", SimVariantName(variant),
          static_cast<unsigned long long>(seed));

      TopKPairsOptions options;
      options.k = 5;
      auto topk = ComputeTopKPairs(pair.g1, pair.g2, config, options);
      ASSERT_TRUE(topk.ok()) << context << ": " << topk.status().ToString();
      ASSERT_EQ(topk->pairs.size(), 5u) << context;

      auto full = ComputeFSim(pair.g1, pair.g2, config);
      ASSERT_TRUE(full.ok()) << context;
      // Brute force: sort all pairs by converged score.
      std::vector<std::pair<double, uint64_t>> all;
      for (size_t i = 0; i < full->keys().size(); ++i) {
        all.emplace_back(full->values()[i], full->keys()[i]);
      }
      std::sort(all.begin(), all.end(), std::greater<>());

      if (topk->certified) {
        for (size_t i = 0; i < 5; ++i) {
          bool found = false;
          for (size_t j = 0; j < 5; ++j) {
            if (topk->pairs[i].u == PairFirst(all[j].second) &&
                topk->pairs[i].v == PairSecond(all[j].second)) {
              found = true;
              break;
            }
          }
          EXPECT_TRUE(found) << context << ": certified pair "
                             << topk->pairs[i].u << "," << topk->pairs[i].v
                             << " not in brute-force top-5";
        }
      }
      // The reported scores are within the radius of the converged ones.
      for (const auto& p : topk->pairs) {
        EXPECT_NEAR(p.score, full->Score(p.u, p.v), topk->radius + 1e-9)
            << context;
      }
    }
  }
}

// At θ = 0 the s and b searches step on the tile panels in full sweeps, so
// every returned score is the fixed-iteration solve's value bit for bit,
// and the set is that matrix's top-k under the search's tie-break
// (descending score, then ascending (u, v)).
TEST(TopKPairs, PanelPathMatchesFixedIterationSolve) {
  const auto pair = MakeRandomPair(168, 14, 16, 3);
  for (SimVariant variant : {SimVariant::kSimple, SimVariant::kBi}) {
    for (int threads : {1, 3}) {
      FSimConfig config;
      config.variant = variant;
      config.num_threads = threads;
      const std::string context =
          StrFormat("%s threads=%d", SimVariantName(variant), threads);
      ASSERT_TRUE(RunsOnTilePanels(config)) << context;
      TopKPairsOptions options;
      options.k = 7;
      auto topk = ComputeTopKPairs(pair.g1, pair.g2, config, options);
      ASSERT_TRUE(topk.ok()) << context << ": " << topk.status().ToString();
      ASSERT_EQ(topk->pairs.size(), options.k) << context;

      FSimConfig fixed = config;
      fixed.max_iterations = topk->iterations;
      fixed.epsilon = 1e-300;  // run exactly topk->iterations sweeps
      auto full = ComputeFSim(pair.g1, pair.g2, fixed);
      ASSERT_TRUE(full.ok()) << context;
      ASSERT_EQ(full->stats().iterations, topk->iterations) << context;

      std::vector<std::pair<double, uint64_t>> all;
      for (size_t i = 0; i < full->keys().size(); ++i) {
        all.emplace_back(full->values()[i], full->keys()[i]);
      }
      std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
        return a.first != b.first ? a.first > b.first : a.second < b.second;
      });
      for (size_t i = 0; i < options.k; ++i) {
        const ScoredPair& p = topk->pairs[i];
        EXPECT_EQ(p.score, full->Score(p.u, p.v)) << context << " rank " << i;
        EXPECT_EQ(p.u, PairFirst(all[i].second)) << context << " rank " << i;
        EXPECT_EQ(p.v, PairSecond(all[i].second)) << context << " rank " << i;
      }
    }
  }
}

TEST(TopKPairs, EarlyTerminationSavesIterations) {
  auto pair = MakeRandomPair(161, 20, 20, 4);
  FSimConfig config;
  config.variant = SimVariant::kSimple;
  config.epsilon = 1e-10;  // full convergence would need many sweeps
  TopKPairsOptions options;
  options.k = 3;
  auto topk = ComputeTopKPairs(pair.g1, pair.g2, config, options);
  ASSERT_TRUE(topk.ok());
  EXPECT_LE(topk->iterations, topk->iteration_bound);
  if (topk->certified) {
    // Early certification beats the Corollary 1 bound.
    EXPECT_LT(topk->iterations, topk->iteration_bound);
  }
}

TEST(TopKPairs, ScoresAreDescending) {
  auto pair = MakeRandomPair(162);
  TopKPairsOptions options;
  options.k = 10;
  auto topk = ComputeTopKPairs(pair.g1, pair.g2, FSimConfig{}, options);
  ASSERT_TRUE(topk.ok());
  for (size_t i = 1; i < topk->pairs.size(); ++i) {
    EXPECT_GE(topk->pairs[i - 1].score, topk->pairs[i].score);
  }
}

TEST(TopKPairs, ZeroKRejected) {
  auto pair = MakeRandomPair(163);
  TopKPairsOptions options;
  options.k = 0;
  auto topk = ComputeTopKPairs(pair.g1, pair.g2, FSimConfig{}, options);
  ASSERT_FALSE(topk.ok());
  EXPECT_TRUE(topk.status().IsInvalidArgument());
}

TEST(TopKPairs, KLargerThanPairCountReturnsEverything) {
  auto pair = MakeRandomPair(164, 4, 4, 2);
  FSimConfig config;
  TopKPairsOptions options;
  options.k = 1000;
  auto topk = ComputeTopKPairs(pair.g1, pair.g2, config, options);
  ASSERT_TRUE(topk.ok());
  EXPECT_EQ(topk->pairs.size(), 16u);  // 4 x 4 candidate pairs at theta = 0
  EXPECT_TRUE(topk->certified);
}

TEST(TopKPairs, ExcludeDiagonalSkipsSelfPairs) {
  auto pair = MakeRandomPair(165, 8, 8, 2);
  FSimConfig config;
  config.variant = SimVariant::kBijective;
  TopKPairsOptions options;
  options.k = 6;
  options.exclude_diagonal = true;
  auto topk = ComputeTopKPairs(pair.g1, pair.g1, config, options);
  ASSERT_TRUE(topk.ok());
  for (const auto& p : topk->pairs) {
    EXPECT_NE(p.u, p.v);
  }
}

TEST(TopKPairs, ConvergeScoresTightensRadius) {
  auto pair = MakeRandomPair(166);
  FSimConfig config;
  config.epsilon = 1e-8;
  TopKPairsOptions quick;
  quick.k = 3;
  TopKPairsOptions tight = quick;
  tight.converge_scores = true;
  auto fast = ComputeTopKPairs(pair.g1, pair.g2, config, quick);
  auto full = ComputeTopKPairs(pair.g1, pair.g2, config, tight);
  ASSERT_TRUE(fast.ok() && full.ok());
  EXPECT_LE(full->radius, fast->radius + 1e-15);
  EXPECT_GE(full->iterations, fast->iterations);
}

TEST(TopKPairs, WorksWithThetaAndUpperBoundOptimizations) {
  auto pair = MakeRandomPair(167, 15, 15, 3);
  FSimConfig config;
  config.variant = SimVariant::kBijective;
  config.theta = 1.0;
  config.upper_bound = true;
  config.beta = 0.3;
  TopKPairsOptions options;
  options.k = 4;
  auto topk = ComputeTopKPairs(pair.g1, pair.g2, config, options);
  ASSERT_TRUE(topk.ok()) << topk.status().ToString();
  EXPECT_LE(topk->pairs.size(), 4u);
  // Same-label candidates only: every returned pair has equal labels.
  for (const auto& p : topk->pairs) {
    EXPECT_EQ(pair.g1.Label(p.u), pair.g2.Label(p.v));
  }
}

}  // namespace
}  // namespace fsim
