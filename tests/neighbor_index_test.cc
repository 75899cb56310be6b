// Path-equivalence tests for the pair-graph CSR neighbor index: for every
// MappingKind x OmegaKind operator combination (and both matching
// realizations, plus pin_diagonal and upper-bound pruning with α > 0), the
// indexed engine must reproduce the naive hash-lookup evaluation of
// Equation 3 (tests/naive_fsim.h) — same pairs, same iteration count,
// scores within 1e-12 — since the index enumerates exactly the candidate
// pairs the oracle's nested loops visit, in the same order. Plus the
// wide entry layout a high-degree hub needs, the parallel chunked build
// (the same index and scores at every pool size), and the budget ceiling:
// an index that cannot fit fails with ResourceExhausted.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/thread_pool.h"
#include "core/fsim_config.h"
#include "core/fsim_engine.h"
#include "core/incremental.h"
#include "core/pair_store.h"
#include "core/panel_engine.h"
#include "core/simrank.h"
#include "core/topk_allpairs.h"
#include "graph/graph_builder.h"
#include "tests/naive_fsim.h"
#include "tests/test_graphs.h"

namespace fsim {
namespace {

using ::fsim::testing::MakeDenseRandomGraph;

constexpr double kPathTolerance = 1e-12;

/// Runs `config` through ComputeFSim and the naive oracle and asserts both
/// produce the same pair set and iteration count, with scores equal within
/// 1e-12.
void ExpectPathEquivalence(const Graph& g, const FSimConfig& config,
                           const std::string& context) {
  auto indexed = ComputeFSimSelf(g, config);
  ASSERT_TRUE(indexed.ok()) << context << ": " << indexed.status().ToString();
  EXPECT_GT(indexed->stats().neighbor_index_bytes, 0u) << context;

  const testing::NaiveFSimResult naive = testing::NaiveFSim(g, g, config);
  ASSERT_EQ(indexed->keys(), naive.keys) << context;
  EXPECT_EQ(indexed->stats().iterations, naive.iterations) << context;
  for (size_t i = 0; i < naive.keys.size(); ++i) {
    const double a = indexed->values()[i];
    ASSERT_FALSE(std::isnan(a)) << context << " pair " << i;
    ASSERT_NEAR(a, naive.values[i], kPathTolerance)
        << context << " pair " << i << " (u=" << PairFirst(naive.keys[i])
        << ", v=" << PairSecond(naive.keys[i]) << ")";
  }
}

const MappingKind kAllMappings[] = {
    MappingKind::kMaxPerRow, MappingKind::kInjectiveRow,
    MappingKind::kMaxBothSides, MappingKind::kInjectiveSym,
    MappingKind::kProduct};
const OmegaKind kAllOmegas[] = {OmegaKind::kSizeS1, OmegaKind::kSumSizes,
                                OmegaKind::kGeoMean, OmegaKind::kMaxSize,
                                OmegaKind::kProduct};

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

using PathParam = std::tuple<MappingKind, OmegaKind, MatchingAlgo>;

class NeighborIndexPathEquivalence
    : public ::testing::TestWithParam<PathParam> {};

TEST_P(NeighborIndexPathEquivalence, IndexedMatchesNaiveOracle) {
  const auto [mapping, omega, matching] = GetParam();
  const Graph g = MakeDenseRandomGraph(/*seed=*/7 + static_cast<int>(omega));
  FSimConfig config;
  config.operator_override = OperatorConfig{mapping, omega};
  config.matching = matching;
  config.label_sim = LabelSimKind::kEditDistance;
  config.theta = 0.4;
  config.w_out = 0.35;
  config.w_in = 0.35;
  config.epsilon = 1e-4;
  ExpectPathEquivalence(g, config, std::string(MappingName(mapping)) + "/" +
                                       OmegaName(omega));
}

INSTANTIATE_TEST_SUITE_P(
    AllOperatorCombinations, NeighborIndexPathEquivalence,
    ::testing::Combine(::testing::ValuesIn(kAllMappings),
                       ::testing::ValuesIn(kAllOmegas),
                       ::testing::Values(MatchingAlgo::kGreedy,
                                         MatchingAlgo::kHungarian)),
    [](const ::testing::TestParamInfo<PathParam>& param_info) {
      return std::string(MappingName(std::get<0>(param_info.param))) + "_" +
             OmegaName(std::get<1>(param_info.param)) + "_" +
             (std::get<2>(param_info.param) == MatchingAlgo::kHungarian
                  ? "Hungarian"
                  : "Greedy");
    });

TEST(NeighborIndexTest, UpperBoundAlphaEquivalence) {
  // Pruned pairs contribute α * bound through the tagged refs; the oracle
  // reads the same float-rounded bounds by hash lookup, for every variant.
  const Graph g = MakeDenseRandomGraph(11);
  for (SimVariant variant :
       {SimVariant::kSimple, SimVariant::kDegreePreserving, SimVariant::kBi,
        SimVariant::kBijective}) {
    FSimConfig config;
    config.variant = variant;
    config.label_sim = LabelSimKind::kEditDistance;
    config.theta = 0.4;
    config.upper_bound = true;
    config.alpha = 0.3;
    config.beta = 0.6;
    config.epsilon = 1e-4;
    ExpectPathEquivalence(g, config,
                          std::string("ub-alpha variant ") +
                              std::to_string(static_cast<int>(variant)));
  }
}

TEST(NeighborIndexTest, UpperBoundAlphaZeroEquivalence) {
  // α = 0: pruned pairs are untracked and must be omitted from the index
  // (the oracle's lookups return 0 for them).
  const Graph g = MakeDenseRandomGraph(13);
  FSimConfig config;
  config.variant = SimVariant::kBijective;
  config.label_sim = LabelSimKind::kEditDistance;
  config.theta = 0.4;
  config.upper_bound = true;
  config.alpha = 0.0;
  config.beta = 0.6;
  config.epsilon = 1e-4;
  ExpectPathEquivalence(g, config, "ub-alpha-zero");
}

TEST(NeighborIndexTest, PinDiagonalEquivalence) {
  // SimRank semantics: diagonal pinned to 1, w+ = 0 (out-direction never
  // built), product operators.
  const Graph g = MakeDenseRandomGraph(17);
  FSimConfig config = SimRankFSimConfig(0.8);
  config.epsilon = 1e-4;
  ExpectPathEquivalence(g, config, "pin-diagonal simrank");
}

TEST(NeighborIndexTest, ThetaZeroEquivalence) {
  // θ = 0 admits every pair: the index covers the full N±(u) x N±(v)
  // products.
  const Graph g = MakeDenseRandomGraph(19, /*n=*/12);
  FSimConfig config;
  config.variant = SimVariant::kBijective;
  config.theta = 0.0;
  config.epsilon = 1e-4;
  ExpectPathEquivalence(g, config, "theta-zero");
}

TEST(NeighborIndexTest, WideRefLayoutEquivalence) {
  // The hub's 65,537 out-leaves put a neighbor-list position (65,536) past
  // 16 bits, so the build must choose the wide 12-byte entry layout, and
  // the wide index must still reproduce the naive oracle.
  const Graph g1 = testing::MakeStarHub(65537);
  GraphBuilder builder(g1.dict());
  const NodeId hub = builder.AddNode("hub");
  const NodeId leaf1 = builder.AddNode("leaf");
  const NodeId leaf2 = builder.AddNode("leaf");
  builder.AddEdge(hub, leaf1);
  builder.AddEdge(hub, leaf2);
  builder.AddEdge(leaf1, leaf2);
  const Graph g2 = std::move(builder).BuildOrDie();
  FSimConfig config;
  config.theta = 1.0;
  config.epsilon = 1e-4;

  auto wide = ComputeFSim(g1, g2, config);
  ASSERT_TRUE(wide.ok()) << wide.status().ToString();
  EXPECT_FALSE(wide->stats().packed_neighbor_refs);
  const testing::NaiveFSimResult naive = testing::NaiveFSim(g1, g2, config);
  ASSERT_EQ(wide->keys(), naive.keys);
  EXPECT_EQ(wide->stats().iterations, naive.iterations);
  for (size_t i = 0; i < naive.keys.size(); ++i) {
    ASSERT_NEAR(wide->values()[i], naive.values[i], kPathTolerance)
        << "pair " << i;
  }
}

/// Everything a build produces, flattened in pair order: per pair its key,
/// the bits of its initial score, its out- and in-span lengths, then each
/// entry's row, col and ref.
std::vector<uint64_t> FlattenIndex(const PairStore& store) {
  std::vector<uint64_t> flat;
  for (size_t i = 0; i < store.size(); ++i) {
    flat.push_back(PairKey(store.U(i), store.V(i)));
    flat.push_back(std::bit_cast<uint64_t>(store.prev(i)));
    store.WithRefs(i, [&](auto out_refs, auto in_refs) {
      flat.push_back(out_refs.size());
      flat.push_back(in_refs.size());
      for (auto refs : {out_refs, in_refs}) {
        for (const auto& entry : refs) {
          flat.push_back(entry.row);
          flat.push_back(entry.col);
          flat.push_back(entry.ref);
        }
      }
    });
  }
  return flat;
}

// θ = 0 over 100 nodes gives 10,000 pairs: 39 full index chunks and a
// ragged tail, so several workers fill chunk buffers side by side, and
// enough rows and pairs that enumeration and initialization split too.
constexpr uint32_t kParallelBuildNodes = 100;

TEST(NeighborIndexTest, ParallelBuildMatchesAcrossPoolSizes) {
  // Keys, initial scores and spans: the enumeration, initialization and
  // index stages all split across the workers.
  const Graph g = MakeDenseRandomGraph(37, kParallelBuildNodes);
  FSimConfig config;
  config.theta = 0.0;
  config.init = InitKind::kDegreeRatio;
  const LabelSimilarityCache lsim(*g.dict(), config.label_sim);

  std::vector<uint64_t> reference;
  size_t reference_bytes = 0;
  for (int threads : {1, 3, 4}) {
    ThreadPool pool(threads);
    auto store = PairStore::Build(g, g, config, lsim, &pool);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_GE(store->size(), 3 * PairStore::kChunkPairs);
    ASSERT_NE(store->size() % PairStore::kChunkPairs, 0u);
    EXPECT_TRUE(store->ValidateNeighborIndex().ok()) << threads;
    const std::vector<uint64_t> flat = FlattenIndex(*store);
    if (threads == 1) {
      reference = flat;
      reference_bytes = store->NeighborIndexBytes();
      continue;
    }
    ASSERT_EQ(flat, reference) << threads << " threads";
    EXPECT_EQ(store->NeighborIndexBytes(), reference_bytes)
        << threads << " threads";
  }
}

TEST(NeighborIndexTest, ParallelBuildScoresMatchAcrossThreads) {
  const Graph g = MakeDenseRandomGraph(37, kParallelBuildNodes);
  FSimConfig config;
  config.theta = 0.0;
  config.epsilon = 1e-4;
  config.num_threads = 1;
  auto serial = ComputeFSimSelf(g, config);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  config.num_threads = 4;
  auto parallel = ComputeFSimSelf(g, config);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(parallel->stats().neighbor_index_bytes,
            serial->stats().neighbor_index_bytes);
  EXPECT_EQ(parallel->stats().iterations, serial->stats().iterations);
  ASSERT_EQ(parallel->keys(), serial->keys());
  for (size_t i = 0; i < serial->values().size(); ++i) {
    ASSERT_EQ(parallel->values()[i], serial->values()[i]) << "pair " << i;
  }
}

/// The byte count an over-budget Status names after "needs up to ".
uint64_t NeededBytes(const Status& status) {
  const std::string message = status.ToString();
  const size_t at = message.find("needs up to ");
  if (at == std::string::npos) return 0;
  return std::strtoull(message.c_str() + at + 12, nullptr, 10);
}

/// Every engine treats the budget as a ceiling: a run whose index cannot
/// fit fails with ResourceExhausted naming the bytes it needs and the
/// budget, and that many bytes are enough.
TEST(NeighborIndexTest, OverBudgetRunsReturnResourceExhausted) {
  const Graph g = MakeDenseRandomGraph(23);
  FSimConfig config;
  config.variant = SimVariant::kBijective;
  config.label_sim = LabelSimKind::kEditDistance;
  config.theta = 0.4;
  config.neighbor_index_budget_bytes = 64;  // far below any real index

  auto expect_exhausted = [](const Status& status, const char* engine) {
    EXPECT_TRUE(status.IsResourceExhausted())
        << engine << ": " << status.ToString();
    EXPECT_NE(status.ToString().find("neighbor_index_budget_bytes 64"),
              std::string::npos)
        << engine << ": " << status.ToString();
    EXPECT_GT(NeededBytes(status), 64u) << engine << ": " << status.ToString();
    return NeededBytes(status);
  };
  auto sparse = ComputeFSimSelf(g, config);
  ASSERT_FALSE(sparse.ok());
  const uint64_t sparse_needed = expect_exhausted(sparse.status(), "sparse");
  TopKPairsOptions topk_options;
  topk_options.k = 3;
  auto topk = ComputeTopKPairs(g, g, config, topk_options);
  ASSERT_FALSE(topk.ok());
  EXPECT_EQ(expect_exhausted(topk.status(), "topk"), sparse_needed);
  // The tile panels serve θ = 0 s and b; their leg runs s.
  FSimConfig panel_config = config;
  panel_config.variant = SimVariant::kSimple;
  panel_config.theta = 0.0;
  ASSERT_TRUE(RunsOnTilePanels(panel_config));
  auto panels = ComputeFSimSelf(g, panel_config);
  ASSERT_FALSE(panels.ok());
  const uint64_t panel_needed = expect_exhausted(panels.status(), "panels");
  auto inc = IncrementalFSim::Create(g, g, config);
  ASSERT_FALSE(inc.ok());
  const uint64_t inc_needed = expect_exhausted(inc.status(), "incremental");

  config.neighbor_index_budget_bytes = sparse_needed;
  auto sparse_fit = ComputeFSimSelf(g, config);
  ASSERT_TRUE(sparse_fit.ok()) << sparse_fit.status().ToString();
  EXPECT_LE(sparse_fit->stats().neighbor_index_bytes, sparse_needed);
  // The panel count covers the label-term table and the tile panels
  // together, exactly: that many bytes hold both, and one byte less is
  // refused.
  panel_config.neighbor_index_budget_bytes = panel_needed;
  auto panel_fit = ComputeFSimSelf(g, panel_config);
  ASSERT_TRUE(panel_fit.ok()) << panel_fit.status().ToString();
  EXPECT_GT(panel_fit->stats().simd_panel_bytes, 0u);
  EXPECT_EQ(panel_fit->stats().neighbor_index_bytes, panel_needed);
  panel_config.neighbor_index_budget_bytes = panel_needed - 1;
  const Status panel_short = ComputeFSimSelf(g, panel_config).status();
  EXPECT_TRUE(panel_short.IsResourceExhausted()) << panel_short.ToString();
  EXPECT_EQ(NeededBytes(panel_short), panel_needed) << panel_short.ToString();
  config.neighbor_index_budget_bytes = inc_needed;
  auto inc_fit = IncrementalFSim::Create(g, g, config);
  ASSERT_TRUE(inc_fit.ok()) << inc_fit.status().ToString();
  EXPECT_LE(inc_fit->Snapshot().stats().neighbor_index_bytes, inc_needed);

  // 0 no longer means "no index": it is rejected up front.
  config.neighbor_index_budget_bytes = 0;
  EXPECT_TRUE(ComputeFSimSelf(g, config).status().IsInvalidArgument());
  panel_config.neighbor_index_budget_bytes = 0;
  EXPECT_TRUE(ComputeFSimSelf(g, panel_config).status().IsInvalidArgument());
  EXPECT_TRUE(
      IncrementalFSim::Create(g, g, config).status().IsInvalidArgument());
}

TEST(NeighborIndexTest, ChunkOffsetsRefuseGrowthPast32Bits) {
  // A chunk's span offsets are 32-bit: an edit that could grow one chunk
  // past PairStore::kMaxChunkEntries entries is refused whatever the
  // budget, and leaves the index as it was.
  const Graph g = MakeDenseRandomGraph(23);
  FSimConfig config;
  config.label_sim = LabelSimKind::kEditDistance;
  config.theta = 0.4;
  const LabelSimilarityCache lsim(*g.dict(), config.label_sim);
  auto store = PairStore::Build(g, g, config, lsim);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const size_t bytes = store->NeighborIndexBytes();
  const uint64_t no_budget = std::numeric_limits<uint64_t>::max();
  const Status past =
      store->ReserveInsert(PairStore::kMaxChunkEntries, 1, 1, no_budget);
  EXPECT_TRUE(past.IsResourceExhausted()) << past.ToString();
  EXPECT_NE(past.ToString().find("32-bit offsets"), std::string::npos)
      << past.ToString();
  EXPECT_EQ(store->NeighborIndexBytes(), bytes);
  EXPECT_TRUE(store->ValidateNeighborIndex().ok());
  EXPECT_TRUE(store->ReserveInsert(1, 1, 1, no_budget).ok());
}

TEST(NeighborIndexTest, TightBudgetBuildEquivalence) {
  // The budget covers the index, not its build: a budget of exactly the
  // index bytes must still build it in the one pass, with bit-identical
  // scores, and one byte less must be refused. θ = 0 with no pruning keeps
  // every candidate entry, so the index bytes equal the budget bound.
  const Graph g = MakeDenseRandomGraph(31, /*n=*/12);
  FSimConfig config;
  config.variant = SimVariant::kBijective;
  config.theta = 0.0;
  config.epsilon = 1e-4;

  auto roomy = ComputeFSimSelf(g, config);
  ASSERT_TRUE(roomy.ok());
  const size_t index_bytes = roomy->stats().neighbor_index_bytes;

  config.neighbor_index_budget_bytes = index_bytes;
  auto tight = ComputeFSimSelf(g, config);
  ASSERT_TRUE(tight.ok()) << tight.status().ToString();
  EXPECT_EQ(tight->stats().neighbor_index_bytes, index_bytes);
  ASSERT_EQ(tight->keys(), roomy->keys());
  for (size_t i = 0; i < tight->keys().size(); ++i) {
    ASSERT_EQ(tight->values()[i], roomy->values()[i]) << "pair " << i;
  }

  config.neighbor_index_budget_bytes = index_bytes - 1;
  const Status short_budget = ComputeFSimSelf(g, config).status();
  EXPECT_TRUE(short_budget.IsResourceExhausted()) << short_budget.ToString();
  EXPECT_EQ(NeededBytes(short_budget), index_bytes) << short_budget.ToString();
}

}  // namespace
}  // namespace fsim
