// The segmented max-family sweep (core/operators.h SegmentedMaxFamilySums)
// and PairEvaluator's run evaluation (core/pair_evaluator.h) against their
// per-span references: every sum and every Equation 3 value must have the
// same bits as summing each span row by row (tests/naive_fsim.h
// MaxPerRowSumIndexed), then for b column by column
// (MaxBothSidesSumIndexed), and finishing the pair through
// MaxFamilyDirectionScore, at every run length (whole index chunks, single
// pairs, arbitrary splits) and for s and b solves at 1 and 3 threads.
// Inputs cover empty spans and empty sides, multi-entry rows, columns that
// several rows hit, pinned diagonals, tagged pruned refs (α > 0), the wide
// 12-byte entry layout and a short last chunk.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <iomanip>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/fsim_config.h"
#include "core/fsim_engine.h"
#include "core/init_value.h"
#include "core/operators.h"
#include "core/pair_evaluator.h"
#include "core/pair_store.h"
#include "graph/graph_builder.h"
#include "label/label_similarity.h"
#include "tests/naive_fsim.h"
#include "tests/test_graphs.h"

namespace fsim {
namespace {

using ::fsim::testing::MaxBothSidesSumIndexed;
using ::fsim::testing::MaxPerRowSumIndexed;

::testing::AssertionResult SameBits(double a, double b) {
  if (std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << std::setprecision(17) << a << " vs " << b;
}

// ---------------------------------------------------------------- kernel --

/// Scores whose sums depend on the order they are added in
/// ((0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)), with zeros and repeats.
const std::vector<double> kScores = {0.0, 0.1, 0.2, 0.3, 1.0 / 3.0, 0.7,
                                     1e-17, 0.25, 0.0, 0.9, 0.6, 1.0};

/// CSR spans built entry by entry, for the kernel, each with the column
/// count n2 of its S2.
template <typename Ref>
struct Spans {
  std::vector<Ref> entries;
  std::vector<uint32_t> offsets{0};
  std::vector<uint32_t> n2s;

  /// Appends a span of (row, ref) entries, rows ascending, each in a
  /// column of its own.
  void Add(const std::vector<std::pair<uint32_t, uint32_t>>& row_refs) {
    std::vector<std::array<uint32_t, 3>> triples;
    uint32_t col = 0;
    for (const auto& [row, ref] : row_refs) triples.push_back({row, col++, ref});
    AddWithColumns(triples, col);
  }

  /// Appends a span of (row, col, ref) entries, (row, col)-sorted, over
  /// n2 columns.
  void AddWithColumns(const std::vector<std::array<uint32_t, 3>>& triples,
                      uint32_t n2) {
    using Pos = decltype(Ref::row);
    for (const auto& [row, col, ref] : triples) {
      EXPECT_LT(col, n2);
      entries.push_back(
          Ref{static_cast<Pos>(row), static_cast<Pos>(col), ref});
    }
    offsets.push_back(static_cast<uint32_t>(entries.size()));
    n2s.push_back(n2);
  }

  size_t num_spans() const { return offsets.size() - 1; }

  std::span<const Ref> Span(size_t k) const {
    return {entries.data() + offsets[k], entries.data() + offsets[k + 1]};
  }
};

/// Runs both kernels on spans [a, b) and compares every sum with the
/// per-span references: s with MaxPerRowSumIndexed, b with
/// MaxBothSidesSumIndexed over the span's n2 columns. b's column slots
/// are sized to the widest n2 and must be all +0.0 again afterwards.
template <typename Ref, typename ScoreFn>
void ExpectRunMatchesReference(const Spans<Ref>& spans, size_t a, size_t b,
                               ScoreFn score_of) {
  SegmentedSweepScratch scratch;
  const std::span<const uint32_t> offsets =
      std::span<const uint32_t>(spans.offsets).subspan(a, b - a + 1);
  std::vector<double> sums(b - a, -1.0);
  SegmentedMaxFamilySums<MappingKind::kMaxPerRow>(
      spans.entries.data(), offsets, score_of, &scratch, sums.data());
  for (size_t k = a; k < b; ++k) {
    ASSERT_TRUE(
        SameBits(sums[k - a], MaxPerRowSumIndexed(spans.Span(k), score_of)))
        << "s: span " << k << " of run [" << a << ", " << b << ")";
  }
  uint32_t n2_max = 0;
  for (size_t k = a; k < b; ++k) n2_max = std::max(n2_max, spans.n2s[k]);
  scratch.columns.assign(n2_max, 0.0);
  std::fill(sums.begin(), sums.end(), -1.0);
  SegmentedMaxFamilySums<MappingKind::kMaxBothSides>(
      spans.entries.data(), offsets, score_of, &scratch, sums.data());
  for (size_t k = a; k < b; ++k) {
    ASSERT_TRUE(SameBits(sums[k - a],
                         MaxBothSidesSumIndexed(spans.n2s[k], spans.Span(k),
                                                score_of)))
        << "b: span " << k << " of run [" << a << ", " << b << ")";
  }
  for (size_t c = 0; c < scratch.columns.size(); ++c) {
    ASSERT_TRUE(SameBits(scratch.columns[c], 0.0))
        << "column slot " << c << " left set by run [" << a << ", " << b
        << ")";
  }
}

/// Every sub-run: single spans, runs starting or ending on empty spans,
/// and the whole buffer.
template <typename Ref, typename ScoreFn>
void ExpectEverySubRunMatchesReference(const Spans<Ref>& spans,
                                       ScoreFn score_of) {
  for (size_t a = 0; a < spans.num_spans(); ++a) {
    for (size_t b = a + 1; b <= spans.num_spans(); ++b) {
      ExpectRunMatchesReference(spans, a, b, score_of);
    }
  }
}

template <typename Ref>
void CheckHandBuiltSpans() {
  Spans<Ref> spans;
  spans.Add({});                                     // leading empty span
  spans.Add({{0, 5}});                               // one entry
  spans.Add({{0, 1}, {0, 5}, {0, 3}});               // one multi-entry row
  spans.Add({{0, 1}, {1, 2}, {2, 3}});               // order-sensitive sum
  spans.Add({});                                     // two empty spans
  spans.Add({});
  spans.Add({{0, 1}, {0, 2}, {1, 3}, {3, 0}, {3, 8}, {4, 4}});
  spans.Add({{2, 0}, {2, 8}});                       // all-zero row
  spans.Add({{0, 6}, {1, 6}, {1, 2}, {2, 6}});       // tiny and repeated
  spans.Add({{7, 9}});                               // high row id
  spans.Add({{0, 11}, {0, 11}, {1, 4}});             // ties in one row
  spans.Add({});                                     // trailing empties
  spans.Add({});
  ExpectEverySubRunMatchesReference(
      spans, [](uint32_t ref) { return kScores[ref]; });
}

TEST(SegmentedSweepKernel, HandBuiltSpansMatchPerSpanReference) {
  CheckHandBuiltSpans<PackedNeighborRef>();
  CheckHandBuiltSpans<NeighborRef>();
}

/// Spans whose rows share columns, as b's converse side sees them: column
/// maxima that several rows feed, tied across rows, hit only by a later
/// row, and n2 past every column the span uses.
template <typename Ref>
void CheckSharedColumnSpans() {
  Spans<Ref> spans;
  spans.AddWithColumns({}, 5);                          // empty, n2 = 5
  spans.AddWithColumns({{0, 3, 9}}, 7);                 // single entry
  spans.AddWithColumns({{0, 0, 1}, {0, 2, 3}, {1, 0, 3}, {1, 2, 1}}, 3);
  spans.AddWithColumns({{0, 1, 5}, {1, 1, 5}, {2, 1, 5}}, 2);  // one column,
                                                               // tied rows
  spans.AddWithColumns({{0, 0, 2}, {1, 0, 7}, {3, 4, 4}}, 9);  // col 4 only
                                                               // in row 3
  spans.AddWithColumns({{0, 0, 0}, {1, 0, 8}}, 4);      // an all-zero column
  spans.AddWithColumns({}, 1);
  spans.AddWithColumns({{2, 6, 6}}, 12);                // one far column
  spans.AddWithColumns(
      {{0, 1, 1}, {0, 3, 2}, {1, 1, 2}, {1, 2, 3}, {2, 0, 10}, {2, 3, 2}},
      6);                                               // order-sensitive
  spans.AddWithColumns({{0, 5, 11}, {1, 5, 11}, {1, 6, 11}}, 7);
  ExpectEverySubRunMatchesReference(
      spans, [](uint32_t ref) { return kScores[ref]; });
}

TEST(SegmentedSweepKernel, SharedColumnSpansMatchPerSpanReference) {
  CheckSharedColumnSpans<PackedNeighborRef>();
  CheckSharedColumnSpans<NeighborRef>();
}

template <typename Ref>
void CheckRandomSpans(uint64_t seed) {
  Rng rng(seed);
  Spans<Ref> spans;
  for (int s = 0; s < 400; ++s) {
    std::vector<std::pair<uint32_t, uint32_t>> row_refs;
    const uint64_t size = rng.Next() % 8;
    uint32_t row = 0;
    for (uint64_t e = 0; e < size; ++e) {
      row += static_cast<uint32_t>(rng.Next() % 3);  // repeats and gaps
      row_refs.emplace_back(row,
                            static_cast<uint32_t>(rng.Next() % kScores.size()));
    }
    spans.Add(row_refs);
  }
  auto score_of = [](uint32_t ref) { return kScores[ref]; };
  ExpectRunMatchesReference(spans, 0, spans.num_spans(), score_of);
  for (size_t k = 0; k < spans.num_spans(); ++k) {
    ExpectRunMatchesReference(spans, k, k + 1, score_of);
  }
  for (int r = 0; r < 200; ++r) {
    const size_t a = rng.Next() % spans.num_spans();
    const size_t b = a + 1 + rng.Next() % (spans.num_spans() - a);
    ExpectRunMatchesReference(spans, a, b, score_of);
  }
}

TEST(SegmentedSweepKernel, RandomSpansMatchPerSpanReference) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    CheckRandomSpans<PackedNeighborRef>(seed);
    CheckRandomSpans<NeighborRef>(seed);
  }
}

/// Random spans over few columns, so rows keep hitting the same ones; n2
/// is at times past every column used.
template <typename Ref>
void CheckRandomSharedColumnSpans(uint64_t seed) {
  Rng rng(seed);
  Spans<Ref> spans;
  for (int s = 0; s < 300; ++s) {
    const uint32_t n2 = 1 + static_cast<uint32_t>(rng.Next() % 6);
    const uint64_t rows = rng.Next() % 5;
    std::vector<std::array<uint32_t, 3>> triples;
    uint32_t row = 0;
    for (uint64_t r = 0; r < rows; ++r) {
      row += static_cast<uint32_t>(rng.Next() % 2);  // gaps
      for (uint32_t col = static_cast<uint32_t>(rng.Next() % 3); col < n2;
           col += 1 + static_cast<uint32_t>(rng.Next() % 2)) {
        triples.push_back(
            {row, col, static_cast<uint32_t>(rng.Next() % kScores.size())});
      }
      ++row;
    }
    spans.AddWithColumns(triples, n2 + static_cast<uint32_t>(rng.Next() % 3));
  }
  auto score_of = [](uint32_t ref) { return kScores[ref]; };
  ExpectRunMatchesReference(spans, 0, spans.num_spans(), score_of);
  for (size_t k = 0; k < spans.num_spans(); ++k) {
    ExpectRunMatchesReference(spans, k, k + 1, score_of);
  }
  for (int r = 0; r < 200; ++r) {
    const size_t a = rng.Next() % spans.num_spans();
    const size_t b = a + 1 + rng.Next() % (spans.num_spans() - a);
    ExpectRunMatchesReference(spans, a, b, score_of);
  }
}

TEST(SegmentedSweepKernel, RandomSharedColumnSpansMatchPerSpanReference) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    CheckRandomSharedColumnSpans<PackedNeighborRef>(seed);
    CheckRandomSharedColumnSpans<NeighborRef>(seed);
  }
}

TEST(SegmentedSweepKernel, TaggedPrunedRefsReadAlphaTimesBound) {
  // Refs with the tag bit read α · bound from the pruned table, the
  // others the score array, as PairEvaluator's score function does.
  const std::vector<float> bounds = {0.5f, 0.125f, 0.75f};
  const double alpha = 0.3;
  auto score_of = [&](uint32_t ref) -> double {
    if (IsPrunedRef(ref)) {
      return alpha * static_cast<double>(bounds[ref & ~kNeighborRefPrunedTag]);
    }
    return kScores[ref];
  };
  const uint32_t tag = kNeighborRefPrunedTag;
  auto check = [&](auto spans) {
    spans.Add({{0, tag | 0}, {0, 1}, {1, tag | 2}});
    spans.Add({});
    spans.Add({{0, 3}, {1, tag | 1}, {1, tag | 0}, {2, 0}});
    spans.Add({{0, tag | 2}});
    // Tagged and untagged refs meeting in one column.
    spans.AddWithColumns({{0, 0, tag | 1}, {0, 1, 3}, {1, 0, 2}, {1, 1, tag | 2}},
                         3);
    spans.AddWithColumns({{0, 2, tag | 0}, {1, 2, tag | 0}}, 4);
    ExpectEverySubRunMatchesReference(spans, score_of);
  };
  check(Spans<PackedNeighborRef>());
  check(Spans<NeighborRef>());
}

// ------------------------------------------------------------- evaluator --

/// The per-span reference of one Equation 3 value: each direction's
/// mapping sum from MaxPerRowSumIndexed (s) or MaxBothSidesSumIndexed (b),
/// finished by MaxFamilyDirectionScore.
double ReferenceValue(const Graph& g1, const Graph& g2,
                      const FSimConfig& config,
                      const LabelSimilarityCache& lsim, const PairStore& store,
                      size_t i) {
  const NodeId u = store.U(i);
  const NodeId v = store.V(i);
  if (config.pin_diagonal && u == v) return 1.0;
  const double alpha = config.upper_bound ? config.alpha : 0.0;
  auto score_of = [&](uint32_t ref) -> double {
    if (IsPrunedRef(ref)) {
      return alpha * static_cast<double>(
                         store.pruned_bounds_data()[ref &
                                                    ~kNeighborRefPrunedTag]);
    }
    return store.prev_data()[ref];
  };
  const OperatorConfig op = config.operators();
  auto direction = [&](size_t n1, size_t n2, auto refs) {
    const double sum = op.mapping == MappingKind::kMaxBothSides
                           ? MaxBothSidesSumIndexed(n2, refs, score_of)
                           : MaxPerRowSumIndexed(refs, score_of);
    return MaxFamilyDirectionScore(op, n1, n2, sum);
  };
  double out_score = 0.0;
  double in_score = 0.0;
  store.WithRefs(i, [&](auto out_refs, auto in_refs) {
    if (config.w_out > 0.0) {
      out_score = direction(g1.OutDegree(u), g2.OutDegree(v), out_refs);
    }
    if (config.w_in > 0.0) {
      in_score = direction(g1.InDegree(u), g2.InDegree(v), in_refs);
    }
  });
  const double label_weight = 1.0 - config.w_out - config.w_in;
  return config.w_out * out_score + config.w_in * in_score +
         label_weight * LabelTermValue(config, lsim, g1.Label(u), g2.Label(v));
}

struct InputShape {
  size_t pairs = 0;
  size_t multi_entry_rows = 0;
  size_t empty_side_pairs = 0;  // a direction with n1 = 0
};

InputShape ShapeOf(const Graph& g1, const PairStore& store) {
  InputShape shape;
  shape.pairs = store.size();
  for (size_t i = 0; i < store.size(); ++i) {
    if (g1.OutDegree(store.U(i)) == 0 || g1.InDegree(store.U(i)) == 0) {
      ++shape.empty_side_pairs;
    }
    store.WithRefs(i, [&](auto out_refs, auto in_refs) {
      for (auto refs : {out_refs, in_refs}) {
        for (size_t k = 1; k < refs.size(); ++k) {
          if (refs[k].row == refs[k - 1].row) ++shape.multi_entry_rows;
        }
      }
    });
  }
  return shape;
}

/// Three Jacobi steps on a fresh store, in the reverse-span layout when
/// `reverse_spans` asks for it. Each step evaluates the pairs as whole
/// index chunks, as single pairs and as random splits of each chunk, and
/// compares all three, bit for bit, with the per-span reference.
InputShape ExpectRunsMatchReference(const Graph& g1, const Graph& g2,
                                    const FSimConfig& config,
                                    const std::string& name,
                                    bool reverse_spans = false) {
  const LabelSimilarityCache lsim(*g1.dict(), config.label_sim);
  ThreadPool pool(1);
  auto built = PairStore::Build(g1, g2, config, lsim, &pool,
                                /*rows=*/nullptr, reverse_spans);
  EXPECT_TRUE(built.ok()) << name << ": " << built.status().ToString();
  if (!built.ok()) return {};
  PairStore& store = *built;
  const PairEvaluator<Graph> evaluator(g1, g2, config, lsim, store);
  const size_t n = store.size();
  const size_t kChunk = PairStore::kChunkPairs;
  PairEvalScratch scratch;
  Rng rng(n);
  std::vector<double> chunked(n);
  std::vector<double> single(n);
  std::vector<double> split(n);
  for (int step = 0; step < 3; ++step) {
    for (size_t begin = 0; begin < n; begin += kChunk) {
      const size_t end = std::min(n, begin + kChunk);
      evaluator.EvaluateRun(begin, end, &scratch, chunked.data() + begin);
      for (size_t i = begin; i < end; ++i) {
        evaluator.EvaluateRun(i, i + 1, &scratch, single.data() + i);
      }
      for (size_t a = begin; a < end;) {
        const size_t b = std::min(end, a + 1 + rng.Next() % 40);
        evaluator.EvaluateRun(a, b, &scratch, split.data() + a);
        a = b;
      }
    }
    for (size_t i = 0; i < n; ++i) {
      const double expected = ReferenceValue(g1, g2, config, lsim, store, i);
      EXPECT_TRUE(SameBits(chunked[i], expected))
          << name << " step " << step << " pair " << i << " (chunk run)";
      EXPECT_TRUE(SameBits(single[i], expected))
          << name << " step " << step << " pair " << i << " (single pair)";
      EXPECT_TRUE(SameBits(split[i], expected))
          << name << " step " << step << " pair " << i << " (split run)";
      if (::testing::Test::HasFailure()) return {};
      store.set_curr(i, chunked[i]);
    }
    store.SwapBuffers();
  }
  return ShapeOf(g1, store);
}

FSimConfig BaseConfig(SimVariant variant) {
  FSimConfig config;
  config.variant = variant;
  config.w_out = 0.45;
  config.w_in = 0.35;
  config.label_sim = LabelSimKind::kEditDistance;
  config.theta = 0.4;
  config.epsilon = 1e-6;
  return config;
}

class SegmentedSweepEvaluator : public ::testing::TestWithParam<SimVariant> {};

TEST_P(SegmentedSweepEvaluator, DenseGraphWithShortLastChunk) {
  // 40 nodes under four mutually similar labels: rows with several
  // compatible columns, and a pair count that leaves the last chunk short.
  const Graph g = testing::MakeDenseRandomGraph(7, 40);
  const InputShape shape =
      ExpectRunsMatchReference(g, g, BaseConfig(GetParam()), "dense");
  EXPECT_GT(shape.pairs, PairStore::kChunkPairs);
  EXPECT_NE(shape.pairs % PairStore::kChunkPairs, 0u);
  EXPECT_GT(shape.multi_entry_rows, 0u);
}

TEST_P(SegmentedSweepEvaluator, SparseGraphsWithEmptySides) {
  // Erdős–Rényi graphs leave nodes without out- or in-neighbors: empty
  // spans and n1 = 0 sides.
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const testing::GraphPair graphs = testing::MakeRandomPair(seed, 30, 34);
    FSimConfig config = BaseConfig(GetParam());
    config.label_sim = LabelSimKind::kIndicator;
    config.theta = 1.0;
    const InputShape shape = ExpectRunsMatchReference(
        graphs.g1, graphs.g2, config, "sparse seed " + std::to_string(seed));
    EXPECT_GT(shape.empty_side_pairs, 0u);
  }
}

TEST_P(SegmentedSweepEvaluator, SingleShortChunk) {
  const testing::GraphPair graphs = testing::MakeRandomPair(11, 8, 9);
  FSimConfig config = BaseConfig(GetParam());
  config.label_sim = LabelSimKind::kIndicator;
  config.theta = 1.0;
  const InputShape shape =
      ExpectRunsMatchReference(graphs.g1, graphs.g2, config, "one chunk");
  EXPECT_LT(shape.pairs, PairStore::kChunkPairs);
}

TEST_P(SegmentedSweepEvaluator, PinnedDiagonals) {
  const Graph g = testing::MakeDenseRandomGraph(19, 36);
  FSimConfig config = BaseConfig(GetParam());
  config.pin_diagonal = true;
  // Only the reverse-span layout gives the pinned pairs spans.
  ExpectRunsMatchReference(g, g, config, "pin_diagonal, reverse spans",
                           /*reverse_spans=*/true);
  ExpectRunsMatchReference(g, g, config, "pin_diagonal");
}

TEST_P(SegmentedSweepEvaluator, TaggedPrunedRefs) {
  const Graph g = testing::MakeDenseRandomGraph(23, 36);
  FSimConfig config = BaseConfig(GetParam());
  config.upper_bound = true;
  config.alpha = 0.3;
  config.beta = 0.6;
  const LabelSimilarityCache lsim(*g.dict(), config.label_sim);
  auto store = PairStore::Build(g, g, config, lsim);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->has_pruned_refs());
  ExpectRunsMatchReference(g, g, config, "upper bound, alpha > 0");
}

TEST_P(SegmentedSweepEvaluator, WideEntryLayout) {
  // A hub with 65,537 leaves needs the 12-byte entries.
  const Graph g1 = testing::MakeStarHub(65537);
  GraphBuilder builder(g1.dict());
  const NodeId hub = builder.AddNode("hub");
  const NodeId leaf1 = builder.AddNode("leaf");
  const NodeId leaf2 = builder.AddNode("leaf");
  builder.AddEdge(hub, leaf1);
  builder.AddEdge(hub, leaf2);
  builder.AddEdge(leaf1, leaf2);
  const Graph g2 = std::move(builder).BuildOrDie();
  FSimConfig config = BaseConfig(GetParam());
  config.label_sim = LabelSimKind::kIndicator;
  config.theta = 1.0;
  const LabelSimilarityCache lsim(*g1.dict(), config.label_sim);
  auto store = PairStore::Build(g1, g2, config, lsim);
  ASSERT_TRUE(store.ok());
  ASSERT_FALSE(store->packed_refs());
  ExpectRunsMatchReference(g1, g2, config, "wide layout");
}

/// Reference solve: full Jacobi sweeps of the per-span reference until the
/// max delta drops below ε or the iteration bound.
std::pair<std::vector<double>, uint32_t> ReferenceSolve(
    const Graph& g1, const Graph& g2, const FSimConfig& config) {
  const LabelSimilarityCache lsim(*g1.dict(), config.label_sim);
  auto built = PairStore::Build(g1, g2, config, lsim);
  EXPECT_TRUE(built.ok());
  PairStore& store = *built;
  uint32_t iterations = 0;
  while (iterations < FSimIterationBound(config)) {
    ++iterations;
    double max_delta = 0.0;
    for (size_t i = 0; i < store.size(); ++i) {
      const double value = ReferenceValue(g1, g2, config, lsim, store, i);
      max_delta = std::max(max_delta, std::abs(value - store.prev(i)));
      store.set_curr(i, value);
    }
    store.SwapBuffers();
    if (max_delta < config.epsilon) break;
  }
  return {store.TakeScores(), iterations};
}

void ExpectSolvesMatchReference(const Graph& g1, const Graph& g2,
                                FSimConfig config, const std::string& name) {
  const auto [expected, iterations] = ReferenceSolve(g1, g2, config);
  for (int threads : {1, 3}) {
    config.num_threads = threads;
    auto scores = ComputeFSim(g1, g2, config);
    ASSERT_TRUE(scores.ok()) << name << ": " << scores.status().ToString();
    ASSERT_EQ(scores->values().size(), expected.size()) << name;
    EXPECT_EQ(scores->stats().iterations, iterations)
        << name << " t=" << threads;
    EXPECT_EQ(std::memcmp(scores->values().data(), expected.data(),
                          expected.size() * sizeof(double)),
              0)
        << name << " t=" << threads;
  }
}

TEST_P(SegmentedSweepEvaluator, SolvesAtOneAndThreeThreadsMatchReference) {
  const Graph g = testing::MakeDenseRandomGraph(31, 48);
  ExpectSolvesMatchReference(g, g, BaseConfig(GetParam()), "full sweeps");
}

INSTANTIATE_TEST_SUITE_P(MaxFamily, SegmentedSweepEvaluator,
                         ::testing::Values(SimVariant::kSimple,
                                           SimVariant::kBi),
                         [](const auto& param_info) {
                           return param_info.param == SimVariant::kSimple
                                      ? std::string("s")
                                      : std::string("b");
                         });

}  // namespace
}  // namespace fsim
