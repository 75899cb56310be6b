// Tests for the chunk scheduler (common/thread_pool.h) and the
// multi-thread determinism contracts built on it: the parallel-for must
// cover its range exactly once under adversarially skewed per-index costs
// (one index ~1000x heavier than the rest, the shape that starves a
// static partition) and when several threads start regions on one pool at
// once; and the incremental engine's scores, after its initial solve and
// after every edit, must not depend on the engine's thread count at all,
// under any MappingKind x OmegaKind x matching operator.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/fsim_config.h"
#include "core/fsim_engine.h"
#include "core/incremental.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "test_graphs.h"

namespace fsim {
namespace {

using ::fsim::testing::MakeRandomPair;

// Burns enough work to make one index dominate a chunk (the adversarial
// shape: a static partition finishes every other worker early while the
// heavy chunk's owner grinds alone).
void BurnWork(int iters) {
  volatile int64_t sink = 0;
  for (int i = 0; i < iters; ++i) sink = sink + i;
}

/// Runs the parallel-for over [0, n) with index `heavy` costing ~1000x,
/// asserting exactly-once coverage and in-range worker ids.
void StressParallelFor(int num_threads, size_t n, size_t grain, size_t heavy) {
  ThreadPool pool(num_threads);
  std::vector<std::atomic<uint32_t>> hits(n);
  for (auto& h : hits) h.store(0);
  std::atomic<bool> worker_ok{true};
  pool.ParallelForChunked(n, grain, [&](int worker, size_t begin, size_t end) {
    if (worker < 0 || worker >= num_threads) worker_ok.store(false);
    for (size_t i = begin; i < end; ++i) {
      BurnWork(i == heavy ? 50000 : 50);
      hits[i].fetch_add(1);
    }
  });
  EXPECT_TRUE(worker_ok.load()) << "threads=" << num_threads;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1u)
        << "threads=" << num_threads << " index=" << i;
  }
}

TEST(ThreadPoolScheduler, SkewedCostsCoverEveryIndexOnceAt1Thread) {
  StressParallelFor(1, 4096, 7, 1234);
}

TEST(ThreadPoolScheduler, SkewedCostsCoverEveryIndexOnceAt2Threads) {
  StressParallelFor(2, 4096, 7, 1234);
}

TEST(ThreadPoolScheduler, SkewedCostsCoverEveryIndexOnceAt8Threads) {
  StressParallelFor(8, 4096, 7, 1234);
}

// The heavy index landing in the last chunk is the worst case for the
// shared counter: it is claimed last and runs alone while the others wait.
TEST(ThreadPoolScheduler, HeavyTailIndexIsCoveredExactlyOnce) {
  StressParallelFor(8, 2048, 16, 2047);
}

uint64_t RegionCount(const char* kind) {
  for (const auto& [label, value] :
       obs::Registry::Default().CounterFamilySnapshot(
           "fsim_scheduler_regions_total")) {
    if (label == kind) return value;
  }
  return 0;
}

// Alternating inline (one chunk) and parallel regions on one pool: the
// counter reset between regions must not leak chunks from one to the next,
// and each region is counted under its kind.
TEST(ThreadPoolScheduler, AlternatingInlineAndParallelRegionsStayIsolated) {
  ThreadPool pool(4);
  const uint64_t inline0 = RegionCount("inline");
  const uint64_t parallel0 = RegionCount("parallel");
  for (int round = 0; round < 20; ++round) {
    const size_t n = (round % 2 == 0) ? 3 : 4096;  // 3 <= grain: inline
    std::vector<std::atomic<uint32_t>> hits(n);
    for (auto& h : hits) h.store(0);
    pool.ParallelForChunked(n, 4, [&](int /*worker*/, size_t b, size_t e) {
      for (size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1u);
  }
  EXPECT_GE(RegionCount("inline") - inline0, 10u);
  EXPECT_GE(RegionCount("parallel") - parallel0, 10u);
}

// Two caller threads start regions on one pool at once (a QueryEngine's
// batch pool shared by reader threads). Every
// index of each caller's range must run exactly once, and no two bodies
// may run under the same worker id at the same time (per-worker scratch).
// The first slice of every region sleeps, so the other caller's next
// region is requested while this one is still running.
TEST(ThreadPoolScheduler, ConcurrentCallersCoverTheirRangesOnce) {
  constexpr int kThreads = 3;
  constexpr size_t kN = 20000;
  constexpr size_t kGrain = 16;
  constexpr int kRounds = 20;
  ThreadPool pool(kThreads);
  std::vector<std::atomic<bool>> busy(kThreads);
  for (auto& b : busy) b.store(false);
  std::atomic<bool> shared_worker{false};
  const auto enter = [&](int worker, bool first) {
    if (busy[static_cast<size_t>(worker)].exchange(true)) {
      shared_worker.store(true);
    }
    if (first) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  const auto leave = [&](int worker) {
    busy[static_cast<size_t>(worker)].store(false);
  };

  std::vector<std::atomic<uint32_t>> hits[2] = {
      std::vector<std::atomic<uint32_t>>(kN),
      std::vector<std::atomic<uint32_t>>(kN)};
  std::atomic<size_t> wrong[2] = {0, 0};
  const auto caller = [&](int c) {
    for (int round = 0; round < kRounds; ++round) {
      for (auto& h : hits[c]) h.store(0);
      pool.ParallelForChunked(kN, kGrain,
                              [&](int worker, size_t begin, size_t end) {
                                enter(worker, begin == 0);
                                for (size_t i = begin; i < end; ++i) {
                                  hits[c][i].fetch_add(1);
                                }
                                leave(worker);
                              });
      for (const auto& h : hits[c]) wrong[c] += h.load() != 1;
    }
  };
  std::thread a(caller, 0);
  std::thread b(caller, 1);
  a.join();
  b.join();
  EXPECT_EQ(wrong[0].load(), 0u);
  EXPECT_EQ(wrong[1].load(), 0u);
  EXPECT_FALSE(shared_worker.load());
}

// ---------------------------------------------------------------------------
// Incremental engine across thread counts
// ---------------------------------------------------------------------------

std::vector<std::tuple<int, NodeId, NodeId, bool>> EditScript(
    const testing::GraphPair& pair) {
  // A deterministic mix of inserts and removes within both graphs' node
  // ranges; ops that fail identically on both engines are fine.
  std::vector<std::tuple<int, NodeId, NodeId, bool>> script;
  Rng rng(0xED17);
  const NodeId n1 = static_cast<NodeId>(pair.g1.NumNodes());
  const NodeId n2 = static_cast<NodeId>(pair.g2.NumNodes());
  for (int e = 0; e < 12; ++e) {
    const int graph_index = (rng.Next() % 2) ? 1 : 2;
    const NodeId n = graph_index == 1 ? n1 : n2;
    NodeId from = static_cast<NodeId>(rng.Next() % n);
    NodeId to = static_cast<NodeId>(rng.Next() % n);
    if (from == to) to = (to + 1) % n;
    script.emplace_back(graph_index, from, to, (rng.Next() % 3) != 0);
  }
  return script;
}

Status ApplyOp(IncrementalFSim* inc,
               const std::tuple<int, NodeId, NodeId, bool>& op) {
  const auto [graph_index, from, to, insert] = op;
  return insert ? inc->InsertEdge(graph_index, from, to)
                : inc->RemoveEdge(graph_index, from, to);
}

// The initial solve runs full sweeps, which are bit-identical at any
// thread count, and edit repair is serial at every thread count — so
// engines at 1, 2 and 8 threads agree bit for bit after Create and after
// every edit of the script.
TEST(ParallelPropagate, EditsIdenticalAtAnyThreadCount) {
  auto pair = MakeRandomPair(/*seed=*/3);
  FSimConfig config;
  config.variant = SimVariant::kBi;
  config.matching = MatchingAlgo::kHungarian;
  config.theta = 0.0;
  config.w_out = 0.35;
  config.w_in = 0.35;
  config.epsilon = 1e-12;
  IncrementalOptions options;
  options.propagation_tolerance = 1e-14;

  const int kThreads[] = {1, 2, 8};
  std::vector<IncrementalFSim> engines;
  for (int t : kThreads) {
    FSimConfig c = config;
    c.num_threads = t;
    auto inc = IncrementalFSim::Create(pair.g1, pair.g2, c, options);
    ASSERT_TRUE(inc.ok()) << "t=" << t << ": " << inc.status().ToString();
    engines.push_back(std::move(*inc));
  }
  auto expect_identical = [&](const char* when) {
    const FSimScores base = engines[0].Snapshot();
    for (size_t e = 1; e < engines.size(); ++e) {
      const FSimScores other = engines[e].Snapshot();
      ASSERT_EQ(base.keys(), other.keys()) << when;
      for (size_t i = 0; i < base.keys().size(); ++i) {
        ASSERT_EQ(base.values()[i], other.values()[i])
            << when << ", t=" << kThreads[e] << ", pair " << i;
      }
    }
  };
  expect_identical("after Create");

  for (const auto& op : EditScript(pair)) {
    const Status s1 = ApplyOp(&engines[0], op);
    for (size_t e = 1; e < engines.size(); ++e) {
      ASSERT_EQ(ApplyOp(&engines[e], op).ok(), s1.ok());
    }
    expect_identical("after edit");
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

class MultiThreadOperatorSweep : public ::testing::TestWithParam<SweepParam> {
};

// The same contract under every operator: a four-thread engine's initial
// solve splits each full sweep into index chunks across the workers, and
// its repairs run serially, so it agrees bit for bit with a one-thread
// engine after Create and after every edit of the script — greedy
// injective matchings included, whose tie-breaks would expose any
// difference in evaluation order.
TEST_P(MultiThreadOperatorSweep,
       FourThreadEngineMatchesOneThreadAfterEveryEdit) {
  const auto [mapping, omega, matching] = GetParam();
  testing::GraphPair pair;
  pair.g1 =
      testing::MakeDenseRandomGraph(/*seed=*/17 + static_cast<int>(omega));
  pair.g2 = pair.g1;
  FSimConfig config;
  config.operator_override = OperatorConfig{mapping, omega};
  config.matching = matching;
  config.label_sim = LabelSimKind::kEditDistance;
  config.theta = 0.4;
  config.w_out = 0.35;
  config.w_in = 0.35;
  config.epsilon = 1e-6;
  IncrementalOptions options;
  options.propagation_tolerance = 1e-6;

  std::vector<IncrementalFSim> engines;
  for (int t : {1, 4}) {
    FSimConfig c = config;
    c.num_threads = t;
    auto inc = IncrementalFSim::Create(pair.g1, pair.g2, c, options);
    ASSERT_TRUE(inc.ok()) << "t=" << t << ": " << inc.status().ToString();
    engines.push_back(std::move(*inc));
  }
  auto expect_identical = [&](const std::string& when) {
    const FSimScores one = engines[0].Snapshot();
    const FSimScores four = engines[1].Snapshot();
    ASSERT_EQ(one.keys(), four.keys()) << when;
    for (size_t i = 0; i < one.keys().size(); ++i) {
      ASSERT_EQ(one.values()[i], four.values()[i])
          << when << ", pair " << i << " (u=" << PairFirst(one.keys()[i])
          << ", v=" << PairSecond(one.keys()[i]) << ")";
    }
    EXPECT_EQ(one.stats().iterations, four.stats().iterations) << when;
  };
  expect_identical("after Create");

  int edit = 0;
  for (const auto& op : EditScript(pair)) {
    const Status s1 = ApplyOp(&engines[0], op);
    ASSERT_EQ(ApplyOp(&engines[1], op).ok(), s1.ok());
    expect_identical("after edit " + std::to_string(edit++));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Operators, MultiThreadOperatorSweep,
    ::testing::Combine(::testing::ValuesIn(kAllMappings),
                       ::testing::ValuesIn(kAllOmegas),
                       ::testing::Values(MatchingAlgo::kGreedy,
                                         MatchingAlgo::kHungarian)));

}  // namespace
}  // namespace fsim
