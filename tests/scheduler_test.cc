// Tests for the chunk scheduler (common/thread_pool.h) and the
// multi-thread determinism contracts built on it: both parallel-for
// primitives must cover their range exactly once under adversarially skewed
// per-index costs (one index ~1000x heavier than the rest, the shape that
// starves a static partition) and when several threads start regions on
// one pool at once; a multi-thread tolerance-frontier solve must stay
// within its bound of the single-thread full sweep; and the incremental
// engine's scores, after its initial solve and after every edit, must not
// depend on the engine's thread count at all.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <numeric>
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

using ::fsim::testing::MakeDenseRandomGraph;
using ::fsim::testing::MakeRandomPair;

// Burns enough work to make one index dominate a chunk (the adversarial
// shape: a static partition finishes every other worker early while the
// heavy chunk's owner grinds alone).
void BurnWork(int iters) {
  volatile int64_t sink = 0;
  for (int i = 0; i < iters; ++i) sink = sink + i;
}

/// Runs both primitives over [0, n) with index `heavy` costing ~1000x,
/// asserting exactly-once coverage and in-range worker ids.
void StressPrimitives(int num_threads, size_t n, size_t grain, size_t heavy) {
  ThreadPool pool(num_threads);

  // The span primitive takes an index array; shuffle it so chunk
  // boundaries do not align with the identity order.
  std::vector<uint32_t> indices(n);
  std::iota(indices.begin(), indices.end(), 0u);
  Rng rng(0xC0FFEE);
  for (size_t i = n; i > 1; --i) {
    std::swap(indices[i - 1], indices[rng.Next() % i]);
  }

  const auto body_cost = [&](uint32_t i) {
    BurnWork(i == heavy ? 50000 : 50);
  };

  for (int round = 0; round < 2; ++round) {
    std::vector<std::atomic<uint32_t>> hits(n);
    for (auto& h : hits) h.store(0);
    std::atomic<bool> worker_ok{true};
    const auto check_worker = [&](int worker) {
      if (worker < 0 || worker >= num_threads) worker_ok.store(false);
    };

    if (round == 0) {
      pool.ParallelForChunked(n, grain,
                              [&](int worker, size_t begin, size_t end) {
                                check_worker(worker);
                                for (size_t i = begin; i < end; ++i) {
                                  body_cost(static_cast<uint32_t>(i));
                                  hits[i].fetch_add(1);
                                }
                              });
    } else {
      pool.ParallelForSpan(indices, grain,
                           [&](int worker, std::span<const uint32_t> ids) {
                             check_worker(worker);
                             for (uint32_t i : ids) {
                               body_cost(i);
                               hits[i].fetch_add(1);
                             }
                           });
    }

    EXPECT_TRUE(worker_ok.load()) << "threads=" << num_threads
                                  << " round=" << round;
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1u)
          << "threads=" << num_threads << " round=" << round << " index=" << i;
    }
  }
}

TEST(ThreadPoolScheduler, SkewedCostsCoverEveryIndexOnceAt1Thread) {
  StressPrimitives(1, 4096, 7, 1234);
}

TEST(ThreadPoolScheduler, SkewedCostsCoverEveryIndexOnceAt2Threads) {
  StressPrimitives(2, 4096, 7, 1234);
}

TEST(ThreadPoolScheduler, SkewedCostsCoverEveryIndexOnceAt8Threads) {
  StressPrimitives(8, 4096, 7, 1234);
}

// The heavy index landing in the last chunk is the worst case for the
// shared counter: it is claimed last and runs alone while the others wait.
TEST(ThreadPoolScheduler, HeavyTailIndexIsCoveredExactlyOnce) {
  StressPrimitives(8, 2048, 16, 2047);
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

// Two caller threads start regions on one pool at once, one through each
// primitive (a QueryEngine's batch pool shared by reader threads). Every
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
  std::vector<uint32_t> indices(kN);
  std::iota(indices.begin(), indices.end(), 0u);
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
      if (c == 0) {
        pool.ParallelForChunked(kN, kGrain,
                                [&](int worker, size_t begin, size_t end) {
                                  enter(worker, begin == 0);
                                  for (size_t i = begin; i < end; ++i) {
                                    hits[0][i].fetch_add(1);
                                  }
                                  leave(worker);
                                });
      } else {
        pool.ParallelForSpan(indices, kGrain,
                             [&](int worker, std::span<const uint32_t> ids) {
                               enter(worker, ids.data() == indices.data());
                               for (uint32_t i : ids) hits[1][i].fetch_add(1);
                               leave(worker);
                             });
      }
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
// Tolerance frontiers across thread counts
// ---------------------------------------------------------------------------

const MappingKind kAllMappings[] = {
    MappingKind::kMaxPerRow, MappingKind::kInjectiveRow,
    MappingKind::kMaxBothSides, MappingKind::kInjectiveSym,
    MappingKind::kProduct};
const OmegaKind kAllOmegas[] = {OmegaKind::kSizeS1, OmegaKind::kSumSizes,
                                OmegaKind::kGeoMean, OmegaKind::kMaxSize,
                                OmegaKind::kProduct};

using SweepParam = std::tuple<MappingKind, OmegaKind, MatchingAlgo>;

class MultiThreadToleranceFrontier
    : public ::testing::TestWithParam<SweepParam> {};

// A four-thread tolerance-frontier solve vs the single-thread full sweep:
// the workers mark dependents into private influence arrays, the frontier
// build folds them, and the steps after the first run as frontier sweeps
// and commits, so the run exercises all of the parallel frontier
// machinery.
// Its scores must stay within τ(1+w)/(1-w) of the full sweeps, plus the
// termination residual of both runs.
TEST_P(MultiThreadToleranceFrontier, FourThreadsStayWithinBoundOfFullSweeps) {
  const auto [mapping, omega, matching] = GetParam();
  const Graph g = MakeDenseRandomGraph(/*seed=*/17 + static_cast<int>(omega));
  FSimConfig config;
  config.operator_override = OperatorConfig{mapping, omega};
  config.matching = matching;
  config.label_sim = LabelSimKind::kEditDistance;
  config.theta = 0.4;
  config.w_out = 0.35;
  config.w_in = 0.35;
  config.epsilon = 1e-6;
  config.neighbor_index_budget_bytes = 1ULL << 30;

  FSimConfig parallel = config;
  parallel.num_threads = 4;
  parallel.frontier_tolerance = 1e-4;
  // Mark from the first sweep; only a frontier of every pair runs as a
  // full sweep.
  parallel.active_set_activation_fraction = 0.0;
  parallel.frontier_density_threshold = 1.0;
  auto active = ComputeFSimSelf(g, parallel);
  ASSERT_TRUE(active.ok()) << active.status().ToString();
  EXPECT_TRUE(active->stats().active_set);

  config.num_threads = 1;
  auto off = ComputeFSimSelf(g, config);
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  EXPECT_FALSE(off->stats().active_set);
  // Some operator pairs of the sweep do not converge by the iteration cap:
  // their deltas stay above τ, so every frontier holds every pair and runs
  // as a full sweep. Wherever the full sweeps converge, frontiers must
  // have run.
  if (off->stats().converged) {
    EXPECT_LT(active->stats().full_sweep_iterations,
              active->stats().iterations);
  }

  const double w = config.w_out + config.w_in;
  const double bound =
      parallel.frontier_tolerance * (1.0 + w) / (1.0 - w) +
      2.0 * config.epsilon * w / (1.0 - w);
  ASSERT_EQ(active->keys(), off->keys());
  for (size_t i = 0; i < active->keys().size(); ++i) {
    ASSERT_NEAR(active->values()[i], off->values()[i], bound)
        << "pair " << i << " (u=" << PairFirst(active->keys()[i])
        << ", v=" << PairSecond(active->keys()[i]) << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Operators, MultiThreadToleranceFrontier,
    ::testing::Combine(::testing::ValuesIn(kAllMappings),
                       ::testing::ValuesIn(kAllOmegas),
                       ::testing::Values(MatchingAlgo::kGreedy,
                                         MatchingAlgo::kHungarian)));

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

// The initial solve runs on ActiveSetDriver, whose exact mode is
// bit-identical at any thread count, and edit repair is serial at every
// thread count — so engines at 1, 2 and 8 threads agree bit for bit after
// Create and after every edit of the script.
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

}  // namespace
}  // namespace fsim
