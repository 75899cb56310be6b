// google-benchmark micro-benchmarks of the framework's hot paths: the
// greedy vs Hungarian realizations of the injective mapping operators (the
// ablation behind the paper's complexity claim in §4.2), the pair-space
// slot lookups behind every score query (PairSpace::Find), and the
// isolated stages of the vectorized tile kernels (core/simd/) —
// panel/work-list build, the masked-gather accumulate pass, and the
// normalize reduction — per kernel level, through the kernel table only
// (no intrinsics here; the simd-isolation lint rule keeps those in
// src/core/simd/).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/aligned.h"
#include "common/random.h"
#include "core/fsim_config.h"
#include "core/pair_space.h"
#include "core/simd/cpu_features.h"
#include "core/simd/kernels.h"
#include "core/simd/tile_panel.h"
#include "graph/graph_builder.h"
#include "label/label_similarity.h"
#include "matching/greedy_matching.h"
#include "matching/hungarian.h"

namespace fsim {
namespace {

std::vector<WeightedEdge> RandomEdges(size_t n, Rng* rng) {
  std::vector<WeightedEdge> edges;
  edges.reserve(n * n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      edges.push_back({static_cast<uint32_t>(i), static_cast<uint32_t>(j),
                       rng->NextDouble()});
    }
  }
  return edges;
}

void BM_GreedyMatching(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(42);
  auto edges = RandomEdges(n, &rng);
  MatchingScratch scratch;
  for (auto _ : state) {
    scratch.edges = edges;
    benchmark::DoNotOptimize(
        GreedyMaxWeightMatching(&scratch, n, n));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_GreedyMatching)->Arg(4)->Arg(16)->Arg(64)->Complexity();

void BM_HungarianMatching(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(42);
  std::vector<std::vector<double>> w(n, std::vector<double>(n));
  for (auto& row : w) {
    for (auto& x : row) x = rng.NextDouble();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(HungarianMaxWeightMatching(w));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_HungarianMatching)->Arg(4)->Arg(16)->Arg(64)->Complexity();

// ---------------------------------------------------------------------------
// Tile-kernel stages (core/simd/). A synthetic yeast-shaped workload: one
// 256-entry tile with degrees between 2 and 10 — the shape ComputeFSim's
// θ = 0 panel loop feeds the kernels at, without the engine around it.

constexpr uint32_t kBenchTile = 256;

/// The id-sorted neighbor lists BuildTilePanelSet pulls.
const std::vector<std::vector<NodeId>>& BenchNeighbors() {
  static const std::vector<std::vector<NodeId>> lists = [] {
    std::vector<std::vector<NodeId>> out(kBenchTile);
    Rng rng(271828);
    for (std::vector<NodeId>& list : out) {
      const uint32_t deg = 2 + static_cast<uint32_t>(rng.NextBounded(9));
      for (uint32_t k = 0; k < deg; ++k) {
        list.push_back(static_cast<NodeId>(rng.NextBounded(kBenchTile)));
      }
      std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
    }
    return out;
  }();
  return lists;
}

std::span<const NodeId> BenchNeighborsOf(NodeId v) {
  return BenchNeighbors()[v];
}

const simd::TilePanelSet& BenchPanelSet() {
  static const simd::TilePanelSet set =
      simd::BuildTilePanelSet(kBenchTile, kBenchTile, BenchNeighborsOf);
  return set;
}

/// The kernel table for a benchmark level arg (0 scalar, 1 AVX2,
/// 2 AVX-512), or nullptr when the host/build lacks it.
const simd::SimdKernels* BenchKernels(int level) {
  switch (level) {
    case 0: return &simd::ScalarKernels();
    case 1:
      return simd::HostCpuFeatures().Avx2Usable() ? simd::Avx2Kernels()
                                                  : nullptr;
    default:
      return simd::HostCpuFeatures().Avx512Usable() ? simd::Avx512Kernels()
                                                    : nullptr;
  }
}

/// Panel + work-list build: the id copy and nibble packing (amortized
/// across the whole solve in the engine; isolated here).
void BM_TilePanelBuild(benchmark::State& state) {
  BenchNeighbors();
  for (auto _ : state) {
    simd::TilePanelSet set =
        simd::BuildTilePanelSet(kBenchTile, kBenchTile, BenchNeighborsOf);
    benchmark::DoNotOptimize(set.tiles.size());
  }
}
BENCHMARK(BM_TilePanelBuild)->Unit(benchmark::kMicrosecond);

/// The accumulate stage: one row's masked-gather max pass over the tile's
/// work list (the s-variant inner loop).
void BM_TileRowPass(benchmark::State& state) {
  const simd::SimdKernels* kern = BenchKernels(static_cast<int>(state.range(0)));
  if (kern == nullptr) {
    state.SkipWithError("kernel level unavailable on this host/build");
    return;
  }
  const simd::TilePanel& panel = BenchPanelSet().tiles[0];
  Rng rng(99);
  AlignedVector<double> prev(kBenchTile);
  for (double& v : prev) v = rng.NextDouble();
  std::vector<double> acc(panel.entries);
  for (auto _ : state) {
    kern->tile_row_pass(panel.items.data(), panel.items.size(),
                        panel.ids.data(), prev.data(), acc.data());
    benchmark::DoNotOptimize(acc.data());
  }
}
BENCHMARK(BM_TileRowPass)
    ->Arg(0)->Arg(1)->Arg(2)
    ->ArgName("level")
    ->Unit(benchmark::kMicrosecond);

/// The accumulate stage with column maxima (the b-variant inner loop).
void BM_TileRowPassColmax(benchmark::State& state) {
  const simd::SimdKernels* kern = BenchKernels(static_cast<int>(state.range(0)));
  if (kern == nullptr) {
    state.SkipWithError("kernel level unavailable on this host/build");
    return;
  }
  const simd::TilePanel& panel = BenchPanelSet().tiles[0];
  Rng rng(99);
  AlignedVector<double> prev(kBenchTile);
  for (double& v : prev) v = rng.NextDouble();
  std::vector<double> acc(panel.entries);
  AlignedVector<double> colmax(panel.SlotCount());
  for (auto _ : state) {
    kern->fill(colmax.data(), colmax.size(), 0.0);
    kern->tile_row_pass_colmax(panel.items.data(), panel.items.size(),
                               panel.ids.data(), prev.data(), acc.data(),
                               colmax.data());
    benchmark::DoNotOptimize(colmax.data());
  }
}
BENCHMARK(BM_TileRowPassColmax)
    ->Arg(0)->Arg(1)->Arg(2)
    ->ArgName("level")
    ->Unit(benchmark::kMicrosecond);

/// The reduction stage: per-entry Ωχ normalization of the tile sums.
void BM_TileNormalize(benchmark::State& state) {
  const simd::SimdKernels* kern = BenchKernels(static_cast<int>(state.range(0)));
  if (kern == nullptr) {
    state.SkipWithError("kernel level unavailable on this host/build");
    return;
  }
  const simd::TilePanel& panel = BenchPanelSet().tiles[0];
  Rng rng(7);
  std::vector<double> sums(panel.entries);
  for (double& v : sums) v = rng.NextDouble() * 8.0;
  std::vector<double> out(panel.entries);
  for (auto _ : state) {
    kern->normalize_tile(sums.data(), panel.sizes.data(), panel.entries,
                         /*omega_kind=*/2, /*m1=*/6.0, out.data());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_TileNormalize)
    ->Arg(0)->Arg(1)->Arg(2)
    ->ArgName("level")
    ->Unit(benchmark::kMicrosecond);

/// PairSpace::Find on serve_read's PAIR mix: 3/4 of the queries are pairs
/// of the space, 1/4 random (u, v). The space is θ = 1 over 4 indicator
/// labels on edgeless graphs sized so that it holds about range(0) pairs.
void BM_PairSpaceFind(benchmark::State& state) {
  const size_t target = static_cast<size_t>(state.range(0));
  size_t side = 1;
  while (side * side < 4 * target) ++side;
  Rng rng(3);
  auto dict = std::make_shared<LabelDict>();
  auto make_graph = [&] {
    static const char* kLabels[] = {"a", "b", "c", "d"};
    GraphBuilder builder(dict);
    for (size_t i = 0; i < side; ++i) builder.AddNode(kLabels[rng.Next() % 4]);
    return std::move(builder).BuildOrDie();
  };
  const Graph g1 = make_graph();
  const Graph g2 = make_graph();
  FSimConfig config;
  config.theta = 1.0;
  const LabelSimilarityCache lsim(*dict, config.label_sim);
  Result<PairSpace> space = PairSpace::Build(g1, g2, config, lsim);
  if (!space.ok()) {
    state.SkipWithError(space.status().ToString().c_str());
    return;
  }
  const std::vector<uint64_t>& keys = space->keys();
  std::vector<std::pair<NodeId, NodeId>> queries(1 << 16);
  for (auto& [u, v] : queries) {
    if (rng.Next() % 4 != 0) {
      const uint64_t key = keys[rng.Next() % keys.size()];
      u = PairFirst(key);
      v = PairSecond(key);
    } else {
      u = static_cast<NodeId>(rng.Next() % side);
      v = static_cast<NodeId>(rng.Next() % side);
    }
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto [u, v] = queries[i];
    benchmark::DoNotOptimize(space->Find(u, v));
    i = (i + 1) & (queries.size() - 1);
  }
  state.counters["pairs"] = static_cast<double>(keys.size());
}
BENCHMARK(BM_PairSpaceFind)->Arg(1024)->Arg(65536)->Arg(1 << 20);

}  // namespace
}  // namespace fsim

BENCHMARK_MAIN();
