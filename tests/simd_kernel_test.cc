// Equivalence tests for the vectorized kernel layer (core/simd/):
//
//  * kernel-table unit tests — every vector realization the host can run
//    (AVX2, AVX-512) against the scalar reference on synthetic panels and
//    rows, asserting bit-exact outputs (the kernels.h contract, including
//    the masked-gather +0.0 convention and the no-FMA combine);
//  * engine sweeps — ComputeFSim at θ = 0 under FSIM_SIMD=off (the same
//    panel loop on the scalar kernels) vs every available vector level
//    across MappingKind x OmegaKind x matching: bit-identical for s/b,
//    whose off run also equals the sparse driver; dp, bj and product run
//    on the sparse driver and are checked against the naive oracle
//    instead (tests/path_oracles.h);
//  * ragged shapes — n2 not a multiple of the 256-wide v-tile, rows
//    shorter than the 8-row chunk grain, isolated nodes whose panel
//    entries have no work items — where the off run is also checked
//    against the naive oracle (tests/naive_fsim.h), so a panel-builder
//    bug shared by every level still shows;
//  * dispatch — FSIM_SIMD parsing, the off/auto clamps, and the reported
//    FSimStats::simd_level / simd_panel_bytes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "common/aligned.h"
#include "common/random.h"
#include "core/fsim_config.h"
#include "core/fsim_engine.h"
#include "core/panel_engine.h"
#include "core/simd/cpu_features.h"
#include "core/simd/dispatch.h"
#include "core/simd/kernels.h"
#include "graph/graph_builder.h"
#include "tests/naive_fsim.h"
#include "tests/path_oracles.h"

namespace fsim {
namespace {

/// Sets FSIM_SIMD for one scope; restores the previous state on exit so
/// tests cannot leak a level override into the rest of the suite.
class ScopedSimdEnv {
 public:
  explicit ScopedSimdEnv(const char* value) {
    const char* old = std::getenv("FSIM_SIMD");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    setenv("FSIM_SIMD", value, 1);
  }
  ~ScopedSimdEnv() {
    if (had_old_) {
      setenv("FSIM_SIMD", old_.c_str(), 1);
    } else {
      unsetenv("FSIM_SIMD");
    }
  }
  ScopedSimdEnv(const ScopedSimdEnv&) = delete;
  ScopedSimdEnv& operator=(const ScopedSimdEnv&) = delete;

 private:
  bool had_old_ = false;
  std::string old_;
};

/// The vector kernel tables this host can actually execute.
std::vector<const simd::SimdKernels*> HostVectorKernels() {
  std::vector<const simd::SimdKernels*> tables;
  const simd::FsimCpuFeatures& host = simd::HostCpuFeatures();
  if (simd::Avx2Kernels() != nullptr && host.Avx2Usable()) {
    tables.push_back(simd::Avx2Kernels());
  }
  if (simd::Avx512Kernels() != nullptr && host.Avx512Usable()) {
    tables.push_back(simd::Avx512Kernels());
  }
  return tables;
}

const char* LevelName(const simd::SimdKernels* k) {
  return simd::SimdLevelName(k->level);
}

/// A synthetic panel + work list: `entries` tile entries with up to
/// `max_cands` candidates each (some empty), nibble-packed exactly like
/// BuildTilePanelSet — entries padded to a multiple of 4, pad ids 0,
/// per-nibble masks with a random subset of the real candidates set.
struct SyntheticPanel {
  std::vector<simd::PanelWorkItem> items;
  AlignedVector<int32_t> ids;
  uint32_t slots = 0;
};

SyntheticPanel MakeSyntheticPanel(Rng* rng, uint32_t entries,
                                  uint32_t max_cands, int32_t id_range) {
  SyntheticPanel p;
  for (uint32_t t = 0; t < entries; ++t) {
    const uint32_t cands =
        static_cast<uint32_t>(rng->NextBounded(max_cands + 1));
    const uint32_t begin = p.slots;
    for (uint32_t c = 0; c < cands; ++c) {
      p.ids.push_back(static_cast<int32_t>(
          rng->NextBounded(static_cast<uint64_t>(id_range))));
      ++p.slots;
    }
    while ((p.slots & 3u) != 0u) {
      p.ids.push_back(0);
      ++p.slots;
    }
    for (uint32_t nib = begin; nib < begin + cands; nib += 4) {
      const uint32_t hi = std::min(nib + 4, begin + cands) - nib;
      uint8_t mask = static_cast<uint8_t>((1u << hi) - 1u);
      // Randomly drop bits (but keep the item nonempty) to model partial
      // θ-compatibility within a nibble.
      const uint8_t drop = static_cast<uint8_t>(rng->NextBounded(1u << hi));
      if ((mask & ~drop) != 0) mask &= static_cast<uint8_t>(~drop);
      p.items.push_back({nib, static_cast<uint16_t>(t), mask, 0});
    }
  }
  return p;
}

TEST(SimdKernelTest, TileRowPassMatchesScalarBitExact) {
  Rng rng(99);
  const simd::SimdKernels& scalar = simd::ScalarKernels();
  std::vector<double> prev(512);
  for (double& v : prev) v = rng.NextDouble();
  // A few zero scores so the best == 0.0 skip path is exercised.
  for (size_t i = 0; i < prev.size(); i += 17) prev[i] = 0.0;

  for (int round = 0; round < 8; ++round) {
    SyntheticPanel p = MakeSyntheticPanel(&rng, /*entries=*/37,
                                          /*max_cands=*/9, /*id_range=*/512);
    std::vector<double> acc_ref(37, 0.25);
    AlignedVector<double> col_ref(p.slots, 0.0);
    scalar.tile_row_pass_colmax(p.items.data(), p.items.size(), p.ids.data(),
                                prev.data(), acc_ref.data(), col_ref.data());
    std::vector<double> acc_plain_ref(37, 0.25);
    scalar.tile_row_pass(p.items.data(), p.items.size(), p.ids.data(),
                         prev.data(), acc_plain_ref.data());

    for (const simd::SimdKernels* k : HostVectorKernels()) {
      std::vector<double> acc(37, 0.25);
      AlignedVector<double> col(p.slots, 0.0);
      k->tile_row_pass_colmax(p.items.data(), p.items.size(), p.ids.data(),
                              prev.data(), acc.data(), col.data());
      EXPECT_EQ(0, std::memcmp(acc.data(), acc_ref.data(),
                               acc.size() * sizeof(double)))
          << LevelName(k) << " colmax-pass acc, round " << round;
      EXPECT_EQ(0, std::memcmp(col.data(), col_ref.data(),
                               p.slots * sizeof(double)))
          << LevelName(k) << " colmax panel, round " << round;

      std::vector<double> acc_plain(37, 0.25);
      k->tile_row_pass(p.items.data(), p.items.size(), p.ids.data(),
                       prev.data(), acc_plain.data());
      EXPECT_EQ(0, std::memcmp(acc_plain.data(), acc_plain_ref.data(),
                               acc_plain.size() * sizeof(double)))
          << LevelName(k) << " plain-pass acc, round " << round;
    }
  }
}

TEST(SimdKernelTest, NormalizeTileMatchesScalarBitExact) {
  Rng rng(7);
  const size_t n = 101;  // deliberately not a vector-width multiple
  std::vector<double> sums(n);
  std::vector<uint32_t> sizes(n);
  for (size_t i = 0; i < n; ++i) {
    sums[i] = rng.NextDouble() * 101.0;
    sizes[i] = 1 + static_cast<uint32_t>(rng.NextBounded(17));
  }
  for (uint32_t kind = 0; kind <= 4; ++kind) {
    for (double m1 : {1.0, 3.0, 13.0}) {
      std::vector<double> ref(n), got(n);
      simd::ScalarKernels().normalize_tile(sums.data(), sizes.data(), n, kind,
                                           m1, ref.data());
      for (const simd::SimdKernels* k : HostVectorKernels()) {
        k->normalize_tile(sums.data(), sizes.data(), n, kind, m1, got.data());
        EXPECT_EQ(0, std::memcmp(got.data(), ref.data(), n * sizeof(double)))
            << LevelName(k) << " omega_kind=" << kind << " m1=" << m1;
      }
    }
  }
}

TEST(SimdKernelTest, CombineRowMatchesScalarBitExact) {
  Rng rng(31);
  const size_t n = 203;
  std::vector<double> outs(n), ins(n), prev(n), term(16);
  std::vector<int32_t> labels(n);
  for (size_t i = 0; i < n; ++i) {
    outs[i] = rng.NextDouble();
    ins[i] = rng.NextDouble();
    prev[i] = rng.NextDouble();
    labels[i] = static_cast<int32_t>(rng.NextBounded(term.size()));
  }
  for (double& t : term) t = rng.NextDouble() / 3.0;

  struct Case {
    bool with_out, with_in, with_term;
  };
  for (const Case c : {Case{true, true, true}, Case{true, false, true},
                       Case{false, true, false}, Case{true, true, false}}) {
    std::vector<double> curr_ref(n), curr(n);
    double delta_ref = 0.0;
    simd::ScalarKernels().combine_row(
        c.with_out ? outs.data() : nullptr, c.with_in ? ins.data() : nullptr,
        0.4, 0.35, c.with_term ? term.data() : nullptr, labels.data(),
        prev.data(), curr_ref.data(), n, &delta_ref);
    for (const simd::SimdKernels* k : HostVectorKernels()) {
      double delta = 0.0;
      k->combine_row(c.with_out ? outs.data() : nullptr,
                     c.with_in ? ins.data() : nullptr, 0.4, 0.35,
                     c.with_term ? term.data() : nullptr, labels.data(),
                     prev.data(), curr.data(), n, &delta);
      EXPECT_EQ(0, std::memcmp(curr.data(), curr_ref.data(),
                               n * sizeof(double)))
          << LevelName(k);
      EXPECT_EQ(delta_ref, delta) << LevelName(k);
    }
  }
}

TEST(SimdKernelTest, FlatKernelsMatchScalar) {
  Rng rng(63);
  const size_t n = 117;
  std::vector<double> base(64), d2(n), ref(n), got(n);
  std::vector<int32_t> idx(n);
  for (double& v : base) v = rng.NextDouble();
  for (size_t i = 0; i < n; ++i) {
    idx[i] = static_cast<int32_t>(rng.NextBounded(base.size()));
    d2[i] = static_cast<double>(rng.NextBounded(7));  // zeros included
  }
  d2[5] = 0.0;

  for (const simd::SimdKernels* k : HostVectorKernels()) {
    simd::ScalarKernels().fill(ref.data(), n, 0.375);
    k->fill(got.data(), n, 0.375);
    EXPECT_EQ(0, std::memcmp(got.data(), ref.data(), n * sizeof(double)))
        << LevelName(k) << " fill";

    simd::ScalarKernels().gather_row(base.data(), idx.data(), n, ref.data());
    k->gather_row(base.data(), idx.data(), n, got.data());
    EXPECT_EQ(0, std::memcmp(got.data(), ref.data(), n * sizeof(double)))
        << LevelName(k) << " gather_row";

    for (double d1 : {0.0, 3.0}) {
      simd::ScalarKernels().degree_ratio_row(d1, d2.data(), n, ref.data());
      k->degree_ratio_row(d1, d2.data(), n, got.data());
      EXPECT_EQ(0, std::memcmp(got.data(), ref.data(), n * sizeof(double)))
          << LevelName(k) << " degree_ratio_row d1=" << d1;
    }

    std::vector<double> vals(n);
    for (size_t i = 0; i < n; ++i) vals[i] = rng.NextDouble();
    for (double thr : {0.0, 0.5, 0.995, 2.0}) {
      EXPECT_EQ(simd::ScalarKernels().find_first_ge(vals.data(), n, thr),
                k->find_first_ge(vals.data(), n, thr))
          << LevelName(k) << " find_first_ge thr=" << thr;
    }
  }
}

TEST(SimdDispatchTest, ParseAndClamp) {
  SimdMode mode = SimdMode::kAuto;
  EXPECT_TRUE(simd::ParseSimdMode("off", &mode));
  EXPECT_EQ(mode, SimdMode::kOff);
  EXPECT_TRUE(simd::ParseSimdMode("scalar", &mode));
  EXPECT_EQ(mode, SimdMode::kOff);
  EXPECT_TRUE(simd::ParseSimdMode("avx2", &mode));
  EXPECT_EQ(mode, SimdMode::kAvx2);
  EXPECT_TRUE(simd::ParseSimdMode("avx512", &mode));
  EXPECT_EQ(mode, SimdMode::kAvx512);
  EXPECT_TRUE(simd::ParseSimdMode("auto", &mode));
  EXPECT_EQ(mode, SimdMode::kAuto);
  mode = SimdMode::kAvx2;
  EXPECT_FALSE(simd::ParseSimdMode("bogus", &mode));
  EXPECT_EQ(mode, SimdMode::kAvx2);  // untouched on failure

  {
    ScopedSimdEnv env("off");
    EXPECT_EQ(simd::ResolveSimdLevel(SimdMode::kAuto),
              simd::SimdLevel::kScalar);
  }
  {
    // An unparseable override is ignored, not an error.
    ScopedSimdEnv env("not-a-level");
    EXPECT_EQ(simd::ResolveSimdLevel(SimdMode::kOff),
              simd::SimdLevel::kScalar);
  }
  // Whatever auto resolves to, the kernel table exists and levels agree.
  const simd::SimdLevel level = simd::ResolveSimdLevel(SimdMode::kAuto);
  EXPECT_EQ(simd::KernelsFor(level).level, level);
}

// ---------------------------------------------------------------------------
// Engine sweeps: FSIM_SIMD=off (the panel loop on the scalar kernels) vs
// every vector level the host offers.

Graph MakeSweepGraph(uint64_t seed, uint32_t n) {
  static const char* kLabels[] = {"aa", "ab", "bb", "bc"};
  Rng rng(seed);
  GraphBuilder builder;
  for (uint32_t i = 0; i < n; ++i) {
    builder.AddNode(kLabels[rng.Next() % 4]);
  }
  for (uint32_t i = 0; i < n; ++i) {
    builder.AddEdge(i, (i + 1) % n);
  }
  for (uint32_t e = 0; e < 2 * n; ++e) {
    NodeId from = static_cast<NodeId>(rng.Next() % n);
    NodeId to = static_cast<NodeId>(rng.Next() % n);
    if (from != to) builder.AddEdge(from, to);
  }
  return std::move(builder).BuildOrDie();
}

std::vector<const char*> HostVectorLevelNames() {
  std::vector<const char*> names;
  for (const simd::SimdKernels* k : HostVectorKernels()) {
    names.push_back(simd::SimdLevelName(k->level));
  }
  return names;
}

/// Runs ComputeFSim with FSIM_SIMD forced to `level` for the call.
Result<FSimScores> RunAtLevel(const Graph& g, const FSimConfig& config,
                              const char* level) {
  ScopedSimdEnv env(level);
  return ComputeFSimSelf(g, config);
}

/// The forced-off run against the naive oracle: every level shares the
/// panel builder, so only this comparison sees a bug in it.
void ExpectMatchesNaiveOracle(const Graph& g, const FSimConfig& config,
                              const FSimScores& off) {
  const testing::NaiveFSimResult naive = testing::NaiveFSim(g, g, config);
  EXPECT_EQ(off.stats().iterations, naive.iterations);
  ASSERT_EQ(off.keys(), naive.keys);
  for (size_t i = 0; i < naive.values.size(); ++i) {
    ASSERT_NEAR(off.values()[i], naive.values[i], 1e-12) << "entry " << i;
  }
}

/// The off run against every vector level the host offers: bit-identical.
void ExpectVectorLevelsMatchOff(const Graph& g, const FSimConfig& config,
                                const FSimScores& off) {
  for (const char* level : HostVectorLevelNames()) {
    auto vec = RunAtLevel(g, config, level);
    ASSERT_TRUE(vec.ok()) << vec.status().ToString();
    EXPECT_STREQ(simd::SimdLevelName(static_cast<simd::SimdLevel>(
                     vec->stats().simd_level)),
                 level);
    EXPECT_EQ(off.stats().iterations, vec->stats().iterations);
    EXPECT_EQ(off.stats().simd_panel_bytes, vec->stats().simd_panel_bytes);
    ASSERT_EQ(off.values().size(), vec->values().size());
    for (size_t i = 0; i < off.values().size(); ++i) {
      ASSERT_EQ(off.values()[i], vec->values()[i]) << level << " entry " << i;
    }
  }
}

using SweepParam = std::tuple<MappingKind, OmegaKind, MatchingAlgo>;

class SimdEngineSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SimdEngineSweep, VectorLevelsMatchForcedOff) {
  const auto [mapping, omega, matching] = GetParam();
  const Graph g = MakeSweepGraph(/*seed=*/11 + static_cast<int>(omega), 40);
  FSimConfig config;
  config.operator_override = OperatorConfig{mapping, omega};
  config.matching = matching;
  config.label_sim = LabelSimKind::kEditDistance;
  config.theta = 0.0;
  config.w_out = 0.35;
  config.w_in = 0.35;
  config.epsilon = 1e-4;
  if (!RunsOnTilePanels(config)) {
    ScopedSimdEnv env("off");
    testing::ExpectMatchesNaiveOracle(g, g, config);
    return;
  }

  auto off = RunAtLevel(g, config, "off");
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  EXPECT_EQ(off->stats().simd_level, 0u);
  EXPECT_GT(off->stats().simd_panel_bytes, 0u);
  testing::ExpectSameScores(*off, testing::SparseDriverScores(g, g, config));
  ExpectVectorLevelsMatchOff(g, config, *off);
}

INSTANTIATE_TEST_SUITE_P(
    AllOperatorCombinations, SimdEngineSweep,
    ::testing::Combine(
        ::testing::Values(MappingKind::kMaxPerRow, MappingKind::kInjectiveRow,
                          MappingKind::kMaxBothSides,
                          MappingKind::kInjectiveSym, MappingKind::kProduct),
        ::testing::Values(OmegaKind::kSizeS1, OmegaKind::kSumSizes,
                          OmegaKind::kGeoMean, OmegaKind::kMaxSize,
                          OmegaKind::kProduct),
        ::testing::Values(MatchingAlgo::kGreedy, MatchingAlgo::kHungarian)),
    [](const ::testing::TestParamInfo<SweepParam>& pinfo) {
      auto mapping_name = [](MappingKind m) {
        switch (m) {
          case MappingKind::kMaxPerRow: return "MaxPerRow";
          case MappingKind::kInjectiveRow: return "InjectiveRow";
          case MappingKind::kMaxBothSides: return "MaxBothSides";
          case MappingKind::kInjectiveSym: return "InjectiveSym";
          case MappingKind::kProduct: return "Product";
        }
        return "Unknown";
      };
      auto omega_name = [](OmegaKind o) {
        switch (o) {
          case OmegaKind::kSizeS1: return "SizeS1";
          case OmegaKind::kSumSizes: return "SumSizes";
          case OmegaKind::kGeoMean: return "GeoMean";
          case OmegaKind::kMaxSize: return "MaxSize";
          case OmegaKind::kProduct: return "Product";
        }
        return "Unknown";
      };
      return std::string(mapping_name(std::get<0>(pinfo.param))) + "_" +
             omega_name(std::get<1>(pinfo.param)) + "_" +
             (std::get<2>(pinfo.param) == MatchingAlgo::kHungarian
                  ? "Hungarian"
                  : "Greedy");
    });

TEST(SimdEngineTest, RaggedTilesMatchForcedOff) {
  // n2 = 300: one full 256-wide v-tile plus a 44-entry tail; row chunks at
  // the tail of n1 are shorter than the 8-row grain.
  const Graph g = MakeSweepGraph(97, 300);
  for (SimVariant variant : {SimVariant::kSimple, SimVariant::kBi}) {
    FSimConfig config;
    config.variant = variant;
    config.label_sim = LabelSimKind::kEditDistance;
    config.epsilon = 1e-3;
    ASSERT_TRUE(RunsOnTilePanels(config));
    auto off = RunAtLevel(g, config, "off");
    ASSERT_TRUE(off.ok()) << off.status().ToString();
    ExpectMatchesNaiveOracle(g, config, *off);
    ExpectVectorLevelsMatchOff(g, config, *off);
  }
}

TEST(SimdEngineTest, EmptyNeighborhoodsMatchForcedOff) {
  // Isolated nodes and nodes without in- or out-edges: their panel
  // entries have no work items, and their rows take the empty-S1
  // conventions.
  GraphBuilder builder;
  const uint32_t n = 24;
  for (uint32_t i = 0; i < n; ++i) {
    builder.AddNode(i % 2 == 0 ? "aa" : "zz");
  }
  for (uint32_t i = 0; i + 6 < n; ++i) {
    if (i % 3 != 0) builder.AddEdge(i, i + 5);
  }
  const Graph g = std::move(builder).BuildOrDie();
  for (SimVariant variant : {SimVariant::kSimple, SimVariant::kBi}) {
    FSimConfig config;
    config.variant = variant;
    config.label_sim = LabelSimKind::kEditDistance;
    config.epsilon = 1e-4;
    ASSERT_TRUE(RunsOnTilePanels(config));
    auto off = RunAtLevel(g, config, "off");
    ASSERT_TRUE(off.ok()) << off.status().ToString();
    ExpectMatchesNaiveOracle(g, config, *off);
    testing::ExpectSameScores(*off, testing::SparseDriverScores(g, g, config));
    ExpectVectorLevelsMatchOff(g, config, *off);
  }
}

TEST(SimdEngineTest, ConfigKnobOffMatchesEnvOff) {
  // config.simd = kOff must behave exactly like FSIM_SIMD=off (and the
  // env, when present, wins over the config knob).
  const Graph g = MakeSweepGraph(5, 40);
  FSimConfig config;
  config.variant = SimVariant::kBi;
  config.label_sim = LabelSimKind::kEditDistance;
  config.epsilon = 1e-4;
  config.simd = SimdMode::kOff;
  ASSERT_TRUE(RunsOnTilePanels(config));
  auto knob = ComputeFSimSelf(g, config);
  ASSERT_TRUE(knob.ok());
  EXPECT_EQ(knob->stats().simd_level, 0u);

  config.simd = SimdMode::kAuto;
  ScopedSimdEnv env("off");
  auto envoff = ComputeFSimSelf(g, config);
  ASSERT_TRUE(envoff.ok());
  EXPECT_EQ(envoff->stats().simd_level, 0u);
  for (size_t i = 0; i < knob->values().size(); ++i) {
    ASSERT_EQ(knob->values()[i], envoff->values()[i]);
  }
}

}  // namespace
}  // namespace fsim
