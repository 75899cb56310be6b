// google-benchmark end-to-end timings of ComputeFSim per variant and
// optimization setting on the Yeast analog (the smallest Table 4 dataset) —
// the per-iteration engine cost behind Figures 7 and 8. The main()
// additionally times the build/iterate phases per variant plus the θ = 0
// tile-panel path of s and b, and writes BENCH_fsim.json for the perf
// trajectory.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/fsim_engine.h"
#include "core/simd/cpu_features.h"
#include "core/simd/dispatch.h"
#include "datasets/dataset_registry.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fsim {
namespace {

const Graph& Yeast() {
  static const Graph g = MakeDatasetByName("yeast");
  return g;
}

FSimConfig BaseConfig(SimVariant variant) {
  FSimConfig config;
  config.variant = variant;
  config.w_out = 0.4;
  config.w_in = 0.4;
  config.label_sim = LabelSimKind::kJaroWinkler;
  config.epsilon = 0.01;
  return config;
}

void BM_FSimVariant(benchmark::State& state) {
  const Graph& g = Yeast();
  FSimConfig config = BaseConfig(static_cast<SimVariant>(state.range(0)));
  config.theta = 1.0;
  for (auto _ : state) {
    auto scores = ComputeFSim(g, g, config);
    benchmark::DoNotOptimize(scores.ok());
  }
}
BENCHMARK(BM_FSimVariant)
    ->Arg(0)->Arg(1)->Arg(2)->Arg(3)
    ->ArgName("variant")
    ->Unit(benchmark::kMillisecond);

void BM_FSimOptimization(benchmark::State& state) {
  const Graph& g = Yeast();
  FSimConfig config = BaseConfig(SimVariant::kBijective);
  config.theta = state.range(0) == 0 ? 0.0 : 1.0;
  config.upper_bound = state.range(1) != 0;
  for (auto _ : state) {
    auto scores = ComputeFSim(g, g, config);
    benchmark::DoNotOptimize(scores.ok());
  }
}
BENCHMARK(BM_FSimOptimization)
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->ArgNames({"theta1", "ub"})
    ->Unit(benchmark::kMillisecond);

void BM_FSimMatchingAlgo(benchmark::State& state) {
  const Graph& g = Yeast();
  FSimConfig config = BaseConfig(SimVariant::kBijective);
  config.theta = 1.0;
  config.matching = state.range(0) == 0 ? MatchingAlgo::kGreedy
                                        : MatchingAlgo::kHungarian;
  for (auto _ : state) {
    auto scores = ComputeFSim(g, g, config);
    benchmark::DoNotOptimize(scores.ok());
  }
}
BENCHMARK(BM_FSimMatchingAlgo)
    ->Arg(0)->Arg(1)
    ->ArgName("hungarian")
    ->Unit(benchmark::kMillisecond);

/// Times the θ = 0 tile-panel path's 8×256 v-tile on FSim_s at 1 vs
/// `num_threads` workers (tile shape is compile-time, so the check is that
/// the tiled kernel still scales rather than a re-sweep) and renders the
/// measurement as the "tuning" JSON section of BENCH_fsim.json.
std::string RunTuningSweep(int num_threads) {
  const Graph& g = Yeast();
  std::string out = "{\n";
  char buf[160];
  std::snprintf(buf, sizeof(buf), "    \"num_threads\": %d,\n", num_threads);
  out += buf;
  std::printf("\ntuning sweep (t=%d)\n", num_threads);

  // θ = 0 8×256 v-tile at 1 vs N threads (the panel loop runs on the
  // run's pool, config.num_threads).
  double panel_s[2] = {0.0, 0.0};
  for (int pass = 0; pass < 2; ++pass) {
    FSimConfig config = BaseConfig(SimVariant::kSimple);
    config.theta = 0.0;
    config.num_threads = pass == 0 ? 1 : num_threads;
    auto panels = ComputeFSim(g, g, config);
    if (!panels.ok()) {
      std::fprintf(stderr, "fatal: tuning-sweep theta=0 run failed\n");
      std::abort();
    }
    panel_s[pass] = panels->stats().iterate_seconds;
  }
  std::snprintf(buf, sizeof(buf),
                "    \"theta0_vtile_8x256\": {\"t1\": %.6f, \"t%d\": %.6f}\n",
                panel_s[0], num_threads, panel_s[1]);
  out += buf;
  std::printf("  theta=0 v-tile: t1=%s t%d=%s\n",
              bench::FormatSeconds(panel_s[0]).c_str(), num_threads,
              bench::FormatSeconds(panel_s[1]).c_str());
  out += "  }";
  return out;
}

/// Scalar-vs-vectorized θ = 0 tile-panel iterate per max-family variant
/// (s and b), t=1 and t=N, rendered as the raw "simd_theta0" JSON section
/// (older history lines hold θ = 1 timings under "simd"; a distinct key
/// keeps the gate from comparing across θ). Every timing is
/// the min over kSimdReps runs (the CI container's run-to-run variance
/// swamps single-shot numbers), every vector run is cross-checked
/// bit-identical against the forced-scalar run, and "host_level" records
/// what FSIM_SIMD=auto resolves to on the runner. Levels the host or the
/// build lacks are simply absent from the section; the history gate's
/// rolling medians then track `<level>_t<N>_s` as ordinary
/// lower-is-better series while `speedup_*` leaves stay informational.
std::string RunSimdSweep(int num_threads) {
  const Graph& g = Yeast();
  constexpr int kSimdReps = 3;
  const char* kSavedEnv = std::getenv("FSIM_SIMD");
  const std::string saved_env = kSavedEnv ? kSavedEnv : "";

  std::vector<const char*> levels = {"off"};
  if (simd::Avx2Kernels() != nullptr &&
      simd::HostCpuFeatures().Avx2Usable()) {
    levels.push_back("avx2");
  }
  if (simd::Avx512Kernels() != nullptr &&
      simd::HostCpuFeatures().Avx512Usable()) {
    levels.push_back("avx512");
  }

  std::string out = "{\n";
  char buf[192];
  std::snprintf(buf, sizeof(buf), "    \"host_level\": \"%s\",\n",
                simd::SimdLevelName(simd::ResolveSimdLevel(SimdMode::kAuto)));
  out += buf;

  std::printf("\nsimd     variant  threads");
  for (const char* level : levels) std::printf("  %-10s", level);
  std::printf("\n");

  bool first_variant = true;
  for (SimVariant variant : {SimVariant::kSimple, SimVariant::kBi}) {
    const char* name = SimVariantName(variant);
    out += std::string(first_variant ? "" : ",\n") + "    \"" + name +
           "\": {";
    first_variant = false;
    bool first_field = true;
    for (int pass = 0; pass < 2; ++pass) {
      const int threads = pass == 0 ? 1 : num_threads;
      if (pass == 1 && num_threads <= 1) break;
      std::printf("simd     %-8s %-7d", name, threads);
      std::vector<double> baseline;  // forced-scalar values
      double off_seconds = 0.0;
      for (const char* level : levels) {
        double best = 0.0;
        for (int rep = 0; rep < kSimdReps; ++rep) {
          FSimConfig config = BaseConfig(variant);
          config.theta = 0.0;
          config.num_threads = threads;
          setenv("FSIM_SIMD", level, 1);
          auto panels = ComputeFSim(g, g, config);
          if (kSavedEnv) {
            setenv("FSIM_SIMD", saved_env.c_str(), 1);
          } else {
            unsetenv("FSIM_SIMD");
          }
          if (!panels.ok()) {
            std::fprintf(stderr, "fatal: simd sweep run failed (%s/%s)\n",
                         name, level);
            std::abort();
          }
          const double s = panels->stats().iterate_seconds;
          if (rep == 0 || s < best) best = s;
          if (rep == 0) {
            if (baseline.empty()) {
              baseline = panels->values();
            } else {
              // The panel path's bit-identity contract, enforced where the
              // headline numbers are produced.
              for (size_t i = 0; i < baseline.size(); ++i) {
                if (panels->values()[i] != baseline[i]) {
                  std::fprintf(
                      stderr,
                      "fatal: %s/%s not bit-identical to scalar at [%zu]\n",
                      name, level, i);
                  std::abort();
                }
              }
            }
          }
        }
        if (std::string(level) == "off") off_seconds = best;
        std::snprintf(buf, sizeof(buf), "%s\"%s_t%d_s\": %.6f",
                      first_field ? "" : ", ", level, threads, best);
        out += buf;
        first_field = false;
        if (std::string(level) != "off" && off_seconds > 0.0) {
          std::snprintf(buf, sizeof(buf), ", \"speedup_%s_t%d\": %.3f",
                        level, threads, off_seconds / best);
          out += buf;
        }
        std::printf("  %-10s", bench::FormatSeconds(best).c_str());
      }
      std::printf("\n");
    }
    out += "}";
  }
  out += "\n  }";
  return out;
}

/// Guard: the trace layer is compiled into every engine phase, so its
/// disarmed cost must stay invisible. Measures (1) the unit cost of a
/// disarmed FSIM_TRACE_SPAN (one relaxed atomic load + a dead store),
/// (2) how many spans a yeast θ=1 FSim_dp solve actually creates (armed
/// run, counting ring events + drops), and (3) the disarmed iterate time
/// itself, then bounds overhead as span_cost x span_count / iterate_ns.
/// Aborts above 2%; the measurement lands in BENCH_fsim.json under
/// "trace_overhead" so the history keeps the trajectory.
std::string RunTraceOverheadGuard() {
  const Graph& g = Yeast();
  FSimConfig config = BaseConfig(SimVariant::kDegreePreserving);
  config.theta = 1.0;

  constexpr size_t kSpans = 4'000'000;
  const uint64_t unit_start = obs::MonotonicNanos();
  for (size_t i = 0; i < kSpans; ++i) {
    FSIM_TRACE_SPAN("bench.disarmed");
  }
  const uint64_t unit_stop = obs::MonotonicNanos();
  const double span_ns =
      static_cast<double>(unit_stop - unit_start) / static_cast<double>(kSpans);

  obs::ArmTracing();
  auto armed = ComputeFSim(g, g, config);
  obs::DisarmTracing();
  if (!armed.ok()) {
    std::fprintf(stderr, "fatal: armed trace-overhead run failed\n");
    std::abort();
  }
  const uint64_t span_count = obs::TraceEventCount() + obs::TraceDroppedCount();

  auto disarmed = ComputeFSim(g, g, config);
  if (!disarmed.ok()) {
    std::fprintf(stderr, "fatal: disarmed trace-overhead run failed\n");
    std::abort();
  }
  const double iterate_ns = disarmed->stats().iterate_seconds * 1e9;
  const double overhead =
      span_ns * static_cast<double>(span_count) / iterate_ns;

  std::printf(
      "\ntrace overhead (dp, theta=1, disarmed): %.2fns/span x %llu spans "
      "= %.4f%% of iterate (bound: <2%%)\n",
      span_ns, static_cast<unsigned long long>(span_count), overhead * 100.0);
  if (overhead >= 0.02) {
    std::fprintf(stderr,
                 "fatal: disarmed tracing overhead %.4f%% exceeds the 2%% "
                 "budget\n",
                 overhead * 100.0);
    std::abort();
  }

  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"span_ns\": %.4f, \"span_count\": %llu, "
                "\"iterate_s\": %.6f, \"overhead_fraction\": %.6f}",
                span_ns, static_cast<unsigned long long>(span_count),
                disarmed->stats().iterate_seconds, overhead);
  return buf;
}

/// Phase timings per χ variant of the default engine (CSR index, full
/// sweeps), written to BENCH_fsim.json as the "indexed" runs.
void RunPhaseTimings() {
  const Graph& g = Yeast();
  bench::PhaseTimingsJson json;
  std::printf("\nvariant  path       build      iterate\n");
  for (SimVariant variant :
       {SimVariant::kSimple, SimVariant::kDegreePreserving, SimVariant::kBi,
        SimVariant::kBijective}) {
    FSimConfig config = BaseConfig(variant);
    config.theta = 1.0;
    auto indexed = ComputeFSim(g, g, config);
    if (!indexed.ok()) {
      std::fprintf(stderr, "fatal: phase-timing run failed\n");
      std::abort();
    }
    const char* name = SimVariantName(variant);
    json.Add(std::string(name) + "/indexed", indexed->stats());
    std::printf("%-8s %-10s %-10s %-10s\n", name, "indexed",
                bench::FormatSeconds(indexed->stats().build_seconds).c_str(),
                bench::FormatSeconds(indexed->stats().iterate_seconds).c_str());
  }
  // θ = 0: s and b run on the tile panels (core/panel_engine.h), every
  // pair a candidate. Recorded under the "theta0" section, apart from the
  // θ = 1 "dense" series of older history lines.
  std::printf("\ntheta=0  build      iterate\n");
  for (SimVariant variant : {SimVariant::kSimple, SimVariant::kBi}) {
    FSimConfig config = BaseConfig(variant);
    config.theta = 0.0;
    auto panels = ComputeFSim(g, g, config);
    if (!panels.ok()) {
      std::fprintf(stderr, "fatal: theta=0 phase-timing run failed\n");
      std::abort();
    }
    const char* name = SimVariantName(variant);
    json.AddTheta0(std::string(name) + "/panels", panels->stats());
    std::printf("%-8s %-10s %-10s\n", name,
                bench::FormatSeconds(panels->stats().build_seconds).c_str(),
                bench::FormatSeconds(panels->stats().iterate_seconds).c_str());
  }

  // Thread-count sweep: the indexed runs at every BenchThreadCounts()
  // count > 1. The t=1 records above keep their unsuffixed names so the
  // perf-gate history stays continuous; multi-thread runs get distinct
  // "/tN" names and record num_threads so the gate never compares across
  // thread counts. Results are cross-checked bit-identical to the
  // single-thread run (the scheduler's determinism contract).
  const std::vector<int> thread_counts = bench::BenchThreadCounts();
  if (thread_counts.size() > 1) {
    std::printf("\nvariant  path     threads  iterate    vs t=1\n");
    for (SimVariant variant :
         {SimVariant::kSimple, SimVariant::kDegreePreserving, SimVariant::kBi,
          SimVariant::kBijective}) {
      FSimConfig config = BaseConfig(variant);
      config.theta = 1.0;
      auto base_indexed = ComputeFSim(g, g, config);
      if (!base_indexed.ok()) {
        std::fprintf(stderr, "fatal: thread-sweep baseline failed\n");
        std::abort();
      }
      const char* name = SimVariantName(variant);
      for (int t : thread_counts) {
        if (t <= 1) continue;
        config.num_threads = t;
        auto indexed = ComputeFSim(g, g, config);
        if (!indexed.ok()) {
          std::fprintf(stderr, "fatal: thread-sweep run failed (t=%d)\n", t);
          std::abort();
        }
        if (indexed->values() != base_indexed->values()) {
          std::fprintf(stderr,
                       "fatal: t=%d full-sweep run not bit-identical to "
                       "t=1\n",
                       t);
          std::abort();
        }
        char suffix[16];
        std::snprintf(suffix, sizeof(suffix), "/t%d", t);
        json.Add(std::string(name) + "/indexed" + suffix, indexed->stats(), t);
        std::printf("%-8s indexed  %-8d %-10s %.2fx\n", name, t,
                    bench::FormatSeconds(indexed->stats().iterate_seconds)
                        .c_str(),
                    base_indexed->stats().iterate_seconds /
                        indexed->stats().iterate_seconds);
      }
    }
    json.SetTuningJson(RunTuningSweep(thread_counts.back()));
  }
  json.AddRawSection(
      "simd_theta0",
      RunSimdSweep(thread_counts.empty() ? 1 : thread_counts.back()));
  json.AddRawSection("trace_overhead", RunTraceOverheadGuard());

  if (!json.WriteFile("BENCH_fsim.json")) {
    std::fprintf(stderr, "fatal: cannot write BENCH_fsim.json\n");
    std::abort();
  }
  std::printf("\nwrote BENCH_fsim.json\n");
}

}  // namespace
}  // namespace fsim

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  fsim::RunPhaseTimings();
  return 0;
}
