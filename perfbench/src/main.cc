// fsim_perfbench — the repository's end-to-end benchmark (NOTES.md).
//
//   fsim_perfbench --workload batch_s|batch_dp|serve_read|serve_edit
//                  --seed N --seconds S --trace 0|1 [--smoke]
//                  [--expect-digest PAIRS:SUM] [--work-dir DIR]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The last line of standard output is the JSON result; the exit code is 0
// only when every output checked out.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "common/string_util.h"
#include "obs/trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

const WorkloadSpec kWorkloads[] = {
    {"batch_s", "yeast", 2.0, 0.25, fsim::SimVariant::kSimple, 0.01, 2, 1,
     false, false,
     "build-heavy: PairStore::Build is about half of each solve, so a "
     "parallel build or scheduler change shows here; sized under the L3",
     "1 closed-loop caller, repeated solves, 2 engine threads"},
    {"batch_dp", "gp", 0.5, 0.2, fsim::SimVariant::kDegreePreserving, 0.01, 1,
     2, false, false,
     "iterate-heavy: greedy injective matching over in-degree hubs is most "
     "of each solve; a build or scheduler change should not move it",
     "2 closed-loop callers, repeated solves, 1 engine thread each"},
    {"serve_read", "yeast", 1.0, 0.25, fsim::SimVariant::kBi, 1e-4, 1,
     3, true, false,
     "snapshot acquire and lookup under reader contention, no edits",
     "3 closed-loop readers through QueryEngine::Run"},
    {"serve_edit", "yeast", 1.0, 0.25, fsim::SimVariant::kBi, 1e-4, 1,
     1, true, true,
     "writes beside reads on one snapshot layer: incremental repair, WAL, "
     "publish and persist, and acquire under publish churn",
     "1 closed-loop writer (8-edit bursts + FlushWithin) and 1 closed-loop "
     "reader"},
};

// The end-to-end metrics repeat set-up this many times (median reported).
constexpr int kSetupRepeats = 9;

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    const char* value = has_value ? argv[i + 1] : "";
    if (arg == "--smoke") {
      options->smoke = true;
      continue;
    }
    if (!has_value) {
      std::fprintf(stderr, "missing value for %s\n", arg.c_str());
      return false;
    }
    ++i;
    if (arg == "--workload") {
      options->workload = value;
    } else if (arg == "--seed") {
      const fsim::Result<uint64_t> seed = fsim::ParseUint64(value);
      if (!seed.ok()) {
        std::fprintf(stderr, "--seed: %s\n", seed.status().ToString().c_str());
        return false;
      }
      options->seed = *seed;
    } else if (arg == "--seconds") {
      const fsim::Result<double> seconds = fsim::ParseDouble(value);
      if (!seconds.ok() || !(*seconds > 0.0 && *seconds <= 120.0)) {
        std::fprintf(stderr, "--seconds must be in (0, 120]\n");
        return false;
      }
      options->seconds = *seconds;
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        std::fprintf(stderr, "--trace takes 0 or 1\n");
        return false;
      }
      options->trace = value[0] == '1';
    } else if (arg == "--expect-digest") {
      const char* colon = std::strchr(value, ':');
      const fsim::Result<uint64_t> pairs = fsim::ParseUint64(
          colon == nullptr ? "" : std::string_view(value, colon));
      const fsim::Result<double> sum =
          fsim::ParseDouble(colon == nullptr ? "" : colon + 1);
      if (!pairs.ok() || !sum.ok()) {
        std::fprintf(stderr, "--expect-digest takes PAIRS:SUM\n");
        return false;
      }
      options->digest_pairs = *pairs;
      options->digest_sum = *sum;
      options->has_digest = true;
    } else if (arg == "--work-dir") {
      options->work_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) return 2;
  const WorkloadSpec* spec = FindWorkload(options.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown --workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  PrintHostFingerprint();
  std::printf("workload %s: %s\n  clients: %s\n", spec->name, spec->why,
              spec->load);
  std::unique_ptr<Workload> workload =
      spec->serve ? MakeServeWorkload(*spec, options)
                  : MakeBatchWorkload(*spec, options);
  Report report;
  if (!options.trace) {
    const double setup_s = workload->Setup(kSetupRepeats, &report);
    const LoopResult loop = workload->Loop(options.seconds, nullptr, &report);
    workload->Finish(&report);
    report.Set("setup_s", setup_s, "s");
    report.Set("op_p50_ms", loop.op_p50_ms, "ms");
    report.Set("op_tail_ms", loop.op_tail_ms, "ms");
    report.Set("op_rate_per_s", loop.op_rate_per_s, "1/s");
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    // Traced run: the same loop untraced, then traced (their difference is
    // the tracing overhead), then the per-layer probes.
    workload->Setup(1, &report);
    const LoopResult plain =
        workload->Loop(options.seconds / 2, nullptr, &report);
    SpanLog log;
    const uint64_t epoch = NowNs();
    fsim::obs::ArmTracing();
    const LoopResult traced =
        workload->Loop(options.seconds / 2, &log, &report);
    RunLayerProbes(workload->Probe(), options, &log, &report);
    fsim::obs::DisarmTracing();
    workload->Finish(&report);
    report.Set("trace.overhead_frac", traced.op_p50_ms / plain.op_p50_ms - 1.0,
               "ratio");
    std::vector<const SpanLog*> logs = {&log};
    for (const SpanLog* l : workload->ThreadLogs()) logs.push_back(l);
    PrintSelfTimes(logs);
    const std::string path =
        options.work_dir + "/trace-" + spec->name + ".json";
    if (WriteSpanTrace(path, logs, epoch) &&
        fsim::obs::WriteChromeTrace(options.work_dir + "/trace-" +
                                    spec->name + ".src.json")
            .ok()) {
      std::printf("trace: %s (benchmark spans), trace-%s.src.json (program "
                  "spans)\n",
                  path.c_str(), spec->name);
    }
  }
  std::printf("result (%s, seed %llu, %s):\n", spec->name,
              static_cast<unsigned long long>(options.seed),
              options.trace ? "traced, per-layer" : "end-to-end");
  report.PrintNotes();
  std::printf("%s\n", report.Json().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
