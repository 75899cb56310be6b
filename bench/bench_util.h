// Shared helpers for the experiment binaries: dataset construction, timed
// FSim runs with skip handling (mirroring the paper's omission of
// out-of-memory configurations), and consistent result formatting.
#ifndef FSIM_BENCH_BENCH_UTIL_H_
#define FSIM_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "core/fsim_engine.h"
#include "datasets/dataset_registry.h"

namespace fsim {
namespace bench {

/// Pair budget for the experiment binaries: configurations whose candidate
/// set would exceed this are reported as skipped, the single-core analog of
/// the paper's "experiments that resulted in out-of-memory errors have been
/// omitted".
constexpr uint64_t kBenchPairLimit = 5'000'000;

struct TimedRun {
  FSimScores scores;
  double seconds = 0.0;
};

/// Runs ComputeFSim under the bench pair budget. nullopt = skipped
/// (candidate set over budget); any other error aborts.
inline std::optional<TimedRun> RunFSim(const Graph& g1, const Graph& g2,
                                       FSimConfig config) {
  config.pair_limit = kBenchPairLimit;
  Timer timer;
  auto scores = ComputeFSim(g1, g2, config);
  if (!scores.ok()) {
    if (scores.status().IsInvalidArgument()) return std::nullopt;
    std::fprintf(stderr, "fatal: %s\n", scores.status().ToString().c_str());
    std::abort();
  }
  TimedRun run{std::move(scores).ValueOrDie(), timer.Seconds()};
  return run;
}

/// The experiments' default configuration (§5.1): w+ = w- = 0.4 (w* = 0.2),
/// termination at 0.01, Jaro-Winkler L(·) unless a case study overrides it.
inline FSimConfig PaperDefaults(SimVariant variant) {
  FSimConfig config;
  config.variant = variant;
  config.w_out = 0.4;
  config.w_in = 0.4;
  config.label_sim = LabelSimKind::kJaroWinkler;
  config.epsilon = 0.01;
  return config;
}

/// Thread counts for the multicore sweeps. FSIM_BENCH_THREADS (e.g.
/// "1,2,4") overrides; the default is {1, 2, 4, hardware_concurrency}
/// clamped to the host's core count, deduped and ascending, so a 1-core CI
/// runner degrades to {1} instead of timing oversubscription noise. The
/// result always contains 1 (the baseline every history entry keys off).
inline std::vector<int> BenchThreadCounts() {
  std::vector<int> counts;
  if (const char* env = std::getenv("FSIM_BENCH_THREADS")) {
    int value = 0;
    bool in_number = false;
    for (const char* p = env;; ++p) {
      if (*p >= '0' && *p <= '9') {
        value = value * 10 + (*p - '0');
        in_number = true;
      } else {
        if (in_number && value >= 1) counts.push_back(value);
        value = 0;
        in_number = false;
        if (*p == '\0') break;
      }
    }
  } else {
    const int hw = std::max(1, static_cast<int>(
                                   std::thread::hardware_concurrency()));
    for (int c : {1, 2, 4, hw}) {
      if (c <= hw) counts.push_back(c);
    }
  }
  if (counts.empty()) counts.push_back(1);
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  if (counts.front() != 1) counts.insert(counts.begin(), 1);
  return counts;
}

inline std::string FormatSeconds(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fs", s);
  return buf;
}

inline void PrintHeader(const char* title) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title);
  std::printf("==============================================================\n");
}

/// Machine-readable per-variant phase timings (BENCH_fsim.json), so future
/// PRs can track the perf trajectory of the engine without re-parsing
/// human-oriented tables. One record per (variant, engine-path) run.
class PhaseTimingsJson {
 public:
  struct Record {
    std::string name;  // e.g. "bj/indexed" (multi-thread: "bj/indexed/t4")
    double build_seconds = 0.0;
    double iterate_seconds = 0.0;
    uint32_t iterations = 0;
    size_t maintained_pairs = 0;
    // Threads the run used; recorded per entry so the history gate never
    // compares runs at different thread counts (thread-suffixed names keep
    // the metric paths distinct too).
    int num_threads = 1;
  };

  void Add(const std::string& name, const FSimStats& stats,
           int num_threads = 1) {
    records_.push_back(MakeRecord(name, stats, num_threads));
  }

  /// Adds a record to the separate "theta0" section (ComputeFSim's θ = 0
  /// tile-panel timings).
  void AddTheta0(const std::string& name, const FSimStats& stats,
                 int num_threads = 1) {
    theta0_records_.push_back(MakeRecord(name, stats, num_threads));
  }

  /// Attaches a pre-rendered JSON object emitted as a top-level "tuning"
  /// section — the thread-sweep validation of compile/config constants
  /// (one-off measurements the history gate ignores).
  void SetTuningJson(std::string raw_json) { tuning_json_ = std::move(raw_json); }

  /// Attaches another pre-rendered JSON object emitted as its own top-level
  /// section under `key` (e.g. the "trace_overhead" guard record).
  void AddRawSection(std::string key, std::string raw_json) {
    raw_sections_.emplace_back(std::move(key), std::move(raw_json));
  }

  const std::vector<Record>& records() const { return records_; }

  /// Writes {"runs": {name: {...}, ...}, "theta0": {...}} to `path`;
  /// returns false on I/O failure. The "theta0" key is omitted while empty
  /// so older consumers keep parsing unchanged files.
  bool WriteFile(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n");
    const bool more_after_runs = !theta0_records_.empty() ||
                                 !tuning_json_.empty() ||
                                 !raw_sections_.empty();
    WriteSection(f, "runs", records_, /*trailing_comma=*/more_after_runs);
    if (!theta0_records_.empty()) {
      WriteSection(f, "theta0", theta0_records_,
                   /*trailing_comma=*/!tuning_json_.empty() ||
                       !raw_sections_.empty());
    }
    if (!tuning_json_.empty()) {
      std::fprintf(f, "  \"tuning\": %s%s\n", tuning_json_.c_str(),
                   raw_sections_.empty() ? "" : ",");
    }
    for (size_t i = 0; i < raw_sections_.size(); ++i) {
      std::fprintf(f, "  \"%s\": %s%s\n", raw_sections_[i].first.c_str(),
                   raw_sections_[i].second.c_str(),
                   i + 1 < raw_sections_.size() ? "," : "");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
    return true;
  }

 private:
  static Record MakeRecord(const std::string& name, const FSimStats& stats,
                           int num_threads) {
    return Record{name,
                  stats.build_seconds,
                  stats.iterate_seconds,
                  stats.iterations,
                  stats.maintained_pairs,
                  num_threads};
  }

  static void WriteSection(std::FILE* f, const char* key,
                           const std::vector<Record>& records,
                           bool trailing_comma) {
    std::fprintf(f, "  \"%s\": {\n", key);
    for (size_t i = 0; i < records.size(); ++i) {
      const Record& r = records[i];
      std::fprintf(f,
                   "    \"%s\": {\"build_seconds\": %.6f, "
                   "\"iterate_seconds\": %.6f, \"iterations\": %u, "
                   "\"maintained_pairs\": %zu, \"num_threads\": %d",
                   r.name.c_str(), r.build_seconds, r.iterate_seconds,
                   r.iterations, r.maintained_pairs, r.num_threads);
      std::fprintf(f, "}%s\n", i + 1 < records.size() ? "," : "");
    }
    std::fprintf(f, "  }%s\n", trailing_comma ? "," : "");
  }

  std::vector<Record> records_;
  std::vector<Record> theta0_records_;
  std::string tuning_json_;
  std::vector<std::pair<std::string, std::string>> raw_sections_;
};

}  // namespace bench
}  // namespace fsim

#endif  // FSIM_BENCH_BENCH_UTIL_H_
