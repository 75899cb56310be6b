// Incremental maintenance vs full recomputation (DESIGN.md §6 extension):
// after one edge edit, how much work does the localized repair of
// core/incremental.h do, compared to re-running Algorithm 1 from scratch?
//
// For each dataset and θ setting, a converged IncrementalFSim absorbs a
// deterministic stream of mixed insert/delete edits; we report the median
// and mean per-edit latency with its phase split (O(deg) graph patch,
// neighbor-index span re-stage, repair) against the from-scratch solve
// time, and the neighbor index's bytes, and verify the repaired scores
// against a full recompute at the end of the stream. A second engine then
// applies the same edits as 8-op bursts (one ApplyEdits call, so one
// repair, per burst), reported per burst next to 8x the per-edit figures.
// The per-dataset numbers are also written to BENCH_incremental.json so CI
// can track the edit-path latency and index bytes per PR alongside
// BENCH_fsim.json.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "core/incremental.h"

using namespace fsim;

namespace {

/// Ops per burst in the burst stream.
constexpr size_t kBurst = 8;

struct StreamReport {
  double full_solve_s = 0.0;
  double median_edit_ms = 0.0;
  double avg_edit_ms = 0.0;
  double max_edit_ms = 0.0;
  // Mean per-edit phase split (milliseconds).
  double avg_graph_patch_ms = 0.0;
  double avg_index_patch_ms = 0.0;
  size_t index_bytes = 0;  // the neighbor index after the stream
  double avg_propagate_ms = 0.0;
  double avg_recomputed = 0.0;
  double avg_seeded = 0.0;
  // The same edits as kBurst-op bursts.
  double median_burst_ms = 0.0;
  double avg_burst_recomputed = 0.0;
  size_t bursts = 0;
  double final_max_diff = 0.0;
  size_t full_evals = 0;  // pair evaluations of one from-scratch solve
  size_t edits = 0;
  int num_threads = 1;
};

StreamReport RunStream(const Graph& g, double theta, int num_edits,
                       uint64_t seed, int num_threads) {
  FSimConfig config = bench::PaperDefaults(SimVariant::kBijective);
  config.theta = theta;
  config.epsilon = 1e-4;
  config.pair_limit = bench::kBenchPairLimit;
  config.num_threads = num_threads;
  IncrementalOptions options;
  options.propagation_tolerance = 1e-6;

  StreamReport report;
  report.num_threads = num_threads;
  Timer solve_timer;
  auto inc = IncrementalFSim::Create(g, g, config, options);
  report.full_solve_s = solve_timer.Seconds();
  if (!inc.ok()) {
    std::fprintf(stderr, "fatal: %s\n", inc.status().ToString().c_str());
    std::abort();
  }

  Rng rng(seed);
  std::vector<double> edit_ms;
  double total_recomputed = 0.0;
  double total_seeded = 0.0;
  double total_graph_patch_s = 0.0;
  double total_index_patch_s = 0.0;
  double total_propagate_s = 0.0;
  std::vector<EdgeEdit> applied;
  for (int e = 0; e < num_edits; ++e) {
    // Create copies the input, so "g vs g" becomes an ordinary two-graph
    // run whose sides evolve independently; alternate the edited side.
    const int graph_index = (e % 2) + 1;
    const DynamicGraph& target = graph_index == 1 ? inc->g1() : inc->g2();
    const NodeId n = static_cast<NodeId>(target.NumNodes());
    NodeId from = static_cast<NodeId>(rng.NextBounded(n));
    NodeId to = static_cast<NodeId>(rng.NextBounded(n));
    if (from == to) continue;
    const EdgeEdit edit{graph_index, from, to, !target.HasEdge(from, to)};
    Timer edit_timer;
    Status status = edit.insert ? inc->InsertEdge(graph_index, from, to)
                                : inc->RemoveEdge(graph_index, from, to);
    const double ms = edit_timer.Seconds() * 1e3;
    if (!status.ok()) {
      std::fprintf(stderr, "fatal: %s\n", status.ToString().c_str());
      std::abort();
    }
    ++report.edits;
    applied.push_back(edit);
    edit_ms.push_back(ms);
    report.max_edit_ms = std::max(report.max_edit_ms, ms);
    const EditStats& stats = inc->last_edit_stats();
    total_recomputed += static_cast<double>(stats.recomputed);
    total_seeded += static_cast<double>(stats.seeded_pairs);
    total_graph_patch_s += stats.graph_rebuild_seconds;
    total_index_patch_s += stats.index_patch_seconds;
    total_propagate_s += stats.repair_seconds;
  }
  if (report.edits > 0) {
    const double n_edits = static_cast<double>(report.edits);
    double total_ms = 0.0;
    for (double ms : edit_ms) total_ms += ms;
    report.avg_edit_ms = total_ms / n_edits;
    std::sort(edit_ms.begin(), edit_ms.end());
    report.median_edit_ms = edit_ms[edit_ms.size() / 2];
    report.avg_graph_patch_ms = total_graph_patch_s * 1e3 / n_edits;
    report.avg_index_patch_ms = total_index_patch_s * 1e3 / n_edits;
    report.avg_propagate_ms = total_propagate_s * 1e3 / n_edits;
    report.avg_recomputed = total_recomputed / n_edits;
    report.avg_seeded = total_seeded / n_edits;
  }
  report.index_bytes = inc->store().NeighborIndexBytes();

  auto burst_inc = IncrementalFSim::Create(g, g, config, options);
  if (!burst_inc.ok()) {
    std::fprintf(stderr, "fatal: %s\n", burst_inc.status().ToString().c_str());
    std::abort();
  }
  std::vector<double> burst_ms;
  double total_burst_recomputed = 0.0;
  std::vector<Status> statuses;
  for (size_t b = 0; b < applied.size(); b += kBurst) {
    const std::span<const EdgeEdit> burst(
        applied.data() + b, std::min(kBurst, applied.size() - b));
    Timer burst_timer;
    const Status status = burst_inc->ApplyEdits(burst, &statuses);
    burst_ms.push_back(burst_timer.Seconds() * 1e3);
    for (const Status& op_status : statuses) {
      if (!status.ok() || !op_status.ok()) {
        std::fprintf(stderr, "fatal: burst edit failed\n");
        std::abort();
      }
    }
    total_burst_recomputed +=
        static_cast<double>(burst_inc->last_edit_stats().recomputed);
  }
  if (!burst_ms.empty()) {
    report.bursts = burst_ms.size();
    std::sort(burst_ms.begin(), burst_ms.end());
    report.median_burst_ms = burst_ms[burst_ms.size() / 2];
    report.avg_burst_recomputed =
        total_burst_recomputed / static_cast<double>(report.bursts);
  }

  // End-of-stream verification against a from-scratch solve.
  auto full = ComputeFSim(inc->MaterializeG1(), inc->MaterializeG2(), config);
  if (full.ok()) {
    for (size_t i = 0; i < full->keys().size(); ++i) {
      const NodeId u = PairFirst(full->keys()[i]);
      const NodeId v = PairSecond(full->keys()[i]);
      report.final_max_diff =
          std::max(report.final_max_diff,
                   std::abs(full->values()[i] - inc->Score(u, v)));
    }
    report.full_evals = full->NumPairs() * full->stats().iterations;
  }
  return report;
}

/// {"streams": {name: {...}}} — the edit-path companion of BENCH_fsim.json.
bool WriteBenchJson(const std::string& path,
                    const std::vector<std::pair<std::string, StreamReport>>&
                        reports) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"streams\": {\n");
  for (size_t i = 0; i < reports.size(); ++i) {
    const StreamReport& r = reports[i].second;
    std::fprintf(
        f,
        "    \"%s\": {\"full_solve_seconds\": %.6f, "
        "\"median_edit_ms\": %.4f, \"avg_edit_ms\": %.4f, "
        "\"max_edit_ms\": %.4f, \"avg_graph_patch_ms\": %.5f, "
        "\"avg_index_patch_ms\": %.5f, \"index_bytes\": %zu, "
        "\"avg_propagate_ms\": %.4f, "
        "\"avg_recomputed\": %.1f, \"edits\": %zu, \"num_threads\": %d, "
        "\"end_drift\": %.3e, \"bursts\": %zu, \"median_burst_ms\": %.4f, "
        "\"avg_burst_recomputed\": %.1f, \"x8_median_edit_ms\": %.4f, "
        "\"x8_avg_recomputed\": %.1f}%s\n",
        reports[i].first.c_str(), r.full_solve_s, r.median_edit_ms,
        r.avg_edit_ms, r.max_edit_ms, r.avg_graph_patch_ms,
        r.avg_index_patch_ms, r.index_bytes, r.avg_propagate_ms,
        r.avg_recomputed, r.edits,
        r.num_threads, r.final_max_diff, r.bursts, r.median_burst_ms,
        r.avg_burst_recomputed, kBurst * r.median_edit_ms,
        kBurst * r.avg_recomputed, i + 1 < reports.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Incremental FSim maintenance vs full recomputation "
      "(FSim_bj, 50 mixed insert/delete edits per stream)");
  TablePrinter table({"dataset", "theta", "thr", "full solve", "med edit",
                      "graph+index", "repair", "avg evals", "evals saved",
                      "time speedup", "med burst", "8x med edit",
                      "burst evals", "8x evals", "end drift"});
  std::vector<std::pair<std::string, StreamReport>> reports;
  // The smallest dataset (yeast) sweeps every thread count so CI tracks the
  // initial solve's scaling (edit repair is serial at any count); the
  // larger streams run at t=1 only to keep the binary's runtime bounded.
  const std::vector<int> thread_counts = bench::BenchThreadCounts();
  for (const char* name : {"yeast", "nell", "gp"}) {
    Graph g = MakeDatasetByName(name);
    for (double theta : {1.0}) {
      for (int t : thread_counts) {
        if (t > 1 && std::string(name) != "yeast") continue;
        StreamReport r = RunStream(g, theta, 50, 0xED17, t);
        char stream_key[64];
        if (t == 1) {
          // Unsuffixed at t=1 so the perf-gate history stays continuous
          // with pre-sweep entries.
          std::snprintf(stream_key, sizeof(stream_key), "%s/theta%g", name,
                        theta);
        } else {
          std::snprintf(stream_key, sizeof(stream_key), "%s/theta%g/t%d",
                        name, theta, t);
        }
        reports.emplace_back(stream_key, r);
        char threads[8], med_ms[24], patch[32], prop[24], recomputed[24],
            evals[24], speedup[24], burst_ms[24], x8_ms[24],
            burst_evals[24], x8_evals[24], drift[24];
        std::snprintf(threads, sizeof(threads), "%d", t);
        std::snprintf(med_ms, sizeof(med_ms), "%.2fms", r.median_edit_ms);
        std::snprintf(patch, sizeof(patch), "%.3fms",
                      r.avg_graph_patch_ms + r.avg_index_patch_ms);
        std::snprintf(prop, sizeof(prop), "%.2fms", r.avg_propagate_ms);
        std::snprintf(recomputed, sizeof(recomputed), "%.0f",
                      r.avg_recomputed);
        std::snprintf(evals, sizeof(evals), "%.0fx",
                      static_cast<double>(r.full_evals) /
                          std::max(r.avg_recomputed, 1.0));
        std::snprintf(speedup, sizeof(speedup), "%.0fx",
                      r.full_solve_s * 1e3 / std::max(r.avg_edit_ms, 1e-9));
        std::snprintf(burst_ms, sizeof(burst_ms), "%.2fms",
                      r.median_burst_ms);
        std::snprintf(x8_ms, sizeof(x8_ms), "%.2fms",
                      kBurst * r.median_edit_ms);
        std::snprintf(burst_evals, sizeof(burst_evals), "%.0f",
                      r.avg_burst_recomputed);
        std::snprintf(x8_evals, sizeof(x8_evals), "%.0f",
                      kBurst * r.avg_recomputed);
        std::snprintf(drift, sizeof(drift), "%.1e", r.final_max_diff);
        table.AddRow({name, theta == 0.0 ? "0" : "1", threads,
                      bench::FormatSeconds(r.full_solve_s), med_ms, patch,
                      prop, recomputed, evals, speedup, burst_ms, x8_ms,
                      burst_evals, x8_evals, drift});
      }
    }
  }
  table.Print();
  if (!WriteBenchJson("BENCH_incremental.json", reports)) {
    std::fprintf(stderr, "warning: could not write BENCH_incremental.json\n");
  } else {
    std::printf("wrote BENCH_incremental.json\n");
  }
  std::printf(
      "expected: the graph patch and index re-stage are O(deg) — their cost "
      "must not move with |V|+|E| — and repair re-evaluates a small fraction "
      "of the pair evaluations a from-scratch solve performs (evals saved). "
      "A burst repairs once, so it costs less than 8 single edits. "
      "Drift reflects both solvers' epsilon residuals plus greedy-matching "
      "tie divergence; the Hungarian-matching property tests bound it at "
      "~1e-6.\n");
  return 0;
}
