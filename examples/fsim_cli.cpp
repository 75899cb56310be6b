// fsim_cli — command-line front end to the library: load one or two graphs
// (text format of graph_io.h or the binary format of binary_io.h,
// auto-detected), compute fractional χ-simulation, and print scores, top-k
// rows, certified global top-k pairs, exact-relation summaries or the
// bisimulation partition; convert between formats with --save-binary; or
// run as a long-lived query service (--serve) speaking the line protocol of
// docs/serving.md on stdin/stdout, with background incremental refresh and
// optional warm start from a saved scores file.
//
// Usage:
//   fsim_cli --g1 <file> [--g2 <file>] [--variant s|dp|b|bj]
//            [--theta T] [--w-out W] [--w-in W] [--label-sim i|e|j]
//            [--upper-bound] [--threads N] [--simd off|avx2|avx512|auto]
//            [--topk K --source NODE] [--topk-pairs K]
//            [--exact] [--partition]
//            [--out <scores-file>] [--save-binary <graph-file>]
//            [--serve] [--warm <scores-file>] [--refresh-edits N]
//            [--refresh-seconds S] [--cache-k K] [--sync-refresh]
//            [--metrics] [--trace-out <file>]
//
// With no --g2 the graph is compared against itself. With no action flag
// the tool prints run statistics and the 10 best non-trivial pairs.
// --simd caps the kernel level of the θ = 0 s/b runs, which iterate on the
// tile panels; every other run ignores it.
#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/string_util.h"
#include "core/fsim_engine.h"
#include "core/incremental.h"
#include "core/pair_store.h"
#include "core/scores_io.h"
#include "core/simd/dispatch.h"
#include "core/topk_allpairs.h"
#include "core/topk_search.h"
#include "exact/exact_simulation.h"
#include "exact/partition_refinement.h"
#include "graph/binary_io.h"
#include "graph/dynamic_graph.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/service.h"

using namespace fsim;

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --g1 <file> [--g2 <file>] [--variant s|dp|b|bj]\n"
      "          [--theta T] [--w-out W] [--w-in W] [--label-sim i|e|j]\n"
      "          [--upper-bound] [--threads N] [--simd off|avx2|avx512|auto]\n"
      "          [--topk K --source NODE] [--topk-pairs K]\n"
      "          [--exact] [--partition]\n"
      "          [--out <scores-file>] [--save-binary <graph-file>]\n"
      "          [--serve] [--warm <scores-file>] [--refresh-edits N]\n"
      "          [--refresh-seconds S] [--cache-k K] [--sync-refresh]\n"
      "          [--wal-dir <dir>] [--wal-snapshot-edits N]\n"
      "          [--queue-capacity N] [--flush-timeout S]\n"
      "          [--failpoints <site=spec;...>] [--validate]\n"
      "          [--metrics] [--trace-out <file>]\n"
      "--simd caps the vector kernel level of theta=0 s/b runs (the tile\n"
      "panels); other runs do not use the kernels\n",
      argv0);
  return 2;
}

/// Loads a graph in either supported format: binary if the file starts with
/// the binary magic, text otherwise.
Result<Graph> LoadAnyGraph(const std::string& path,
                           std::shared_ptr<LabelDict> dict) {
  std::ifstream probe(path, std::ios::binary);
  char magic[8] = {0};
  probe.read(magic, sizeof(magic));
  if (probe.gcount() == 8 && std::memcmp(magic, "FSIMGRF1", 8) == 0) {
    return LoadGraphBinaryFromFile(path, std::move(dict));
  }
  return LoadGraphFromFile(path, std::move(dict));
}

bool ParseVariant(const char* s, SimVariant* out) {
  if (std::strcmp(s, "s") == 0) *out = SimVariant::kSimple;
  else if (std::strcmp(s, "dp") == 0) *out = SimVariant::kDegreePreserving;
  else if (std::strcmp(s, "b") == 0) *out = SimVariant::kBi;
  else if (std::strcmp(s, "bj") == 0) *out = SimVariant::kBijective;
  else return false;
  return true;
}

bool ParseLabelSim(const char* s, LabelSimKind* out) {
  if (std::strcmp(s, "i") == 0) *out = LabelSimKind::kIndicator;
  else if (std::strcmp(s, "e") == 0) *out = LabelSimKind::kEditDistance;
  else if (std::strcmp(s, "j") == 0) *out = LabelSimKind::kJaroWinkler;
  else return false;
  return true;
}

/// --validate: exercises every structural validator (docs/correctness.md)
/// against instances built from the loaded graphs, then prints the
/// ValidatorCounters table. Exit 0 iff all validators pass.
int RunValidate(const Graph& graph1, const Graph& target, FSimConfig config) {
  int failures = 0;
  const auto report = [&failures](const char* name, const Status& st) {
    if (st.ok()) {
      std::printf("  OK    %s\n", name);
    } else {
      std::printf("  FAIL  %s: %s\n", name, st.ToString().c_str());
      ++failures;
    }
  };
  std::printf("running structural validators:\n");

  // Adjacency invariants, after an edit round trip exercises the
  // insert/remove maintenance paths.
  DynamicGraph dg1(graph1);
  if (dg1.NumNodes() >= 2) {
    const NodeId a = 0;
    const NodeId b = static_cast<NodeId>(dg1.NumNodes() - 1);
    const bool inserted = dg1.InsertEdge(a, b).ok();
    if (inserted) report("DynamicGraph::RemoveEdge", dg1.RemoveEdge(a, b));
  }
  report("DynamicGraph::ValidateAdjacency", dg1.ValidateAdjacency());

  // Batch CSR neighbor index.
  LabelSimilarityCache lsim(*graph1.dict(), config.label_sim);
  auto store = PairStore::Build(graph1, target, config, lsim);
  if (!store.ok()) {
    report("PairStore::Build", store.status());
  } else {
    report("PairStore::ValidateNeighborIndex", store->ValidateNeighborIndex());
  }

  // The incremental engine's store after an edit has re-staged spans and
  // rewritten their chunks: toggle one graph-1 edge. The engine keeps the
  // full candidate set, so upper-bound runs have no incremental store.
  if (graph1.NumNodes() >= 2 && !config.upper_bound) {
    auto inc = IncrementalFSim::Create(graph1, target, config);
    if (!inc.ok()) {
      report("IncrementalFSim::Create", inc.status());
    } else {
      const NodeId a = 0;
      const NodeId b = static_cast<NodeId>(graph1.NumNodes() - 1);
      const Status edit = inc->g1().HasEdge(a, b) ? inc->RemoveEdge(1, a, b)
                                                  : inc->InsertEdge(1, a, b);
      if (!edit.ok()) {
        report("IncrementalFSim edit", edit);
      } else {
        report("PairStore::ValidateNeighborIndex (edited)",
               inc->store().ValidateNeighborIndex());
      }
    }
  }

  // Snapshot publish chain, fed by an actual solve.
  auto scores = ComputeFSim(graph1, target, config);
  if (!scores.ok()) {
    report("ComputeFSim", scores.status());
  } else {
    SnapshotStore snapshots;
    SharedFSimScores shared = FreezeScores(std::move(*scores));
    for (int round = 0; round < 2; ++round) {
      SnapshotMeta meta;
      meta.version = snapshots.NextVersion();
      snapshots.Publish(
          std::make_shared<const FSimSnapshot>(shared, /*cache_k=*/4, meta));
    }
    report("SnapshotStore::ValidateChain", snapshots.ValidateChain());
  }

  std::printf("validator invocation counts:\n");
  for (const auto& [name, count] : ValidatorCounters::Snapshot()) {
    std::printf("  %-40s %llu\n", name.c_str(),
                static_cast<unsigned long long>(count));
  }
  if (failpoint::kCompiledIn) {
    std::printf("failpoint hit counts (%zu sites touched):\n",
                failpoint::Snapshot().size());
    for (const auto& [name, hits] : failpoint::Snapshot()) {
      std::printf("  %-40s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(hits));
    }
  }
  if (failures == 0) {
    std::printf("all validators passed\n");
  } else {
    std::printf("%d validator(s) FAILED\n", failures);
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string g1_path, g2_path, out_path, save_binary_path;
  FSimConfig config;
  config.label_sim = LabelSimKind::kIndicator;
  size_t topk = 0;
  size_t topk_pairs = 0;
  bool run_exact = false;
  bool run_partition = false;
  bool run_serve = false;
  bool run_validate = false;
  bool dump_metrics = false;
  std::string trace_out_path;
  ServeOptions serve_options;
  NodeId source = kInvalidNode;

  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    // Checked flag-value parsers: unlike the atoi/atof family they reject
    // garbage and out-of-range input loudly instead of silently reading 0.
    auto flag_value_error = [](const char* flag, const Status& st) {
      std::fprintf(stderr, "%s: %s\n", flag, st.ToString().c_str());
      std::exit(2);
    };
    auto parse_double_flag = [&](const char* flag) -> double {
      auto parsed = ParseDouble(need_value(flag));
      if (!parsed.ok()) flag_value_error(flag, parsed.status());
      return *parsed;
    };
    auto parse_size_flag = [&](const char* flag) -> size_t {
      auto parsed = ParseUint64(need_value(flag));
      if (!parsed.ok()) flag_value_error(flag, parsed.status());
      return static_cast<size_t>(*parsed);
    };
    auto parse_int_flag = [&](const char* flag) -> int {
      auto parsed = ParseInt64(need_value(flag));
      if (parsed.ok() && (*parsed < 0 || *parsed > INT_MAX)) {
        flag_value_error(flag,
                         Status::OutOfRange("value outside the int range"));
      }
      if (!parsed.ok()) flag_value_error(flag, parsed.status());
      return static_cast<int>(*parsed);
    };
    auto parse_node_flag = [&](const char* flag) -> NodeId {
      auto parsed = ParseUint64(need_value(flag));
      if (parsed.ok() && *parsed >= kInvalidNode) {
        flag_value_error(flag,
                         Status::OutOfRange("value outside the node-id range"));
      }
      if (!parsed.ok()) flag_value_error(flag, parsed.status());
      return static_cast<NodeId>(*parsed);
    };
    if (std::strcmp(argv[i], "--g1") == 0) {
      g1_path = need_value("--g1");
    } else if (std::strcmp(argv[i], "--g2") == 0) {
      g2_path = need_value("--g2");
    } else if (std::strcmp(argv[i], "--out") == 0) {
      out_path = need_value("--out");
    } else if (std::strcmp(argv[i], "--variant") == 0) {
      if (!ParseVariant(need_value("--variant"), &config.variant)) {
        return Usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--label-sim") == 0) {
      if (!ParseLabelSim(need_value("--label-sim"), &config.label_sim)) {
        return Usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--theta") == 0) {
      config.theta = parse_double_flag("--theta");
    } else if (std::strcmp(argv[i], "--w-out") == 0) {
      config.w_out = parse_double_flag("--w-out");
    } else if (std::strcmp(argv[i], "--w-in") == 0) {
      config.w_in = parse_double_flag("--w-in");
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      config.num_threads = parse_int_flag("--threads");
    } else if (std::strcmp(argv[i], "--upper-bound") == 0) {
      config.upper_bound = true;
    } else if (std::strcmp(argv[i], "--simd") == 0) {
      // Kernel-level ceiling for the θ = 0 s/b tile panels
      // (core/simd/dispatch.h); the FSIM_SIMD environment variable, when
      // set, wins over this flag.
      if (!simd::ParseSimdMode(need_value("--simd"), &config.simd)) {
        return Usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--topk") == 0) {
      topk = parse_size_flag("--topk");
    } else if (std::strcmp(argv[i], "--topk-pairs") == 0) {
      topk_pairs = parse_size_flag("--topk-pairs");
    } else if (std::strcmp(argv[i], "--exact") == 0) {
      run_exact = true;
    } else if (std::strcmp(argv[i], "--partition") == 0) {
      run_partition = true;
    } else if (std::strcmp(argv[i], "--save-binary") == 0) {
      save_binary_path = need_value("--save-binary");
    } else if (std::strcmp(argv[i], "--serve") == 0) {
      run_serve = true;
    } else if (std::strcmp(argv[i], "--warm") == 0) {
      serve_options.warm_scores_path = need_value("--warm");
    } else if (std::strcmp(argv[i], "--refresh-edits") == 0) {
      serve_options.policy.max_edits_behind = parse_size_flag("--refresh-edits");
    } else if (std::strcmp(argv[i], "--refresh-seconds") == 0) {
      serve_options.policy.max_seconds_behind =
          parse_double_flag("--refresh-seconds");
    } else if (std::strcmp(argv[i], "--cache-k") == 0) {
      serve_options.policy.topk_cache_k = parse_size_flag("--cache-k");
    } else if (std::strcmp(argv[i], "--sync-refresh") == 0) {
      serve_options.background_refresh = false;
    } else if (std::strcmp(argv[i], "--wal-dir") == 0) {
      serve_options.durability.dir = need_value("--wal-dir");
    } else if (std::strcmp(argv[i], "--wal-snapshot-edits") == 0) {
      serve_options.durability.snapshot_every_edits =
          parse_size_flag("--wal-snapshot-edits");
    } else if (std::strcmp(argv[i], "--queue-capacity") == 0) {
      serve_options.policy.queue_capacity = parse_size_flag("--queue-capacity");
    } else if (std::strcmp(argv[i], "--flush-timeout") == 0) {
      serve_options.policy.flush_timeout_seconds =
          parse_double_flag("--flush-timeout");
    } else if (std::strcmp(argv[i], "--failpoints") == 0) {
      // Chaos testing (docs/correctness.md): arm injection sites before any
      // serving machinery is constructed. Only meaningful in an
      // FSIM_FAILPOINTS build; warn loudly otherwise so a chaos run against
      // a release binary is not silently a no-op.
      const char* spec = need_value("--failpoints");
      if (!failpoint::kCompiledIn) {
        std::fprintf(stderr,
                     "--failpoints ignored: this build compiled failpoint "
                     "sites out (rebuild with -DFSIM_FAILPOINTS=ON)\n");
      }
      Status armed = failpoint::ArmFromSpec(spec);
      if (!armed.ok()) {
        std::fprintf(stderr, "--failpoints: %s\n",
                     armed.ToString().c_str());
        return 2;
      }
    } else if (std::strcmp(argv[i], "--validate") == 0) {
      run_validate = true;
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      dump_metrics = true;
    } else if (std::strcmp(argv[i], "--trace-out") == 0) {
      trace_out_path = need_value("--trace-out");
    } else if (std::strcmp(argv[i], "--source") == 0) {
      source = parse_node_flag("--source");
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return Usage(argv[0]);
    }
  }
  if (g1_path.empty()) return Usage(argv[0]);

  // Exit-time observability dumps as RAII so every return path below —
  // including error exits — still reports. The Prometheus exposition goes
  // to stdout (entirely scrapeable text); trace status goes to stderr.
  struct ObsDump {
    bool metrics = false;
    std::string trace_path;
    ~ObsDump() {
      if (!trace_path.empty()) {
        obs::DisarmTracing();
        const Status written = obs::WriteChromeTrace(trace_path);
        if (written.ok()) {
          std::fprintf(
              stderr, "trace written to %s (%llu events, %llu dropped)\n",
              trace_path.c_str(),
              static_cast<unsigned long long>(obs::TraceEventCount()),
              static_cast<unsigned long long>(obs::TraceDroppedCount()));
        } else {
          std::fprintf(stderr, "--trace-out: %s\n",
                       written.ToString().c_str());
        }
      }
      if (metrics) {
        const std::string exposition = obs::Registry::Default().RenderPrometheus();
        std::fwrite(exposition.data(), 1, exposition.size(), stdout);
      }
    }
  } obs_dump{dump_metrics, trace_out_path};
  if (!trace_out_path.empty()) obs::ArmTracing();

  // FSIM_FAILPOINTS=<site=spec;...> in the environment arms sites the same
  // way --failpoints does (no-op when unset or compiled out).
  if (Status armed = failpoint::ArmFromEnv(); !armed.ok()) {
    std::fprintf(stderr, "FSIM_FAILPOINTS: %s\n", armed.ToString().c_str());
    return 2;
  }

  auto g1 = LoadAnyGraph(g1_path, nullptr);
  if (!g1.ok()) {
    std::fprintf(stderr, "loading %s: %s\n", g1_path.c_str(),
                 g1.status().ToString().c_str());
    return 1;
  }
  Graph graph2;
  const bool self = g2_path.empty();
  if (!self) {
    auto g2 = LoadAnyGraph(g2_path, g1->dict());
    if (!g2.ok()) {
      std::fprintf(stderr, "loading %s: %s\n", g2_path.c_str(),
                   g2.status().ToString().c_str());
      return 1;
    }
    graph2 = std::move(g2).ValueOrDie();
  }
  const Graph& graph1 = *g1;
  const Graph& target = self ? graph1 : graph2;

  if (run_validate) {
    return RunValidate(graph1, target, config);
  }

  if (run_serve) {
    // stdout is the protocol channel; banner and diagnostics go to stderr.
    std::fprintf(stderr, "G1: %s\n",
                 StatsToString(ComputeStats(graph1)).c_str());
    std::fprintf(stderr, "G2: %s\n",
                 StatsToString(ComputeStats(target)).c_str());
    auto service =
        FSimService::Create(graph1, target, config, serve_options);
    if (!service.ok()) {
      std::fprintf(stderr, "%s\n", service.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "serving (warm=%s, background refresh=%s, wal=%s); protocol: "
                 "PAIR/TOPK/THRESH/BATCH/EDIT/FLUSH/STATS/QUIT\n",
                 serve_options.warm_scores_path.empty() ? "no" : "yes",
                 serve_options.background_refresh ? "yes" : "no",
                 serve_options.durability.dir.empty()
                     ? "off"
                     : serve_options.durability.dir.c_str());
    Status st = (*service)->ServeLoop(std::cin, std::cout);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    return 0;
  }

  std::printf("G1: %s\n", StatsToString(ComputeStats(graph1)).c_str());
  std::printf("G2: %s\n", StatsToString(ComputeStats(target)).c_str());

  if (!save_binary_path.empty()) {
    Status st = SaveGraphBinaryToFile(graph1, save_binary_path);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("G1 written in binary format to %s\n",
                save_binary_path.c_str());
    return 0;
  }

  if (run_partition) {
    Partition p = BisimulationPartition(graph1);
    std::printf("bisimulation partition of G1: %zu classes over %zu nodes "
                "(%zu splitters processed)\n",
                p.num_blocks, graph1.NumNodes(), p.splitters_processed);
    std::vector<size_t> sizes(p.num_blocks, 0);
    for (uint32_t b : p.block_of) ++sizes[b];
    std::sort(sizes.begin(), sizes.end(), std::greater<>());
    std::printf("largest classes:");
    for (size_t i = 0; i < std::min<size_t>(8, sizes.size()); ++i) {
      std::printf(" %zu", sizes[i]);
    }
    std::printf("\n");
    return 0;
  }

  if (run_exact) {
    BinaryRelation rel = MaxSimulation(graph1, target, config.variant);
    std::printf("exact %s-simulation: %zu of %zu pairs are in the maximum "
                "relation\n",
                SimVariantName(config.variant), rel.CountPairs(),
                graph1.NumNodes() * target.NumNodes());
    return 0;
  }

  if (topk_pairs > 0) {
    TopKPairsOptions options;
    options.k = topk_pairs;
    options.exclude_diagonal = self;
    auto result = ComputeTopKPairs(graph1, target, config, options);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    std::printf("global top-%zu pairs (certified=%s, radius=%.2g, "
                "%u/%u iterations):\n",
                topk_pairs, result->certified ? "yes" : "no", result->radius,
                result->iterations, result->iteration_bound);
    for (const auto& p : result->pairs) {
      std::printf("  (%u, %u)  %.6f\n", p.u, p.v, p.score);
    }
    return 0;
  }

  if (topk > 0) {
    if (source == kInvalidNode) {
      std::fprintf(stderr, "--topk requires --source\n");
      return 2;
    }
    auto result = TopKSearch(graph1, target, source, config, {0, topk});
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    std::printf("top-%zu for node %u (depth %u, error bound %.2g, %zu pairs "
                "computed):\n",
                topk, source, result->depth, result->error_bound,
                result->pairs_computed);
    for (const auto& [v, score] : result->ranking) {
      std::printf("  %u (%.*s)  %.6f\n", v,
                  static_cast<int>(target.LabelName(v).size()),
                  target.LabelName(v).data(), score);
    }
    return 0;
  }

  auto scores = ComputeFSim(graph1, target, config);
  if (!scores.ok()) {
    std::fprintf(stderr, "%s\n", scores.status().ToString().c_str());
    return 1;
  }
  const auto& stats = scores->stats();
  std::printf("pairs=%zu (pruned %zu)  iterations=%u  converged=%s  "
              "time=%.2fs\n",
              stats.maintained_pairs, stats.pruned_pairs, stats.iterations,
              stats.converged ? "yes" : "no",
              stats.build_seconds + stats.iterate_seconds);

  if (!out_path.empty()) {
    Status st = SaveScoresToFile(*scores, out_path);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("scores written to %s\n", out_path.c_str());
    return 0;
  }

  // Default report: the 10 best off-diagonal pairs.
  std::printf("top scoring pairs (u != v):\n");
  std::vector<std::pair<double, uint64_t>> best;
  const auto& keys = scores->keys();
  const auto& values = scores->values();
  for (size_t i = 0; i < keys.size(); ++i) {
    if (self && PairFirst(keys[i]) == PairSecond(keys[i])) continue;
    best.emplace_back(values[i], keys[i]);
  }
  std::partial_sort(best.begin(),
                    best.begin() + std::min<size_t>(10, best.size()),
                    best.end(), std::greater<>());
  for (size_t i = 0; i < std::min<size_t>(10, best.size()); ++i) {
    std::printf("  (%u, %u)  %.6f\n", PairFirst(best[i].second),
                PairSecond(best[i].second), best[i].first);
  }
  return 0;
}
