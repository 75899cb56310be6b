// Per-layer probes of the traced run. Each probe calls one layer through
// its public entry point on the workload's own inputs, with a benchmark
// span around every call, and reads only counters the program exports
// (FSimStats, RefreshDriver::Stats, EditStats, the obs registry).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "common/thread_pool.h"
#include "core/fsim_engine.h"
#include "core/incremental.h"
#include "core/pair_store.h"
#include "label/label_similarity.h"
#include "obs/metrics.h"
#include "serve/recovery.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kRepeats = 3;              // builds, solves, snapshot builds
constexpr size_t kProbeBursts = 8;       // 64 edits
constexpr size_t kAcquireBlocks = 2000;  // per reader
constexpr size_t kBlock = 256;           // calls per timed block
constexpr std::chrono::milliseconds kFlushBudget{60000};

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

uint64_t CounterTotal(const char* family) {
  uint64_t total = 0;
  for (const auto& [label, value] :
       fsim::obs::Registry::Default().CounterFamilySnapshot(family)) {
    total += value;
  }
  return total;
}

fsim::obs::HistogramSnapshot HistogramNow(const char* family) {
  fsim::obs::Histogram* h =
      fsim::obs::Registry::Default().FindHistogram(family);
  return h == nullptr ? fsim::obs::HistogramSnapshot{} : h->Snapshot();
}

/// pair_store: a separate PairStore::Build on the same inputs.
double ProbePairStore(const ProbeInputs& in, SpanLog* log, Report* report) {
  const fsim::Graph& g = in.input->graph;
  std::unique_ptr<fsim::ThreadPool> pool;
  if (in.config.num_threads > 1) {
    pool = std::make_unique<fsim::ThreadPool>(in.config.num_threads);
  }
  const fsim::LabelSimilarityCache lsim(*g.dict(), in.config.label_sim);
  size_t pairs = 0;
  size_t index_bytes = 0;
  for (int k = 0; k < kRepeats; ++k) {
    Span span(log, "pair_store.build", static_cast<uint64_t>(k));
    fsim::Result<fsim::PairStore> store = fsim::PairStore::Build(
        g, g, in.config, lsim, /*build_neighbor_index=*/true, pool.get());
    span.End();
    report->Attempt();
    if (!store.ok()) {
      report->OpFailed();
      report->Wrong("PairStore::Build failed: " + store.status().ToString());
      return 0.0;
    }
    pairs = store->size();
    index_bytes = store->NeighborIndexBytes();
  }
  const double build_s = Median(log->Seconds("pair_store.build"));
  report->Set("pair_store.build_s", build_s, "s");
  report->Set("pair_store.pairs", static_cast<double>(pairs), "count");
  report->Set("pair_store.index_mb",
              static_cast<double>(index_bytes) / (1024.0 * 1024.0), "MB");
  return build_s;
}

/// iterate + thread_pool: ComputeFSim spans minus the build, and the
/// scheduler counter deltas per solve.
void ProbeIterate(const ProbeInputs& in, double build_s, SpanLog* log,
                  Report* report) {
  const fsim::Graph& g = in.input->graph;
  const uint64_t regions0 = CounterTotal("fsim_scheduler_regions_total");
  const uint64_t steals0 = CounterTotal("fsim_scheduler_steal_batches_total");
  std::vector<double> engine_iterate_s;
  fsim::FSimStats stats;
  for (int k = 0; k < kRepeats; ++k) {
    Span span(log, "iterate.solve", static_cast<uint64_t>(k));
    fsim::Result<fsim::FSimScores> scores = fsim::ComputeFSim(g, g, in.config);
    span.End();
    report->Attempt();
    if (!scores.ok()) {
      report->OpFailed();
      report->Wrong("ComputeFSim failed: " + scores.status().ToString());
      return;
    }
    stats = scores->stats();
    engine_iterate_s.push_back(stats.iterate_seconds);
  }
  const double solve_s = Median(log->Seconds("iterate.solve"));
  const double iterate_s = solve_s - build_s;
  std::printf("iterate cross-check: solve span %.4f s - build %.4f s = "
              "%.4f s; FSimStats::iterate_seconds median %.4f s\n",
              solve_s, build_s, iterate_s, Median(engine_iterate_s));
  double evaluations = 0.0;
  if (stats.active_set) {
    for (size_t n : stats.active_pairs_history) {
      evaluations += static_cast<double>(n);
    }
  } else {
    evaluations = static_cast<double>(stats.iterations) *
                  static_cast<double>(stats.maintained_pairs);
  }
  report->Set("iterate.s", iterate_s, "s");
  report->Set("iterate.iterations", stats.iterations, "count");
  report->Set("iterate.evaluations", evaluations, "count");
  report->Set("iterate.frozen_frac", stats.frozen_fraction, "ratio");
  report->Set("thread_pool.regions",
              static_cast<double>(
                  CounterTotal("fsim_scheduler_regions_total") - regions0) /
                  kRepeats,
              "count");
  report->Set("thread_pool.steal_batches",
              static_cast<double>(
                  CounterTotal("fsim_scheduler_steal_batches_total") -
                  steals0) /
                  kRepeats,
              "count");
}

/// incremental: Create, then the workload's edit stream replayed directly.
void ProbeIncremental(const ProbeInputs& in, SpanLog* log, Report* report) {
  fsim::IncrementalOptions inc_options;
  inc_options.propagation_tolerance = in.propagation_tolerance;
  Span create_span(log, "incremental.create", 0);
  fsim::Result<fsim::IncrementalFSim> inc = fsim::IncrementalFSim::Create(
      in.input->graph, in.input->graph, in.config, inc_options);
  create_span.End();
  report->Attempt();
  if (!inc.ok()) {
    report->OpFailed();
    report->Wrong("IncrementalFSim::Create failed: " +
                  inc.status().ToString());
    return;
  }
  EditStream stream(*in.input);
  double recomputed = 0.0;
  for (size_t b = 0; b < kProbeBursts; ++b) {
    for (const fsim::EditOp& op : stream.NextBurst()) {
      Span span(log, "incremental.edit", b);
      const fsim::Status status =
          op.insert ? inc->InsertEdge(op.graph_index, op.from, op.to)
                    : inc->RemoveEdge(op.graph_index, op.from, op.to);
      span.End();
      report->Attempt();
      if (!status.ok()) {
        report->OpFailed();
        continue;
      }
      recomputed += static_cast<double>(inc->last_edit_stats().recomputed);
    }
  }
  std::vector<double> edit_ms = log->Seconds("incremental.edit");
  for (double& v : edit_ms) v *= 1e3;
  report->Set("incremental.create_s",
              Median(log->Seconds("incremental.create")), "s");
  report->Set("incremental.edit_p50_ms", Quantile(edit_ms, 0.5), "ms");
  report->Set("incremental.edit_p90_ms", Quantile(edit_ms, 0.9), "ms");
  report->Set("incremental.recomputed", recomputed, "count");
}

/// refresh + wal + recovery + snapshot + query, through one durable
/// RefreshDriver fed with the same edit stream.
void ProbeServing(const ProbeInputs& in, const Options& options, SpanLog* log,
                  Report* report) {
  const std::string dir = options.work_dir + "/wal-probe";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  fsim::SnapshotStore store;
  fsim::RefreshPolicy policy;
  policy.topk_cache_k = in.cache_k;
  policy.max_edits_behind = EditStream::kBurst;
  fsim::IncrementalOptions inc_options;
  inc_options.propagation_tolerance = in.propagation_tolerance;
  {
    const fsim::Graph& g = in.input->graph;
    fsim::RefreshDriver driver(g, g, in.config, inc_options, policy, &store);
    fsim::DurabilityOptions durability;
    durability.dir = dir;
    fsim::Result<fsim::RecoveredState> recovered =
        fsim::RecoverServeState(dir, g, g);
    fsim::Status status =
        recovered.ok()
            ? driver.EnableDurability(durability, std::move(*recovered))
            : recovered.status();
    if (status.ok()) {
      Span span(log, "refresh.init", 0);
      status = driver.Init();
    }
    report->Attempt();
    if (!status.ok()) {
      report->OpFailed();
      report->Wrong("serving probe set-up failed: " + status.ToString());
      return;
    }
    const fsim::obs::HistogramSnapshot fsync0 =
        HistogramNow("fsim_wal_fsync_seconds");
    EditStream stream(*in.input);
    std::vector<double> publish_ms;
    for (size_t b = 0; b < kProbeBursts; ++b) {
      const Span burst(log, "refresh.burst", b);
      for (const fsim::EditOp& op : stream.NextBurst()) {
        Span span(log, "refresh.submit", b, &burst);
        const fsim::Status submitted = driver.Submit(op);
        span.End();
        report->Attempt();
        if (!submitted.ok()) report->OpFailed();
      }
      Span span(log, "refresh.flush", b, &burst);
      const fsim::Status flushed = driver.FlushWithin(kFlushBudget);
      span.End();
      report->Attempt();
      if (!flushed.ok()) {
        report->OpFailed();
        continue;
      }
      publish_ms.push_back(driver.stats().last_publish_seconds * 1e3);
    }
    const fsim::RefreshDriver::Stats stats = driver.stats();
    const fsim::obs::HistogramSnapshot fsync =
        fsim::obs::HistogramSnapshot::Delta(
            HistogramNow("fsim_wal_fsync_seconds"), fsync0);
    std::vector<double> submit_us = log->Seconds("refresh.submit");
    for (double& v : submit_us) v *= 1e6;
    std::vector<double> flush_ms = log->Seconds("refresh.flush");
    for (double& v : flush_ms) v *= 1e3;
    report->Set("refresh.submit_us", Quantile(submit_us, 0.5), "us");
    report->Set("refresh.flush_ms", Quantile(flush_ms, 0.5), "ms");
    report->Set("refresh.apply_s",
                stats.total_apply_seconds / static_cast<double>(kProbeBursts),
                "s");
    report->Set("refresh.publish_ms", Quantile(publish_ms, 0.5), "ms");
    report->Set("wal.fsync_us",
                fsync.count == 0 ? 0.0
                                 : static_cast<double>(fsync.sum) /
                                       static_cast<double>(fsync.count) * 1e-3,
                "us");
    report->Set("recovery.persist_s",
                stats.snapshot_persists == 0
                    ? 0.0
                    : stats.total_persist_seconds /
                          static_cast<double>(stats.snapshot_persists),
                "s");
  }  // the driver stops here; the store keeps its last snapshot

  const fsim::SnapshotPtr pinned = store.Acquire();

  // snapshot: the top-k cache build over the published scores.
  for (int k = 0; k < kRepeats; ++k) {
    Span span(log, "snapshot.build", static_cast<uint64_t>(k));
    const fsim::FSimSnapshot rebuilt(pinned->shared_scores(), in.cache_k,
                                     fsim::SnapshotMeta{});
    span.End();
  }
  std::vector<double> build_ms = log->Seconds("snapshot.build");
  for (double& v : build_ms) v *= 1e3;
  report->Set("snapshot.build_ms", Quantile(build_ms, 0.5), "ms");

  // snapshot: Acquire + release, by the workload's reader count at once.
  {
    Span span(log, "snapshot.acquire", 0);
    std::vector<std::vector<double>> per_reader(
        static_cast<size_t>(in.readers));
    std::vector<std::thread> readers;
    for (size_t r = 0; r < per_reader.size(); ++r) {
      readers.emplace_back([&store, out = &per_reader[r]] {
        out->reserve(kAcquireBlocks);
        for (size_t b = 0; b < kAcquireBlocks; ++b) {
          const uint64_t start = NowNs();
          for (size_t i = 0; i < kBlock; ++i) {
            const fsim::SnapshotPtr held = store.Acquire();
            if (held == nullptr) return;
          }
          out->push_back(static_cast<double>(NowNs() - start) /
                         static_cast<double>(kBlock));
        }
      });
    }
    for (std::thread& t : readers) t.join();
    std::vector<double> ns;
    for (const auto& v : per_reader) ns.insert(ns.end(), v.begin(), v.end());
    report->Set("snapshot.acquire_ns", Quantile(ns, 0.5), "ns");
  }

  // query: QueryEngine::Answer on the pinned snapshot, no acquire.
  const std::vector<fsim::Query> mix =
      MakeReadMix(*pinned, in.input->graph.NumNodes(), options.seed, 8192);
  const struct {
    fsim::Query::Kind kind;
    const char* span;
    const char* metric;
    size_t calls;
  } kinds[] = {
      {fsim::Query::Kind::kPair, "query.pair", "query.pair_ns", 200000},
      {fsim::Query::Kind::kTopK, "query.topk", "query.topk_ns", 20000},
      {fsim::Query::Kind::kThreshold, "query.thresh", "query.thresh_ns",
       20000},
  };
  for (const auto& kind : kinds) {
    std::vector<fsim::Query> queries;
    for (const fsim::Query& q : mix) {
      if (q.kind == kind.kind) queries.push_back(q);
    }
    std::vector<double> block_ns;
    size_t next = 0;
    uint64_t degraded = 0;
    size_t done = 0;
    for (; done < kind.calls; done += kBlock) {
      Span span(log, kind.span, done / kBlock);
      const uint64_t start = NowNs();
      for (size_t i = 0; i < kBlock; ++i) {
        const fsim::QueryResult result =
            fsim::QueryEngine::Answer(*pinned, queries[next]);
        degraded += result.degraded ? 1 : 0;
        if (++next == queries.size()) next = 0;
      }
      block_ns.push_back(static_cast<double>(NowNs() - start) /
                         static_cast<double>(kBlock));
    }
    report->Attempt(done);
    report->OpFailed(degraded);
    report->Set(kind.metric, Quantile(block_ns, 0.5), "ns");
  }
  std::filesystem::remove_all(dir, ec);
}

}  // namespace

void RunLayerProbes(const ProbeInputs& in, const Options& options,
                    SpanLog* log, Report* report) {
  const double build_s = ProbePairStore(in, log, report);
  ProbeIterate(in, build_s, log, report);
  ProbeIncremental(in, log, report);
  ProbeServing(in, options, log, report);
}

}  // namespace perfbench
