// Serve workloads: a RefreshDriver with WAL durability publishing into a
// SnapshotStore, closed-loop readers through QueryEngine::Run and, on
// serve_edit, one closed-loop writer submitting edit bursts.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

#include "common/hash.h"
#include "core/fsim_engine.h"
#include "serve/recovery.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kPropagationTolerance = 1e-6;
constexpr size_t kCacheK = 16;
constexpr size_t kMixSize = 8192;
// The edit-visibility p90 needs at least 20 samples beyond it.
constexpr size_t kMinEdits = 200;
constexpr size_t kMinEditsSmoke = 16;
// Convergence target of the from-scratch reference solve in Finish: far
// below the serving epsilon, so the reference is the fixpoint to within
// rounding.
constexpr double kReferenceEpsilon = 1e-9;
constexpr std::chrono::milliseconds kFlushBudget{30000};

class ServeWorkload : public Workload {
 public:
  ServeWorkload(const WorkloadSpec& spec, const Options& options)
      : spec_(spec),
        options_(options),
        config_(BaseConfig(spec.variant, spec.epsilon, spec.engine_threads)),
        wal_dir_(options.work_dir + "/wal-" + spec.name) {
    inc_options_.propagation_tolerance = kPropagationTolerance;
    policy_.topk_cache_k = kCacheK;
    policy_.max_edits_behind = EditStream::kBurst;
  }

  ~ServeWorkload() override {
    driver_.reset();
    std::error_code ec;
    std::filesystem::remove_all(wal_dir_, ec);
  }

  double Setup(int repeats, Report* report) override {
    const double scale = options_.smoke ? spec_.smoke_scale : spec_.scale;
    input_.emplace(MakeSeededGraph(spec_.dataset, scale, options_.seed));
    std::vector<double> seconds;
    for (int r = 0; r < repeats; ++r) {
      driver_.reset();
      store_.reset();
      std::error_code ec;
      std::filesystem::remove_all(wal_dir_, ec);
      const uint64_t start = NowNs();
      const fsim::Status status = StartDriver();
      seconds.push_back(static_cast<double>(NowNs() - start) * 1e-9);
      report->Attempt();
      if (!status.ok()) {
        report->OpFailed();
        report->Wrong("serving set-up failed: " + status.ToString());
        return seconds.back();
      }
    }
    const fsim::SnapshotPtr snapshot = store_->Acquire();
    std::printf("graph: %zu nodes, %zu edges (%s x%g, seed %llu); %zu pairs "
                "published\n",
                input_->graph.NumNodes(), input_->graph.NumEdges(),
                spec_.dataset, scale,
                static_cast<unsigned long long>(options_.seed),
                snapshot->scores().NumPairs());
    stream_.emplace(*input_);
    return Quantile(seconds, 0.5);
  }

  LoopResult Loop(double seconds, SpanLog* log, Report* report) override {
    if (driver_ == nullptr || !driver_->ready()) return {};
    const fsim::QueryEngine engine(store_.get());
    const fsim::SnapshotPtr first = store_->Acquire();
    std::atomic<bool> stop{false};
    const size_t clients = static_cast<size_t>(spec_.clients);
    std::vector<ReaderStats> stats(clients);
    std::vector<std::vector<fsim::Query>> mixes;
    std::vector<SpanLog*> logs(clients, nullptr);
    for (size_t r = 0; r < clients; ++r) {
      mixes.push_back(MakeReadMix(*first, input_->graph.NumNodes(),
                                  options_.seed + r, kMixSize));
      if (log != nullptr) {
        reader_logs_.push_back(std::make_unique<SpanLog>());
        logs[r] = reader_logs_.back().get();
      }
    }
    std::vector<std::thread> readers;
    const uint64_t start = NowNs();
    for (size_t r = 0; r < clients; ++r) {
      readers.emplace_back([&, r] {
        RunReader(engine, *store_, mixes[r], stop, r, logs[r], &stats[r]);
      });
    }
    std::vector<double> visible_ms;
    if (spec_.edits) {
      WriteLoop(seconds, log, report, &visible_ms);
    } else {
      std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    }
    stop.store(true);
    for (std::thread& t : readers) t.join();
    const double elapsed = static_cast<double>(NowNs() - start) * 1e-9;

    ReaderStats reads;
    for (const ReaderStats& s : stats) {
      reads.latency.Merge(s.latency);
      reads.attempted += s.attempted;
      reads.failed += s.failed;
      reads.checked += s.checked;
      reads.mismatched += s.mismatched;
      reads.unsorted += s.unsorted;
    }
    AccountReader(reads, report);
    const double read_qps = static_cast<double>(reads.attempted) / elapsed;
    std::printf("reads: %llu by %d closed-loop readers, %.0f/s, p50 %.1f ns, "
                "p99 %.1f ns (%llu samples beyond p99)\n",
                static_cast<unsigned long long>(reads.attempted),
                spec_.clients, read_qps, reads.latency.QuantileNs(0.5),
                reads.latency.QuantileNs(0.99),
                static_cast<unsigned long long>(reads.attempted / 100));

    LoopResult result;
    if (spec_.edits) {
      result.op_p50_ms = Quantile(visible_ms, 0.5);
      result.op_tail_ms = Quantile(visible_ms, 0.9);
      result.op_rate_per_s = static_cast<double>(visible_ms.size()) / elapsed;
      std::printf("edits: %zu visible, p50 %.3f ms, p90 %.3f ms (%zu "
                  "samples beyond p90)\n",
                  visible_ms.size(), result.op_p50_ms, result.op_tail_ms,
                  visible_ms.size() / 10);
    } else {
      result.op_p50_ms = reads.latency.QuantileNs(0.5) * 1e-6;
      result.op_tail_ms = reads.latency.QuantileNs(0.99) * 1e-6;
      result.op_rate_per_s = read_qps;
    }
    return result;
  }

  void Finish(Report* report) override {
    if (!spec_.edits || driver_ == nullptr || !driver_->ready()) return;
    // The maintained, published scores against the fixpoint of the edited
    // graphs. Their distance is bounded by the initial solve's stopping
    // error eps*w/(1-w) plus the propagation bound tau*(1+w)/(1-w). With
    // serve_test's eps = 1e-6 that is its 1e-4; at this workload's
    // eps = 1e-4 it is 4.1e-4.
    const double w = config_.w_out + config_.w_in;
    const double tolerance = config_.epsilon * w / (1.0 - w) +
                             kPropagationTolerance * (1.0 + w) / (1.0 - w);
    const fsim::Graph g1 = driver_->MaterializeG1();
    const fsim::Graph g2 = driver_->MaterializeG2();
    fsim::FSimConfig reference = config_;
    reference.epsilon = kReferenceEpsilon;
    report->Attempt();
    fsim::Result<fsim::FSimScores> fresh = fsim::ComputeFSim(g1, g2, reference);
    if (!fresh.ok()) {
      report->OpFailed();
      report->Wrong("verification solve failed: " + fresh.status().ToString());
      return;
    }
    const fsim::SnapshotPtr published = store_->Acquire();
    const fsim::FSimScores& served = published->scores();
    double worst = 0.0;
    for (size_t i = 0; i < fresh->keys().size(); ++i) {
      const uint64_t key = fresh->keys()[i];
      worst = std::max(worst,
                       std::fabs(served.Score(fsim::PairFirst(key),
                                              fsim::PairSecond(key)) -
                                 fresh->values()[i]));
    }
    std::printf("final scores vs ComputeFSim: %zu vs %zu pairs, max |diff| "
                "%.3g (bound %.3g)\n",
                served.NumPairs(), fresh->NumPairs(), worst, tolerance);
    if (served.NumPairs() != fresh->NumPairs() || worst > tolerance) {
      report->Wrong("published scores differ from the ComputeFSim fixpoint "
                    "by more than the bound");
    }
  }

  ProbeInputs Probe() const override {
    ProbeInputs in;
    in.input = &*input_;
    in.config = config_;
    in.propagation_tolerance = kPropagationTolerance;
    in.cache_k = kCacheK;
    in.readers = spec_.clients;
    return in;
  }

  std::vector<const SpanLog*> ThreadLogs() const override {
    std::vector<const SpanLog*> logs;
    for (const auto& log : reader_logs_) logs.push_back(log.get());
    return logs;
  }

 private:
  /// Constructs the driver with WAL durability in a fresh directory and
  /// runs Init: the solve, the first publish and the boot snapshot.
  fsim::Status StartDriver() {
    store_ = std::make_unique<fsim::SnapshotStore>();
    driver_ = std::make_unique<fsim::RefreshDriver>(
        input_->graph, input_->graph, config_, inc_options_, policy_,
        store_.get());
    fsim::DurabilityOptions durability;
    durability.dir = wal_dir_;
    fsim::Result<fsim::RecoveredState> recovered =
        fsim::RecoverServeState(durability.dir, input_->graph, input_->graph);
    if (!recovered.ok()) return recovered.status();
    fsim::Status status =
        driver_->EnableDurability(durability, std::move(*recovered));
    if (!status.ok()) return status;
    return driver_->Init();
  }

  /// The closed-loop writer: one burst of real edits, then FlushWithin;
  /// each edit's visibility latency runs from its Submit call to the
  /// return of the flush that published it.
  void WriteLoop(double seconds, SpanLog* log, Report* report,
                 std::vector<double>* visible_ms) {
    const size_t min_edits = options_.smoke ? kMinEditsSmoke : kMinEdits;
    const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
    std::vector<uint64_t> submitted_ns;
    while (NowNs() < deadline || visible_ms->size() < min_edits) {
      const uint64_t burst_id = bursts_++;
      const Span burst(log, "edit.burst", burst_id);
      submitted_ns.clear();
      for (const fsim::EditOp& op : stream_->NextBurst()) {
        const Span span(log, "edit.submit", burst_id, &burst);
        const uint64_t start = NowNs();
        const fsim::Status status = driver_->Submit(op);
        report->Attempt();
        if (!status.ok()) {
          report->OpFailed();
          continue;
        }
        submitted_ns.push_back(start);
      }
      Span span(log, "edit.flush", burst_id, &burst);
      const fsim::Status flushed = driver_->FlushWithin(kFlushBudget);
      const uint64_t visible = NowNs();
      span.End();
      report->Attempt();
      if (!flushed.ok()) {
        report->OpFailed();
        report->Wrong("flush failed: " + flushed.ToString());
        return;
      }
      for (uint64_t t : submitted_ns) {
        visible_ms->push_back(static_cast<double>(visible - t) * 1e-6);
      }
    }
  }

  const WorkloadSpec& spec_;
  const Options& options_;
  const fsim::FSimConfig config_;
  const std::string wal_dir_;
  fsim::IncrementalOptions inc_options_;
  fsim::RefreshPolicy policy_;
  std::optional<SeededGraph> input_;
  std::optional<EditStream> stream_;
  uint64_t bursts_ = 0;
  std::unique_ptr<fsim::SnapshotStore> store_;
  // Declared after store_: the driver publishes into it until destroyed.
  std::unique_ptr<fsim::RefreshDriver> driver_;
  std::vector<std::unique_ptr<SpanLog>> reader_logs_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeWorkload(const WorkloadSpec& spec,
                                            const Options& options) {
  return std::make_unique<ServeWorkload>(spec, options);
}

}  // namespace perfbench
