// Batch workloads: repeated ComputeFSim solves of one generated graph.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "core/fsim_engine.h"
#include "workloads.h"

namespace perfbench {
namespace {

// At least this many warm solves per loop, however short --seconds is, so
// the median always has samples.
constexpr size_t kMinWarmSolves = 3;
// Graph generation takes milliseconds; its median needs many repeats.
constexpr int kSetupRepeatScale = 5;

class BatchWorkload : public Workload {
 public:
  BatchWorkload(const WorkloadSpec& spec, const Options& options)
      : spec_(spec),
        options_(options),
        config_(BaseConfig(spec.variant, spec.epsilon, spec.engine_threads)) {}

  double Setup(int repeats, Report* /*report*/) override {
    std::vector<double> seconds;
    const double scale = options_.smoke ? spec_.smoke_scale : spec_.scale;
    for (int r = 0; r < repeats * kSetupRepeatScale; ++r) {
      input_.reset();
      const uint64_t start = NowNs();
      input_.emplace(MakeSeededGraph(spec_.dataset, scale, options_.seed));
      seconds.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    }
    std::printf("graph: %zu nodes, %zu edges (%s x%g, seed %llu)\n",
                input_->graph.NumNodes(), input_->graph.NumEdges(),
                spec_.dataset, scale,
                static_cast<unsigned long long>(options_.seed));
    return Quantile(seconds, 0.5);
  }

  LoopResult Loop(double seconds, SpanLog* log, Report* report) override {
    const uint64_t deadline =
        NowNs() + static_cast<uint64_t>(seconds * 1e9);
    const size_t callers = static_cast<size_t>(spec_.clients);
    warmed_.resize(callers, false);
    std::vector<std::vector<double>> warm(callers);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < callers; ++c) {
      SpanLog* caller_log = nullptr;
      if (log != nullptr) {
        caller_logs_.push_back(std::make_unique<SpanLog>());
        caller_log = caller_logs_.back().get();
      }
      threads.emplace_back([this, c, deadline, caller_log, report, &warm] {
        CallLoop(c, deadline, caller_log, report, &warm[c]);
      });
    }
    for (std::thread& t : threads) t.join();
    std::vector<double> warm_s;
    LoopResult result;
    for (const auto& w : warm) {
      warm_s.insert(warm_s.end(), w.begin(), w.end());
      double busy = 0.0;
      for (double s : w) busy += s;
      if (busy > 0.0) {
        result.op_rate_per_s += static_cast<double>(w.size()) / busy;
      }
    }
    result.op_p50_ms = Quantile(warm_s, 0.5) * 1e3;
    result.op_tail_ms = Quantile(warm_s, 0.75) * 1e3;
    std::printf("solves: %zu warm by %zu closed-loop callers, median %.4f s, "
                "upper quartile %.4f s\n",
                warm_s.size(), callers, result.op_p50_ms * 1e-3,
                result.op_tail_ms * 1e-3);
    return result;
  }

  std::vector<const SpanLog*> ThreadLogs() const override {
    std::vector<const SpanLog*> logs;
    for (const auto& log : caller_logs_) logs.push_back(log.get());
    return logs;
  }

  ProbeInputs Probe() const override {
    ProbeInputs in;
    in.input = &*input_;
    in.config = config_;
    // The same epsilon-to-tolerance ratio as the serve workloads.
    in.propagation_tolerance = spec_.epsilon * 1e-2;
    in.readers = 1;
    return in;
  }

 private:
  /// One closed-loop caller: solves until the deadline (and at least
  /// kMinWarmSolves warm samples). Each caller's first solve in the process
  /// pays page faults and allocator growth; it is warm-up, not a sample.
  void CallLoop(size_t caller, uint64_t deadline, SpanLog* log,
                Report* report, std::vector<double>* warm_s) {
    while (NowNs() < deadline || warm_s->size() < kMinWarmSolves) {
      Span span(log, "engine.solve", solves_.fetch_add(1));
      const uint64_t start = NowNs();
      fsim::Result<fsim::FSimScores> scores =
          fsim::ComputeFSim(input_->graph, input_->graph, config_);
      const double elapsed = static_cast<double>(NowNs() - start) * 1e-9;
      span.End();
      std::lock_guard<std::mutex> lock(mu_);
      report->Attempt();
      if (!scores.ok()) {
        report->OpFailed();
        report->Wrong("ComputeFSim failed: " + scores.status().ToString());
        return;
      }
      Check(*scores, report);
      if (warmed_[caller]) {
        warm_s->push_back(elapsed);
      } else {
        warmed_[caller] = true;
      }
    }
  }

  /// Every solve: P1 range and the Corollary 1 bound; later solves are
  /// bit-identical to the first (exact active-set mode guarantees it); the
  /// first is compared with the expected digest when one is given.
  void Check(const fsim::FSimScores& scores, Report* report) {
    const fsim::FSimStats& stats = scores.stats();
    const uint32_t bound = fsim::FSimIterationBound(config_);
    // Corollary 1 assumes exact maximum matchings (condition C3). The
    // greedy matching of dp/bj only approximates them, so there the engine
    // may stop at the bound above epsilon — as batch_dp does.
    const fsim::MappingKind mapping = config_.operators().mapping;
    const bool exact_c3 = config_.matching == fsim::MatchingAlgo::kHungarian ||
                          mapping == fsim::MappingKind::kMaxPerRow ||
                          mapping == fsim::MappingKind::kMaxBothSides;
    if ((exact_c3 && !stats.converged) || stats.iterations > bound) {
      report->Wrong("solve did not converge within the Corollary 1 bound (" +
                    std::to_string(stats.iterations) + " iterations, bound " +
                    std::to_string(bound) + ")");
    }
    for (double v : scores.values()) {
      if (!(v >= 0.0 && v <= 1.0)) {
        report->Wrong("score outside [0, 1] (P1)");
        break;
      }
    }
    if (have_first_) {
      if (scores.keys() != first_keys_ ||
          scores.values().size() != first_values_.size() ||
          std::memcmp(scores.values().data(), first_values_.data(),
                      first_values_.size() * sizeof(double)) != 0) {
        report->Wrong("solve is not bit-identical to the run's first solve");
      }
      return;
    }
    have_first_ = true;
    first_keys_ = scores.keys();
    first_values_ = scores.values();
    double sum = 0.0;
    for (double v : first_values_) sum += v;
    std::printf("digest: pairs=%zu sum=%.17g iterations=%u\n",
                first_values_.size(), sum, stats.iterations);
    if (options_.has_digest &&
        (first_values_.size() != options_.digest_pairs ||
         std::fabs(sum - options_.digest_sum) >
             1e-9 * std::max(1.0, std::fabs(options_.digest_sum)))) {
      char expected[96];
      std::snprintf(expected, sizeof(expected), "pairs=%llu sum=%.17g",
                    static_cast<unsigned long long>(options_.digest_pairs),
                    options_.digest_sum);
      report->Wrong(std::string("digest differs from the recorded ") +
                    expected);
    }
  }

  const WorkloadSpec& spec_;
  const Options& options_;
  const fsim::FSimConfig config_;
  std::optional<SeededGraph> input_;
  std::atomic<uint64_t> solves_{0};  // span request ids
  std::vector<std::unique_ptr<SpanLog>> caller_logs_;
  std::mutex mu_;  // guards: the report, warmed_ and the first-solve state
  std::vector<bool> warmed_;
  bool have_first_ = false;
  std::vector<uint64_t> first_keys_;
  std::vector<double> first_values_;
};

}  // namespace

std::unique_ptr<Workload> MakeBatchWorkload(const WorkloadSpec& spec,
                                            const Options& options) {
  return std::make_unique<BatchWorkload>(spec, options);
}

}  // namespace perfbench
