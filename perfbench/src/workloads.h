// The four workloads of the benchmark (NOTES.md has why each exists) and
// the per-layer probes of the traced run.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <memory>
#include <vector>

#include "common.h"
#include "core/fsim_config.h"
#include "graph/graph.h"

namespace perfbench {

/// Static description of one workload.
struct WorkloadSpec {
  const char* name;
  const char* dataset;  // dataset_registry analog
  double scale;         // multiplies the spec's nodes and edges
  double smoke_scale;   // the same, in --smoke mode
  fsim::SimVariant variant;
  double epsilon;
  int engine_threads;
  int clients;  // closed-loop client threads: solve callers or readers
  bool serve;
  bool edits;  // serve: one closed-loop writer submits edit bursts
  const char* why;
  const char* load;  // the closed-loop clients, in words
};

/// The known workloads, or nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

/// End-to-end figures of one measured loop. The "operation" is the
/// workload's unit of user-visible work: a warm solve (batch), one read
/// (serve_read) or one edit from Submit to visible (serve_edit).
struct LoopResult {
  double op_p50_ms = 0.0;
  double op_tail_ms = 0.0;
  double op_rate_per_s = 0.0;
};

/// What the per-layer probes run on: the workload's own inputs and
/// engine configuration.
struct ProbeInputs {
  const SeededGraph* input = nullptr;  // g1 = g2 = input->graph
  fsim::FSimConfig config;
  double propagation_tolerance = 0.0;
  size_t cache_k = 16;
  int readers = 1;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the workload's inputs `repeats` times; returns the median
  /// set-up seconds. The last build stays for the loops.
  virtual double Setup(int repeats, Report* report) = 0;
  /// Runs the closed loop for `seconds`, checking every output. With a
  /// log, the loop records benchmark spans.
  virtual LoopResult Loop(double seconds, SpanLog* log, Report* report) = 0;
  /// Checks that need the whole run (serve_edit: the final scores).
  virtual void Finish(Report* /*report*/) {}
  virtual ProbeInputs Probe() const = 0;
  /// Span logs of threads the workload started (readers).
  virtual std::vector<const SpanLog*> ThreadLogs() const { return {}; }
};

std::unique_ptr<Workload> MakeBatchWorkload(const WorkloadSpec& spec,
                                            const Options& options);
std::unique_ptr<Workload> MakeServeWorkload(const WorkloadSpec& spec,
                                            const Options& options);

/// Measures every per-layer metric on the workload's inputs (one span per
/// call into a layer) and adds them to the report.
void RunLayerProbes(const ProbeInputs& in, const Options& options,
                    SpanLog* log, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
