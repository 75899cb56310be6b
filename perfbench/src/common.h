// Shared pieces of the end-to-end benchmark (NOTES.md): run options, the
// result report printed as the last JSON line of a run, the
// benchmark-side span tracer, per-call latency recording, and the seeded
// input generators (graphs, edit bursts, read mixes) every workload uses.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/fsim_config.h"
#include "graph/graph.h"
#include "serve/query.h"
#include "serve/refresh.h"
#include "serve/snapshot.h"

namespace perfbench {

using fsim::NodeId;

/// Command-line options of one run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Toy sizes for the smoke tests (every layer runs, in well under a
  /// second of work each).
  bool smoke = false;
  /// Expected digest of the first solve (batch workloads), when given.
  bool has_digest = false;
  uint64_t digest_pairs = 0;
  double digest_sum = 0.0;
  /// Scratch directory for WAL segments, durable snapshots and the trace
  /// dump; must lie inside the checkout.
  std::string work_dir = ".";
};

/// Outcome of one run: the JSON result line plus failure notes.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// One operation attempted (solve, query, submit, flush, init).
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  /// An operation that errored or degraded.
  void OpFailed(uint64_t n = 1) { failed_ += n; }
  /// A wrong output: the run is not correct.
  void Wrong(const std::string& why);
  bool correct() const { return wrong_.empty(); }
  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  std::string Json() const;
  void PrintNotes() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> wrong_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Monotonic nanoseconds (steady clock).
uint64_t NowNs();

/// Peak resident set of this process, MiB (getrusage; no file reads).
double PeakRssMb();

/// Quantile of `values` by linear interpolation between closest ranks
/// (NumPy's default); 0 for an empty input.
double Quantile(std::vector<double> values, double q);

// ----------------------------------------------------------------- tracing --

/// The spans one thread recorded: name, the request they belong to (spans
/// of one request share its id), the enclosing span and start/end times.
/// Not thread-safe; each recording thread owns one.
class SpanLog {
 public:
  struct Record {
    const char* name;  // string literal
    uint64_t request;
    int32_t parent;  // index into records(), -1 for a root span
    uint64_t start_ns;
    uint64_t end_ns;
  };

  SpanLog();
  int32_t Open(const char* name, uint64_t request, int32_t parent);
  void Close(int32_t index);
  const std::vector<Record>& records() const { return records_; }
  uint64_t dropped() const { return dropped_; }

  /// Durations (seconds) of every closed span called `name`.
  std::vector<double> Seconds(const char* name) const;

 private:
  std::vector<Record> records_;
  uint64_t dropped_ = 0;
};

/// RAII span. A null log records nothing (the untraced runs).
class Span {
 public:
  Span(SpanLog* log, const char* name, uint64_t request,
       const Span* parent = nullptr)
      : log_(log),
        index_(log == nullptr
                   ? -1
                   : log->Open(name, request,
                               parent == nullptr ? -1 : parent->index_)) {}
  ~Span() { End(); }
  void End() {
    if (index_ >= 0) log_->Close(index_);
    index_ = -1;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  int32_t index_;
};

/// Prints each layer's span count, total and self time (span time minus
/// the part its child spans cover), summed over all logs.
void PrintSelfTimes(const std::vector<const SpanLog*>& logs);

/// Writes the spans as Chrome trace_event JSON (one tid per log), with
/// timestamps relative to `epoch_ns`.
bool WriteSpanTrace(const std::string& path,
                    const std::vector<const SpanLog*>& logs,
                    uint64_t epoch_ns);

// ------------------------------------------------------- latency samples --

/// Per-call latency samples at 1 ns resolution: a dense histogram up to
/// 64 µs plus the exact values beyond it. Percentiles come from these
/// samples, not from the registry's log2 buckets.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void Add(uint64_t ns) {
    ++count_;
    if (ns < kDenseLimit) {
      ++dense_[ns];
    } else {
      overflow_.push_back(ns);
    }
  }
  void Merge(const LatencyHistogram& other);
  uint64_t count() const { return count_; }
  /// q-quantile in nanoseconds; samples inside one 1 ns bin are spread
  /// evenly across it.
  double QuantileNs(double q) const;

 private:
  static constexpr uint64_t kDenseLimit = 1 << 16;
  std::vector<uint32_t> dense_;
  std::vector<uint64_t> overflow_;
  uint64_t count_ = 0;
};

// ------------------------------------------------------- seeded inputs --

/// A workload's graph: a dataset_registry spec scaled by `scale` (nodes and
/// edges), generated with the spec's own seed, with its node ids permuted
/// by the workload seed. Distinct seeds give isomorphic inputs: node order,
/// pair order, hash placement and tie-breaking change, the amount of work
/// does not. (With the seed in the generator, the same code measured
/// batch_dp solves from 0.43 s to 1.00 s across five seeds, so the spread
/// between runs measured the generator, not the program.)
struct SeededGraph {
  fsim::Graph base;             // as generated
  fsim::Graph graph;            // base with node ids permuted
  std::vector<NodeId> base_to;  // base id -> graph id
};
SeededGraph MakeSeededGraph(const char* name, double scale, uint64_t seed);

/// The engine configuration every workload shares: θ=1, Jaro-Winkler
/// labels, w+ = w- = 0.4.
fsim::FSimConfig BaseConfig(fsim::SimVariant variant, double epsilon,
                            int threads);

/// Edit bursts over a self-similarity pair (g1 = g2 = input.graph at the
/// start). Every edit changes the graph: even bursts remove existing edges
/// and insert absent ones, alternating graph 1 and graph 2; each odd burst
/// undoes the burst before it. The graphs therefore stay within one burst
/// of the generated ones, so the work per burst does not drift with how
/// many bursts a run manages. The edges are drawn on the generated graph
/// and mapped through the seed's permutation, so every seed replays the
/// same edits up to node renaming (per-burst repair cost varies several-
/// fold with the edges drawn; a run sees too few bursts to average that).
class EditStream {
 public:
  static constexpr size_t kBurst = 8;

  explicit EditStream(const SeededGraph& input);
  std::vector<fsim::EditOp> NextBurst();

 private:
  const SeededGraph& input_;
  std::vector<std::pair<NodeId, NodeId>> edges_;  // base ids
  fsim::Rng rng_;
  std::vector<fsim::EditOp> last_;
  uint64_t bursts_ = 0;
};

/// The read mix of the serve workloads, seeded: 14/16 PAIR (3/4 drawn from
/// maintained pairs, 1/4 uniform), 1/16 TOPK k=10, 1/16 THRESH τ=0.8.
std::vector<fsim::Query> MakeReadMix(const fsim::FSimSnapshot& snapshot,
                                     size_t num_nodes, uint64_t seed,
                                     size_t count);

/// What one closed-loop reader saw.
struct ReaderStats {
  LatencyHistogram latency;
  uint64_t attempted = 0;
  uint64_t failed = 0;      // error or degraded answer
  uint64_t checked = 0;     // sampled PAIR answers compared
  uint64_t mismatched = 0;  // ... that disagreed with Score()
  uint64_t unsorted = 0;    // TOPK/THRESH rows not sorted descending
};

/// One closed-loop reader: runs `mix` round-robin through QueryEngine::Run
/// until `stop`, timing every call. With a log, every 64th call is wrapped
/// in a "query.run" span (request id = reader << 40 | call).
void RunReader(const fsim::QueryEngine& engine,
               const fsim::SnapshotStore& store,
               const std::vector<fsim::Query>& mix,
               const std::atomic<bool>& stop, uint64_t reader_id,
               SpanLog* log, ReaderStats* out);

/// Adds a reader's counts and checks to the report.
void AccountReader(const ReaderStats& stats, Report* report);

/// Prints the host fingerprint line: nproc, CPU model, L3 size, the
/// resolved SIMD level and the compiler.
void PrintHostFingerprint();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
