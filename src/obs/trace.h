// Phase tracing — RAII spans recorded into per-thread ring buffers and
// dumped as Chrome trace_event JSON (chrome://tracing, Perfetto). The
// instrumented phases are the engine iteration structure (init, per-iter
// frontier build / sweep / commit), incremental edit repair, scheduler
// dispatch regions and the serve path; `fsim_cli --trace-out t.json`
// arms tracing around a solve and writes the dump.
//
//   { FSIM_TRACE_SPAN("iterate"); ... }          // unnamed scope span
//   { FSIM_TRACE_SPAN_ARG("iter", iteration); ... }
//
// Disarmed (the default), a span costs one relaxed atomic load and two
// register writes — cheap enough to compile into release builds
// unconditionally; bench_fsim asserts the end-to-end cost stays under 2%
// of the yeast dp iterate. Armed, the span dtor appends one fixed-size
// event to this thread's ring (capacity kTraceRingCapacity, oldest events
// overwritten; no allocation after the ring's first use).
//
// Dumping is meant for quiesced processes (disarm, join workers, then
// dump): the reader only trusts events published before its acquire-load
// of each ring's write index, and a ring being actively overwritten can
// tear events recorded kTraceRingCapacity writes earlier.
#ifndef FSIM_OBS_TRACE_H_
#define FSIM_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace fsim {
namespace obs {

/// Events one thread ring holds before overwriting (16384 × 40 B ≈ 640
/// KiB per recording thread, allocated on that thread's first armed span).
inline constexpr size_t kTraceRingCapacity = 16384;

namespace internal {
/// The global armed flag — read inline by every span constructor.
inline std::atomic<bool> g_trace_armed{false};

/// Appends one completed span to the calling thread's ring.
void RecordSpan(const char* name, uint64_t start_ns, uint64_t dur_ns,
                uint64_t arg, bool has_arg);
}  // namespace internal

/// One recorded span. `name` must be a string literal (the ring stores
/// the pointer, not a copy).
struct TraceEvent {
  const char* name = nullptr;
  uint64_t start_ns = 0;  // relative to the ArmTracing() epoch
  uint64_t dur_ns = 0;
  uint64_t arg = 0;
  bool has_arg = false;
};

/// All events of one recording thread, sorted by start_ns.
struct ThreadTrace {
  int tid = 0;
  std::vector<TraceEvent> events;
};

/// True while spans are being recorded.
inline bool TraceArmed() {
  return internal::g_trace_armed.load(std::memory_order_relaxed);
}

/// Starts recording: clears every ring, resets the timestamp epoch, arms.
void ArmTracing();

/// Stops recording. Spans already in flight still record (they captured
/// the armed decision at construction).
void DisarmTracing();

/// Total events currently held across all rings (post-overwrite), plus
/// how many were overwritten. For tests and the bench overhead guard.
uint64_t TraceEventCount();
uint64_t TraceDroppedCount();

/// Snapshot of every ring, per thread, events sorted by start_ns.
std::vector<ThreadTrace> SnapshotTrace();

/// The snapshot rendered as Chrome trace_event JSON: one complete ("X")
/// event per span, ts/dur in microseconds, sorted by ts within each tid.
std::string RenderChromeTrace();

/// RenderChromeTrace written to `path`.
Status WriteChromeTrace(const std::string& path);

/// RAII span. Construction samples the clock only when armed; the
/// destructor records into this thread's ring. Use through the macros.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) : TraceSpan(name, 0, false) {}
  TraceSpan(const char* name, uint64_t arg) : TraceSpan(name, arg, true) {}
  ~TraceSpan() { End(); }

  /// Records the span now instead of at scope exit (for phases whose
  /// results must escape the scope). Idempotent.
  void End() {
    if (start_ns_ != 0) {
      internal::RecordSpan(name_, start_ns_, MonotonicNanos() - start_ns_,
                           arg_, has_arg_);
      start_ns_ = 0;
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceSpan(const char* name, uint64_t arg, bool has_arg)
      : name_(name),
        // start_ns_ doubles as the armed flag: 0 = disarmed at entry.
        // MonotonicNanos() is never 0 on a running system (steady_clock
        // epoch is boot).
        start_ns_(TraceArmed() ? MonotonicNanos() : 0),
        arg_(arg),
        has_arg_(has_arg) {}

  const char* name_;
  uint64_t start_ns_;
  uint64_t arg_;
  bool has_arg_;
};

}  // namespace obs
}  // namespace fsim

#define FSIM_TRACE_CONCAT2(a, b) a##b
#define FSIM_TRACE_CONCAT(a, b) FSIM_TRACE_CONCAT2(a, b)

/// Scope span named by a string literal.
#define FSIM_TRACE_SPAN(name) \
  ::fsim::obs::TraceSpan FSIM_TRACE_CONCAT(fsim_trace_span_, __LINE__)(name)

/// Scope span with one numeric argument (iteration number, region size).
#define FSIM_TRACE_SPAN_ARG(name, arg)                                     \
  ::fsim::obs::TraceSpan FSIM_TRACE_CONCAT(fsim_trace_span_, __LINE__)(    \
      name, static_cast<uint64_t>(arg))

#endif  // FSIM_OBS_TRACE_H_
