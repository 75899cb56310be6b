// Work-stealing thread pool with blocking parallel-for primitives, used to
// parallelize the per-pair updates of Algorithm 1. Double buffering in the
// engine makes the bodies race-free.
#ifndef FSIM_COMMON_THREAD_POOL_H_
#define FSIM_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/status.h"

namespace fsim {

/// A pool of worker threads executing dynamically scheduled index chunks.
///
/// ParallelForChunked(n, grain, body) partitions [0, n) into contiguous
/// chunks of `grain` indices (the last chunk may be shorter). Large regions
/// run on a work-stealing scheduler: each worker owns a contiguous block of
/// chunks in a per-worker deque, pops its own chunks in ascending order
/// (sequential memory walk), and when empty steals a batch of chunks from
/// the far end of a random victim's block, so a few expensive chunks (large
/// matchings in dp/bj mode) cannot serialize the region's tail. Small
/// regions (fewer than a handful of chunks per worker) fall back to the old
/// shared-counter loop, whose setup cost is a single atomic store.
///
/// The worker id passed to the body is stable for the duration of one call
/// and unique per concurrent executor, which makes per-worker scratch
/// buffers safe.
///
/// With num_threads == 1 the body runs inline on the caller (as worker 0),
/// which keeps single-thread benchmarks honest.
class ThreadPool {
 public:
  /// body(worker, begin, end): evaluate indices [begin, end) as worker
  /// `worker` in [0, num_threads).
  using ChunkedBody = std::function<void(int, size_t, size_t)>;

  /// Creates `num_threads` workers (>= 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs body(i) for every i in [0, n) exactly once and returns when all
  /// calls have completed. Convenience wrapper over ParallelForChunked with
  /// an automatic grain (~8 chunks per worker).
  void ParallelFor(size_t n, const std::function<void(size_t)>& body);

  /// Runs body(worker, begin, end) over contiguous chunks covering [0, n)
  /// exactly once each; returns when all chunks have completed. grain is the
  /// chunk length (clamped to >= 1). The caller participates as worker 0.
  void ParallelForChunked(size_t n, size_t grain, const ChunkedBody& body);

  /// body(worker, ids): evaluate the store indices `ids` as worker `worker`.
  using SpanBody = std::function<void(int, std::span<const uint32_t>)>;

  /// Frontier chunking: runs body over contiguous grain-sized slices of an
  /// index array (the active-set drivers' sweep primitive — the frontier is
  /// a sorted list of store indices, so slices keep workers walking the
  /// score and neighbor-ref arrays in ascending order). Scheduling and
  /// worker-id semantics are those of ParallelForChunked.
  void ParallelForSpan(std::span<const uint32_t> indices, size_t grain,
                       const SpanBody& body);

  /// weight(i): relative cost estimate for evaluating index i (e.g. its
  /// neighbor-ref count).
  using FrontierWeight = std::function<float(uint32_t)>;

  /// Priority frontier draining: like ParallelForSpan, but the slices handed
  /// to workers are drawn from a big-items-first reordering of `indices` —
  /// items whose weight is at least 1/16 of the frontier's maximum come
  /// first, each class keeping the original (ascending-index) order (a
  /// linear two-class split instead of a sort). Chunks are dealt
  /// round-robin so every worker starts on heavy chunks and thieves pick up
  /// a victim's lightest remaining work. Coverage/worker-id semantics are
  /// those of ParallelForSpan; the ordering is only a scheduling hint, so
  /// bodies must not rely on it (and must be order-independent anyway, as
  /// with every primitive here). The spans passed to body alias pool-owned
  /// scratch and are invalid after the call returns.
  void ParallelForFrontier(std::span<const uint32_t> indices,
                           const FrontierWeight& weight, size_t grain,
                           const SpanBody& body);

  /// Cumulative scheduler telemetry since construction (relaxed counters;
  /// read between regions for exact values). Between regions the dealt ==
  /// executed exactly-once invariant must hold; stats() FSIM_DCHECKs it and
  /// ValidateScheduler() reports it as a Status.
  struct SchedulerStats {
    uint64_t steal_regions = 0;    // regions run on the deque scheduler
    uint64_t counter_regions = 0;  // regions on the shared-counter fallback
    uint64_t inline_regions = 0;   // regions run inline on the caller
    uint64_t chunks_dealt = 0;     // chunks dealt into deques at region start
    uint64_t chunks_executed = 0;  // chunks run by deque-scheduler workers
    uint64_t chunks_stolen = 0;    // of those, chunks taken from a victim
    uint64_t steal_batches = 0;    // successful steal CASes
    uint64_t steal_retries = 0;    // failed steal CASes + empty scans
  };
  SchedulerStats stats() const;

  /// Structural invariants of the work-stealing runtime, checkable whenever
  /// no region is in flight: every deque's packed [lo, hi) range is
  /// well-formed and drained (lo == hi), and every chunk dealt into a deque
  /// was executed exactly once (chunks_dealt == chunks_executed — a torn
  /// steal CAS or a double-executed batch breaks the equality). Returns
  /// Internal with the offending values otherwise. Bumps
  /// ValidatorCounters "ThreadPool::ValidateScheduler".
  Status ValidateScheduler() const;

 private:
  enum class Mode { kCounter, kSteal };

  struct Task {
    Mode mode = Mode::kCounter;
    size_t n = 0;
    size_t grain = 1;
    const ChunkedBody* body = nullptr;
    uint64_t epoch = 0;
  };

  /// One worker's share of a steal-mode region. The deque holds the half-
  /// open range [lo, hi) of positions k in an affine chunk-id sequence
  /// chunk = chunk_offset + k * chunk_stride, packed into one atomic as
  /// (hi << 32) | lo. The owner CASes lo upward (ascending chunk ids =
  /// sequential memory); thieves CAS hi downward, taking up to half the
  /// remaining positions per steal. Positions only ever leave the deque, so
  /// region termination is "every deque observed empty once".
  struct alignas(64) ChunkDeque {
    // ordering: acq_rel CAS protocol — owner advances lo, thieves lower hi;
    // a successful CAS transfers ownership of the claimed positions.
    std::atomic<uint64_t> range{0};
    uint32_t chunk_offset = 0;
    uint32_t chunk_stride = 1;
  };

  void WorkerLoop(int worker_id);
  /// Publishes the task to the workers, participates as worker 0, and waits
  /// for the region to complete. Steal-mode deques must be dealt first.
  void Dispatch(Mode mode, size_t n, size_t grain, const ChunkedBody& body);
  void RunRegion(int worker_id, const Task& task);
  /// Shared-counter fallback: pulls chunks off next_ until [0, n) is done.
  void RunCounter(int worker_id, const Task& task);
  /// Deque scheduler: drain own deque, then steal until all deques empty.
  void RunSteal(int worker_id, const Task& task);

  int num_threads_;
  std::vector<std::thread> workers_;
  std::vector<ChunkDeque> deques_;

  // Scratch for ParallelForFrontier's priority reordering (one region runs
  // at a time; bodies see spans into frontier_order_).
  std::vector<uint32_t> frontier_order_;
  std::vector<float> frontier_weights_;

  std::mutex mu_;  // guards: task_, pending_workers_, epoch_, shutdown_
  std::condition_variable work_cv_;  // ordering: signals a new task_.epoch
  std::condition_variable done_cv_;  // ordering: signals pending_workers_==0
  Task task_;
  // ordering: relaxed — the shared-counter fallback's chunk dispenser; only
  // atomicity of fetch_add matters, chunk order is irrelevant.
  std::atomic<size_t> next_{0};
  int pending_workers_ = 0;
  uint64_t epoch_ = 0;
  bool shutdown_ = false;

  // ordering: relaxed telemetry counters — read between regions (stats()).
  std::atomic<uint64_t> stat_steal_regions_{0};
  std::atomic<uint64_t> stat_counter_regions_{0};   // ordering: relaxed
  std::atomic<uint64_t> stat_inline_regions_{0};    // ordering: relaxed
  std::atomic<uint64_t> stat_chunks_dealt_{0};      // ordering: relaxed
  std::atomic<uint64_t> stat_chunks_executed_{0};   // ordering: relaxed
  std::atomic<uint64_t> stat_chunks_stolen_{0};     // ordering: relaxed
  std::atomic<uint64_t> stat_steal_batches_{0};     // ordering: relaxed
  std::atomic<uint64_t> stat_steal_retries_{0};     // ordering: relaxed
};

}  // namespace fsim

#endif  // FSIM_COMMON_THREAD_POOL_H_
