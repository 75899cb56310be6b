// Thread pool with blocking parallel-for primitives, used to parallelize
// the independent per-pair updates of Algorithm 1 (§3.4). Double buffering
// in the engine makes the bodies race-free.
#ifndef FSIM_COMMON_THREAD_POOL_H_
#define FSIM_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fsim {

/// A pool of worker threads that hands out index chunks from one shared
/// counter.
///
/// ParallelForChunked(n, grain, body) partitions [0, n) into contiguous
/// chunks of `grain` indices (the last chunk may be shorter). The caller
/// and the workers each claim the next chunk with one fetch_add until the
/// range is exhausted, so whoever is free takes the next chunk and a few
/// expensive ones (large dp/bj matchings) cannot leave the others idle
/// behind a static partition.
///
/// The worker id passed to the body is stable for the duration of one call
/// and unique per concurrent executor, which makes per-worker scratch
/// buffers safe. Regions of one pool run one at a time: a thread that
/// calls in while another thread's region runs waits for it, so a pool may
/// be shared by any number of caller threads. A body must not start a
/// region on its own pool.
///
/// With num_threads == 1, or a range of at most one chunk, the body runs
/// inline on the caller (as worker 0), which keeps single-thread benchmarks
/// honest.
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

  /// Runs body(worker, begin, end) over contiguous chunks covering [0, n)
  /// exactly once each; returns when all chunks have completed. grain is the
  /// chunk length (clamped to >= 1). The caller participates as worker 0.
  void ParallelForChunked(size_t n, size_t grain, const ChunkedBody& body);

 private:
  struct Task {
    size_t n = 0;
    size_t grain = 1;
    const ChunkedBody* body = nullptr;
    uint64_t epoch = 0;
  };

  void WorkerLoop(int worker_id);
  /// Claims chunks off next_ and runs them until [0, task.n) is handed out.
  void RunChunks(int worker_id, const Task& task);

  int num_threads_;
  std::vector<std::thread> workers_;

  // Held by the calling thread for a whole region, inline or parallel, so
  // concurrent callers never share task_, next_ or worker 0.
  std::mutex region_mu_;  // guards: the region in flight (one per pool)

  std::mutex mu_;  // guards: task_, pending_workers_, epoch_, shutdown_
  std::condition_variable work_cv_;  // ordering: signals a new task_.epoch
  std::condition_variable done_cv_;  // ordering: signals pending_workers_==0
  Task task_;
  // ordering: relaxed — the chunk dispenser; only atomicity of fetch_add
  // matters, chunk order is irrelevant. Reset under mu_ before a region is
  // published; every worker has checked in before the next reset.
  std::atomic<size_t> next_{0};
  int pending_workers_ = 0;
  uint64_t epoch_ = 0;
  bool shutdown_ = false;
};

}  // namespace fsim

#endif  // FSIM_COMMON_THREAD_POOL_H_
