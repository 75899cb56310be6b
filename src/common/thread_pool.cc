#include "common/thread_pool.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fsim {
namespace {

// Region counts by where the region ran (process-wide sums over every
// pool). Handles resolve once — never inside region bodies (fsim-lint
// metrics-hot).
struct RegionMetrics {
  obs::Counter* inline_regions;
  obs::Counter* parallel_regions;

  static const RegionMetrics& Get() {
    static const RegionMetrics metrics = [] {
      obs::Registry& registry = obs::Registry::Default();
      constexpr char kRegions[] = "fsim_scheduler_regions_total";
      constexpr char kRegionsHelp[] =
          "Parallel-for regions by kind (inline on the caller, or parallel "
          "on the pool's workers)";
      RegionMetrics m;
      m.inline_regions =
          registry.GetCounter(kRegions, kRegionsHelp, "kind", "inline");
      m.parallel_regions =
          registry.GetCounter(kRegions, kRegionsHelp, "kind", "parallel");
      return m;
    }();
    return metrics;
  }
};

}  // namespace

ThreadPool::ThreadPool(int num_threads) : num_threads_(num_threads) {
  FSIM_CHECK(num_threads >= 1);
  // Worker 0 is the calling thread; spawn the remaining num_threads-1.
  workers_.reserve(static_cast<size_t>(num_threads - 1));
  for (int t = 1; t < num_threads; ++t) {
    workers_.emplace_back([this, t] { WorkerLoop(t); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::ParallelForChunked(size_t n, size_t grain,
                                    const ChunkedBody& body) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  std::lock_guard<std::mutex> region(region_mu_);
  if (num_threads_ == 1 || n <= grain) {
    body(0, 0, n);
    RegionMetrics::Get().inline_regions->Inc();
    return;
  }
  FSIM_TRACE_SPAN_ARG("pool.region", n);
  {
    std::lock_guard<std::mutex> lock(mu_);
    task_ = Task{n, grain, &body, ++epoch_};
    next_.store(0, std::memory_order_relaxed);
    pending_workers_ = num_threads_ - 1;
  }
  work_cv_.notify_all();

  // The caller acts as worker 0. task_ is immutable until every worker has
  // checked in, so reading it without the lock here is safe.
  RunChunks(0, task_);

  // Wait for every worker to check in, not just for the last chunk: a
  // worker still inside RunChunks would otherwise claim from the next
  // region's reset counter.
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return pending_workers_ == 0; });
  }
  RegionMetrics::Get().parallel_regions->Inc();
}

void ThreadPool::ParallelForSpan(std::span<const uint32_t> indices,
                                 size_t grain, const SpanBody& body) {
  ChunkedBody chunked = [&body, indices](int worker, size_t begin,
                                         size_t end) {
    body(worker, indices.subspan(begin, end - begin));
  };
  ParallelForChunked(indices.size(), grain, chunked);
}

void ThreadPool::RunChunks(int worker_id, const Task& task) {
  const size_t n = task.n;
  const size_t grain = task.grain;
  for (;;) {
    const size_t begin = next_.fetch_add(grain, std::memory_order_relaxed);
    if (begin >= n) return;
    (*task.body)(worker_id, begin, std::min(begin + grain, n));
  }
}

void ThreadPool::WorkerLoop(int worker_id) {
  uint64_t seen_epoch = 0;
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this, seen_epoch] {
        return shutdown_ || task_.epoch > seen_epoch;
      });
      if (shutdown_) return;
      seen_epoch = task_.epoch;
      task = task_;
    }
    RunChunks(worker_id, task);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--pending_workers_ == 0) done_cv_.notify_all();
    }
  }
}

}  // namespace fsim
