#include "common/thread_pool.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fsim {
namespace {

// Registry mirrors of the SchedulerStats counters (metrics are process-
// wide sums over every pool; SchedulerStats stays per-pool for tests and
// the exactly-once validator). Handles resolve once — never inside region
// bodies (fsim-lint metrics-hot).
struct SchedulerMetrics {
  obs::Counter* steal_regions;
  obs::Counter* counter_regions;
  obs::Counter* inline_regions;
  obs::Counter* chunks_dealt;
  obs::Counter* chunks_executed;
  obs::Counter* chunks_stolen;
  obs::Counter* steal_batches;
  obs::Counter* steal_retries;

  static const SchedulerMetrics& Get() {
    static const SchedulerMetrics metrics = [] {
      obs::Registry& registry = obs::Registry::Default();
      constexpr char kRegions[] = "fsim_scheduler_regions_total";
      constexpr char kRegionsHelp[] =
          "Parallel regions by scheduling mode (steal deques, shared "
          "counter, or inline on the caller)";
      constexpr char kChunks[] = "fsim_scheduler_chunks_total";
      constexpr char kChunksHelp[] =
          "Steal-scheduler chunks by disposition (dealt into deques, "
          "executed, taken from a victim)";
      SchedulerMetrics m;
      m.steal_regions =
          registry.GetCounter(kRegions, kRegionsHelp, "kind", "steal");
      m.counter_regions =
          registry.GetCounter(kRegions, kRegionsHelp, "kind", "counter");
      m.inline_regions =
          registry.GetCounter(kRegions, kRegionsHelp, "kind", "inline");
      m.chunks_dealt =
          registry.GetCounter(kChunks, kChunksHelp, "kind", "dealt");
      m.chunks_executed =
          registry.GetCounter(kChunks, kChunksHelp, "kind", "executed");
      m.chunks_stolen =
          registry.GetCounter(kChunks, kChunksHelp, "kind", "stolen");
      m.steal_batches = registry.GetCounter(
          "fsim_scheduler_steal_batches_total",
          "Successful steal CASes (one batch of chunks each)");
      m.steal_retries = registry.GetCounter(
          "fsim_scheduler_steal_retries_total",
          "Failed steal CASes plus empty victim scans");
      return m;
    }();
    return metrics;
  }
};

// Steal batch cap: thieves take min(ceil(remaining / 2), kStealBatchMax)
// positions per CAS. Half-stealing spreads a big block across workers in
// O(log) steals; the cap keeps one steal from hoarding most of a victim's
// tail near the end of a region.
constexpr uint32_t kStealBatchMax = 8;

// Regions with fewer chunks than this per worker are not worth dealing
// deques for; they run on the shared counter instead.
constexpr size_t kMinChunksPerWorker = 4;

// Backoff exponent cap: 2^10 pause iterations (~a few microseconds) between
// rescans once every probe keeps coming back empty-but-unfinished.
constexpr uint32_t kBackoffCap = 10;

inline uint64_t PackRange(uint32_t lo, uint32_t hi) {
  return (static_cast<uint64_t>(hi) << 32) | lo;
}

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

}  // namespace

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(num_threads),
      deques_(static_cast<size_t>(std::max(num_threads, 1))) {
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

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& body) {
  const size_t grain =
      std::max<size_t>(1, n / (8 * static_cast<size_t>(num_threads_)));
  ChunkedBody chunked = [&body](int /*worker*/, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) body(i);
  };
  ParallelForChunked(n, grain, chunked);
}

void ThreadPool::ParallelForChunked(size_t n, size_t grain,
                                    const ChunkedBody& body) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  if (num_threads_ == 1 || n <= grain) {
    body(0, 0, n);
    stat_inline_regions_.fetch_add(1, std::memory_order_relaxed);
    SchedulerMetrics::Get().inline_regions->Inc();
    return;
  }
  const size_t num_chunks = (n + grain - 1) / grain;
  Mode mode = Mode::kCounter;
  if (num_chunks >= kMinChunksPerWorker * static_cast<size_t>(num_threads_) &&
      num_chunks <= UINT32_MAX) {
    // Deal each worker a contiguous block of chunk ids: worker t owns
    // chunks [t*per, (t+1)*per) (plus one of the remainder chunks for the
    // first `rem` workers). Owners walk their block ascending; thieves bite
    // off the block's far end.
    mode = Mode::kSteal;
    const size_t per = num_chunks / static_cast<size_t>(num_threads_);
    const size_t rem = num_chunks % static_cast<size_t>(num_threads_);
    size_t begin = 0;
    for (size_t t = 0; t < static_cast<size_t>(num_threads_); ++t) {
      const size_t len = per + (t < rem ? 1 : 0);
      deques_[t].chunk_offset = static_cast<uint32_t>(begin);
      deques_[t].chunk_stride = 1;
      deques_[t].range.store(PackRange(0, static_cast<uint32_t>(len)),
                             std::memory_order_relaxed);
      begin += len;
    }
    stat_chunks_dealt_.fetch_add(num_chunks, std::memory_order_relaxed);
    SchedulerMetrics::Get().chunks_dealt->Inc(num_chunks);
  }
  Dispatch(mode, n, grain, body);
}

void ThreadPool::ParallelForSpan(std::span<const uint32_t> indices,
                                 size_t grain, const SpanBody& body) {
  ChunkedBody chunked = [&body, indices](int worker, size_t begin,
                                         size_t end) {
    body(worker, indices.subspan(begin, end - begin));
  };
  ParallelForChunked(indices.size(), grain, chunked);
}

void ThreadPool::ParallelForFrontier(std::span<const uint32_t> indices,
                                     const FrontierWeight& weight,
                                     size_t grain, const SpanBody& body) {
  const size_t n = indices.size();
  if (n == 0) return;
  if (grain == 0) grain = 1;
  if (num_threads_ == 1 || n <= grain) {
    body(0, indices);
    stat_inline_regions_.fetch_add(1, std::memory_order_relaxed);
    SchedulerMetrics::Get().inline_regions->Inc();
    return;
  }
  // Two-class big-first split at 1/16 of the maximum weight: heavy items
  // lead so no worker picks up an expensive pair with an empty region
  // behind it.
  // Each class keeps the original order, so within a class workers still
  // walk the underlying arrays roughly ascending.
  frontier_weights_.resize(n);
  float max_weight = 0.0f;
  for (size_t j = 0; j < n; ++j) {
    const float w = weight(indices[j]);
    frontier_weights_[j] = w;
    max_weight = std::max(max_weight, w);
  }
  const float threshold = max_weight / 16.0f;
  frontier_order_.resize(n);
  size_t pos = 0;
  for (size_t j = 0; j < n; ++j) {
    if (frontier_weights_[j] >= threshold) frontier_order_[pos++] = indices[j];
  }
  for (size_t j = 0; j < n; ++j) {
    if (frontier_weights_[j] < threshold) frontier_order_[pos++] = indices[j];
  }

  const uint32_t* order = frontier_order_.data();
  ChunkedBody chunked = [&body, order](int worker, size_t begin, size_t end) {
    body(worker, std::span<const uint32_t>(order + begin, end - begin));
  };
  const size_t num_chunks = (n + grain - 1) / grain;
  Mode mode = Mode::kCounter;  // the counter walks chunks in priority order
  if (num_chunks >= kMinChunksPerWorker * static_cast<size_t>(num_threads_) &&
      num_chunks <= UINT32_MAX) {
    // Round-robin deal in priority order: chunk c belongs to worker
    // c % num_threads, so every worker's deque leads with heavy chunks and
    // a thief steals a victim's lightest remaining ones.
    mode = Mode::kSteal;
    for (size_t t = 0; t < static_cast<size_t>(num_threads_); ++t) {
      const size_t len =
          num_chunks / static_cast<size_t>(num_threads_) +
          (t < num_chunks % static_cast<size_t>(num_threads_) ? 1 : 0);
      deques_[t].chunk_offset = static_cast<uint32_t>(t);
      deques_[t].chunk_stride = static_cast<uint32_t>(num_threads_);
      deques_[t].range.store(PackRange(0, static_cast<uint32_t>(len)),
                             std::memory_order_relaxed);
    }
    stat_chunks_dealt_.fetch_add(num_chunks, std::memory_order_relaxed);
    SchedulerMetrics::Get().chunks_dealt->Inc(num_chunks);
  }
  Dispatch(mode, n, grain, chunked);
}

void ThreadPool::Dispatch(Mode mode, size_t n, size_t grain,
                          const ChunkedBody& body) {
  FSIM_TRACE_SPAN_ARG(
      mode == Mode::kSteal ? "pool.region.steal" : "pool.region.counter", n);
  {
    std::lock_guard<std::mutex> lock(mu_);
    task_.mode = mode;
    task_.n = n;
    task_.grain = grain;
    task_.body = &body;
    next_.store(0, std::memory_order_relaxed);
    ++epoch_;
    task_.epoch = epoch_;
    pending_workers_ = num_threads_ - 1;
  }
  work_cv_.notify_all();

  // The caller acts as worker 0. task_ is immutable until every worker has
  // checked in, so reading it without the lock here is safe.
  RunRegion(0, task_);

  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return pending_workers_ == 0; });
  }
  (mode == Mode::kSteal ? stat_steal_regions_ : stat_counter_regions_)
      .fetch_add(1, std::memory_order_relaxed);
  const SchedulerMetrics& metrics = SchedulerMetrics::Get();
  (mode == Mode::kSteal ? metrics.steal_regions : metrics.counter_regions)
      ->Inc();
}

void ThreadPool::RunRegion(int worker_id, const Task& task) {
  if (task.mode == Mode::kSteal) {
    RunSteal(worker_id, task);
  } else {
    RunCounter(worker_id, task);
  }
}

void ThreadPool::RunCounter(int worker_id, const Task& task) {
  const size_t n = task.n;
  const size_t grain = task.grain;
  for (;;) {
    const size_t begin = next_.fetch_add(grain, std::memory_order_relaxed);
    if (begin >= n) return;
    (*task.body)(worker_id, begin, std::min(begin + grain, n));
  }
}

void ThreadPool::RunSteal(int worker_id, const Task& task) {
  const size_t n = task.n;
  const size_t grain = task.grain;
  uint64_t executed = 0;
  uint64_t stolen = 0;
  uint64_t batches = 0;
  uint64_t retries = 0;

  const auto run_chunk = [&](const ChunkDeque& dq, uint32_t k) {
    const size_t chunk = static_cast<size_t>(dq.chunk_offset) +
                         static_cast<size_t>(k) *
                             static_cast<size_t>(dq.chunk_stride);
    const size_t begin = chunk * grain;
    const size_t end = std::min(begin + grain, n);
    FSIM_TRACE_SPAN_ARG("pool.chunk", end - begin);
    (*task.body)(worker_id, begin, end);
    ++executed;
  };

  // Drain the own deque: CAS lo upward so chunks run in ascending sequence
  // order (contiguous memory for block deals, descending priority for
  // round-robin deals).
  ChunkDeque& own = deques_[worker_id];
  uint64_t r = own.range.load(std::memory_order_relaxed);
  for (;;) {
    const uint32_t lo = static_cast<uint32_t>(r);
    const uint32_t hi = static_cast<uint32_t>(r >> 32);
    if (lo >= hi) break;
    if (own.range.compare_exchange_weak(r, PackRange(lo + 1, hi),
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
      run_chunk(own, lo);
      r = own.range.load(std::memory_order_relaxed);
    }
  }

  // Steal until every deque has been observed empty. Positions only leave
  // deques (nothing is re-enqueued mid-region), so an all-empty scan means
  // every chunk is claimed and will finish within its claimant's loop.
  uint32_t rng = 0x9E3779B9u ^
                 (static_cast<uint32_t>(worker_id) * 2654435761u) ^
                 static_cast<uint32_t>(task.epoch);
  uint32_t backoff = 0;
  while (num_threads_ > 1) {
    bool any_left = false;
    bool found = false;
    rng = rng * 1664525u + 1013904223u;
    const int start =
        static_cast<int>((rng >> 16) % static_cast<uint32_t>(num_threads_));
    for (int probe = 0; probe < num_threads_ && !found; ++probe) {
      int victim = start + probe;
      if (victim >= num_threads_) victim -= num_threads_;
      if (victim == worker_id) continue;
      ChunkDeque& dq = deques_[victim];
      uint64_t vr = dq.range.load(std::memory_order_acquire);
      for (;;) {
        const uint32_t lo = static_cast<uint32_t>(vr);
        const uint32_t hi = static_cast<uint32_t>(vr >> 32);
        if (lo >= hi) break;
        any_left = true;
        const uint32_t take = std::min((hi - lo + 1) / 2, kStealBatchMax);
        if (dq.range.compare_exchange_weak(vr, PackRange(lo, hi - take),
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
          ++batches;
          stolen += take;
          // The thief runs its batch directly; ascending order keeps the
          // victim's sequence semantics within the batch.
          for (uint32_t k = hi - take; k < hi; ++k) run_chunk(dq, k);
          found = true;
          break;
        }
        ++retries;
      }
    }
    if (found) {
      backoff = 0;
      continue;
    }
    if (!any_left) break;
    // Chunks remain but every steal attempt lost its race: back off
    // exponentially before rescanning so near-empty regions don't turn
    // into CAS storms.
    ++retries;
    const uint32_t spins = 1u << std::min(backoff, kBackoffCap);
    for (uint32_t i = 0; i < spins; ++i) CpuRelax();
    if (backoff >= kBackoffCap) std::this_thread::yield();
    backoff = std::min(backoff + 1, kBackoffCap + 2);
  }

  stat_chunks_executed_.fetch_add(executed, std::memory_order_relaxed);
  stat_chunks_stolen_.fetch_add(stolen, std::memory_order_relaxed);
  stat_steal_batches_.fetch_add(batches, std::memory_order_relaxed);
  stat_steal_retries_.fetch_add(retries, std::memory_order_relaxed);
  const SchedulerMetrics& metrics = SchedulerMetrics::Get();
  metrics.chunks_executed->Inc(executed);
  metrics.chunks_stolen->Inc(stolen);
  metrics.steal_batches->Inc(batches);
  metrics.steal_retries->Inc(retries);
}

ThreadPool::SchedulerStats ThreadPool::stats() const {
  SchedulerStats s;
  s.steal_regions = stat_steal_regions_.load(std::memory_order_relaxed);
  s.counter_regions = stat_counter_regions_.load(std::memory_order_relaxed);
  s.inline_regions = stat_inline_regions_.load(std::memory_order_relaxed);
  s.chunks_dealt = stat_chunks_dealt_.load(std::memory_order_relaxed);
  s.chunks_executed = stat_chunks_executed_.load(std::memory_order_relaxed);
  s.chunks_stolen = stat_chunks_stolen_.load(std::memory_order_relaxed);
  s.steal_batches = stat_steal_batches_.load(std::memory_order_relaxed);
  s.steal_retries = stat_steal_retries_.load(std::memory_order_relaxed);
  // Exactly-once: between regions, every chunk dealt into a deque must have
  // been executed by exactly one worker (owner pop or steal batch).
  FSIM_DCHECK(s.chunks_dealt == s.chunks_executed);
  return s;
}

Status ThreadPool::ValidateScheduler() const {
  ValidatorCounters::Bump("ThreadPool::ValidateScheduler");
  for (size_t t = 0; t < deques_.size(); ++t) {
    const uint64_t r = deques_[t].range.load(std::memory_order_acquire);
    const uint32_t lo = static_cast<uint32_t>(r);
    const uint32_t hi = static_cast<uint32_t>(r >> 32);
    if (lo > hi) {
      return Status::Internal("scheduler deque " + std::to_string(t) +
                              " has torn range lo=" + std::to_string(lo) +
                              " > hi=" + std::to_string(hi));
    }
    if (lo != hi) {
      return Status::Internal("scheduler deque " + std::to_string(t) +
                              " not drained between regions: [" +
                              std::to_string(lo) + ", " + std::to_string(hi) +
                              ")");
    }
  }
  const uint64_t dealt = stat_chunks_dealt_.load(std::memory_order_relaxed);
  const uint64_t executed =
      stat_chunks_executed_.load(std::memory_order_relaxed);
  if (dealt != executed) {
    return Status::Internal(
        "scheduler exactly-once violation: " + std::to_string(dealt) +
        " chunks dealt vs " + std::to_string(executed) + " executed");
  }
  return Status::OK();
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
    RunRegion(worker_id, task);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--pending_workers_ == 0) done_cv_.notify_all();
    }
  }
}

}  // namespace fsim
