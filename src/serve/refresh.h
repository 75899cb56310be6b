// Background incremental refresh for the serving layer: a thread-safe edit
// queue feeding an owned IncrementalFSim (core/incremental.h), and a policy
// deciding when the repaired scores are republished as a fresh snapshot.
//
// The driver is the single writer of the serving pipeline. Edits arrive
// through Submit() from any thread (the serve loop, ingestion threads) and
// are applied in drained batches: a burst touching the same edge coalesces
// to its net effect before the O(deg) incremental repair runs, and a
// publish — the snapshot copy plus top-k cache build — happens only when
// the drift policy (edits applied since the last publish, or time behind)
// fires, not per edit. Queries never see intermediate state: readers hold
// the previously published snapshot until the atomic swap.
//
// Fault tolerance (this layer's robustness contract, see docs/serving.md):
//  - Durability: with EnableDurability attached, Submit appends each edit
//    to a WAL (serve/wal.h) and returns only once the record is fsync'd;
//    periodic durable snapshots (serve/recovery.h) bound replay length.
//    A crash at ANY point after Submit returned OK loses nothing.
//  - Overload: the edit queue can be bounded (RefreshPolicy::queue_capacity);
//    a full queue coalesces same-edge submissions last-op-wins and sheds the
//    rest with ResourceExhausted, counted in Stats::edits_shed.
//  - Degradation: Init failures are retried with exponential backoff by the
//    background loop's watchdog instead of killing refresh forever; queries
//    keep answering from the last published snapshot, with staleness
//    (edits/seconds behind) visible in Stats.
//  - Deadlines: Flush and Stop accept budgets and return DeadlineExceeded
//    instead of blocking indefinitely behind a stalled solve.
#ifndef FSIM_SERVE_REFRESH_H_
#define FSIM_SERVE_REFRESH_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/fsim_config.h"
#include "core/incremental.h"
#include "graph/graph.h"
#include "serve/recovery.h"
#include "serve/snapshot.h"
#include "serve/wal.h"

namespace fsim {

/// One queued graph edit (the dynamic counterpart of graph/edits.h: the
/// same edge-level add/remove ops, applied through IncrementalFSim instead
/// of materializing an edited CSR copy).
struct EditOp {
  int graph_index = 1;  // 1 or 2, as in IncrementalFSim::InsertEdge
  NodeId from = 0;
  NodeId to = 0;
  bool insert = true;  // false: remove
  /// WAL sequence number once durably logged (0 when durability is off).
  uint64_t lsn = 0;
  /// obs::MonotonicNanos() at Submit entry (0 for replayed/synthetic ops)
  /// — feeds the queue-wait histogram when the edit is drained for apply.
  uint64_t submit_ns = 0;
};

/// MPSC edit queue with optional bounding: producers admit/commit, the
/// refresh driver drains. With a capacity, a full queue still accepts an
/// edit that coalesces last-op-wins onto a queued edit of the same edge;
/// everything else is shed with ResourceExhausted.
///
/// The two-phase Admit/Commit split exists for WAL ordering: the driver
/// reserves admission BEFORE the durable append, so a shed edit never
/// leaves a ghost record in the log, and a failed append cancels the
/// reservation without touching the queue.
class EditQueue {
 public:
  explicit EditQueue(size_t capacity = 0) : capacity_(capacity) {}

  /// Reserves one admission slot. ResourceExhausted when the queue is full
  /// and the edit cannot coalesce onto a queued one.
  Status Admit(const EditOp& op);

  /// Consumes a reservation: coalesces onto the queued edit of the same
  /// edge (last-op-wins) or appends. Returns whether it coalesced.
  bool CommitAdmitted(const EditOp& op);

  /// Releases a reservation without enqueueing (WAL append failed).
  void CancelAdmitted();

  /// Appends all pending ops to *out in submission order; returns the count.
  size_t Drain(std::vector<EditOp>* out);

  size_t size() const;
  size_t capacity() const { return capacity_; }

  /// Blocks until the queue is non-empty, Wake() is called, or `timeout`
  /// elapses; returns whether the queue is non-empty.
  bool WaitNonEmpty(std::chrono::milliseconds timeout) const;

  /// Wakes a WaitNonEmpty waiter without pushing (shutdown path).
  void Wake() const { cv_.notify_all(); }

 private:
  const size_t capacity_;  // 0 = unbounded
  mutable std::mutex mu_;               // guards: ops_, index_, reserved_
  mutable std::condition_variable cv_;  // ordering: signaled under mu_
  std::vector<EditOp> ops_;
  // PairKey(from, to) -> position in ops_, per graph side — the coalescing
  // index. Cleared on Drain.
  std::unordered_map<uint64_t, size_t> index_[2];
  // Admissions reserved but not yet committed/cancelled. Counted against
  // capacity so concurrent submitters cannot overshoot; an admit that
  // counted on coalescing may still append if a drain ran in between, so
  // occupancy can transiently exceed capacity by the in-flight submit
  // count — bounded and harmless.
  size_t reserved_ = 0;
};

/// When the refresh driver republishes, sheds and retries.
struct RefreshPolicy {
  /// Publish once this many edits have been applied since the last publish
  /// (the drift bound; 1 republishes after every drained batch).
  size_t max_edits_behind = 32;
  /// Also publish when the current snapshot is at least this old and any
  /// edit has been applied since it (the background loop's timer).
  double max_seconds_behind = 2.0;
  /// Top-k cache depth of published snapshots (FSimSnapshot cache_k).
  size_t topk_cache_k = 16;
  /// Background loop poll interval while idle.
  double poll_seconds = 0.05;
  /// Edit queue bound; 0 = unbounded (see EditQueue).
  size_t queue_capacity = 0;
  /// Default Flush() budget; 0 = wait indefinitely (FlushWithin overrides
  /// per call).
  double flush_timeout_seconds = 0.0;
  /// Watchdog backoff after a failed Init solve or refresh round, doubling
  /// up to the max. Queries keep serving the last snapshot throughout.
  double retry_backoff_seconds = 0.05;
  double retry_backoff_max_seconds = 2.0;
};

/// Owns the incremental engine and publishes snapshots into a SnapshotStore.
///
/// Lifecycle: construction is cheap and only captures the inputs; Init()
/// runs the expensive initial fixpoint solve and publishes the first
/// computed snapshot. Start() runs Init (if still needed) plus the
/// drain/apply/publish loop on a background thread, so a warm-started
/// service answers queries from its loaded snapshot while the solve is
/// still running. All apply/publish paths are serialized internally;
/// Submit() is safe from any thread at any time (pre-Init edits queue up).
class RefreshDriver {
 public:
  struct Stats {
    uint64_t edits_submitted = 0;
    uint64_t edits_applied = 0;
    /// Submitted ops that coalesced away (net no-ops: inserting a present
    /// edge, removing an absent one, or burst pairs cancelling out).
    uint64_t edits_coalesced = 0;
    /// Edits rejected by the incremental engine (e.g. endpoint out of
    /// range); the engine state is unchanged by a failed edit.
    uint64_t edits_failed = 0;
    /// Edits shed by the bounded queue (ResourceExhausted from Submit).
    uint64_t edits_shed = 0;
    /// WAL tail records re-applied during Init (crash recovery).
    uint64_t edits_replayed = 0;
    /// WAL appends that failed (the edit was neither acknowledged nor
    /// queued).
    uint64_t wal_failures = 0;
    uint64_t publishes = 0;
    /// Durable snapshots written / persist attempts that failed (the WAL
    /// still covers everything, so a failed persist only lengthens replay).
    uint64_t snapshot_persists = 0;
    uint64_t snapshot_persist_failures = 0;
    /// Bytes of the last durable snapshot written (0 before the first);
    /// also exported as the fsim_snapshot_bytes gauge.
    uint64_t last_snapshot_bytes = 0;
    /// Init attempts retried by the background watchdog.
    uint64_t init_retries = 0;
    /// Drain/apply rounds that failed in the background loop (backoff
    /// applied, edits retained in the queue).
    uint64_t refresh_failures = 0;
    /// Highest WAL LSN applied to the engine / covered by a durable
    /// snapshot / fsync'd in the log (all 0 with durability off).
    uint64_t applied_lsn = 0;
    uint64_t persisted_lsn = 0;
    uint64_t durable_lsn = 0;
    /// Staleness of the published snapshot: edits applied to the engine
    /// since the last publish, and its age in seconds.
    uint64_t edits_behind = 0;
    double seconds_behind = 0.0;
    /// WAL records written but not yet fsync'd (the group-commit window;
    /// 0 with durability off or a quiescent log).
    uint64_t wal_pending = 0;
    /// Age of the published snapshot in seconds (0 before the first
    /// publish). Unlike seconds_behind this is lock-free to read and is
    /// also exported as the fsim_publish_age_seconds gauge.
    double publish_age_seconds = 0.0;
    double last_publish_seconds = 0.0;  // snapshot build cost
    double total_apply_seconds = 0.0;   // incremental repair time
    double total_persist_seconds = 0.0; // durable snapshot write time
  };

  RefreshDriver(Graph g1, Graph g2, FSimConfig config,
                IncrementalOptions inc_options, RefreshPolicy policy,
                SnapshotStore* store);
  ~RefreshDriver();

  RefreshDriver(const RefreshDriver&) = delete;
  RefreshDriver& operator=(const RefreshDriver&) = delete;

  /// Attaches WAL + snapshot durability. Must be called before Init/Start/
  /// Submit. `recovered` comes from RecoverServeState over the same
  /// directory. Its scores, when they fit the candidate space of the
  /// driver's graphs and config, are published at once as a warm_start
  /// snapshot and seed the initial solve; a section that does not fit
  /// (DecodeScoreSection's IOError) is dropped, and the snapshot's graphs
  /// and LSN stay the floor. Its tail is replayed (without re-logging)
  /// during Init, and the WAL writer resumes at its next_lsn. The driver
  /// must have been constructed with the recovered graphs.
  Status EnableDurability(DurabilityOptions options, RecoveredState recovered);

  /// Runs the initial fixpoint solve (warm-seeded under durability),
  /// replays any recovered WAL tail, and publishes the first computed
  /// snapshot. Idempotent once successful; a failed attempt may be retried
  /// (the background loop's watchdog does, with backoff).
  Status Init();

  /// True once Init succeeded (edits can be applied).
  bool ready() const;

  /// OK before/after a successful Init; the most recent solve error while
  /// Init keeps failing.
  Status init_status() const;

  /// Durably logs (when durability is attached) and enqueues an edit.
  /// ResourceExhausted when the bounded queue sheds it; IOError when the
  /// WAL append fails. In both error cases the edit is NOT acknowledged:
  /// it is neither queued nor recoverable, and the caller must report it
  /// rejected. InvalidArgument for a graph_index outside {1, 2}.
  Status Submit(const EditOp& op);

  size_t pending_edits() const { return queue_.size(); }

  /// Drains and applies all queued edits, then publishes if the policy
  /// fires or `force_publish` is set (force publishes only when the
  /// current snapshot is actually behind). Returns the number of edits
  /// applied. Requires ready().
  Result<size_t> DrainApply(bool force_publish);

  /// Blocks until Init has finished (when Start() runs it in the
  /// background), then drains, applies and force-publishes. The
  /// synchronous "make the snapshot current" call behind the protocol's
  /// FLUSH. Bounded by RefreshPolicy::flush_timeout_seconds.
  Status Flush();

  /// Flush with an explicit budget (0 = wait indefinitely). Returns
  /// DeadlineExceeded when Init or the apply lock cannot be reached in
  /// time — the service stays up, answering from the last snapshot.
  Status FlushWithin(std::chrono::milliseconds timeout);

  /// Starts the background thread: Init (retried with backoff on failure),
  /// then the drain/apply/publish loop until Stop().
  void Start();

  /// Stops the background thread, draining and publishing pending edits
  /// first. With a nonzero timeout, returns DeadlineExceeded if the loop
  /// is still draining when it expires (the thread keeps running; call
  /// again — the destructor always waits it out). Safe to call repeatedly.
  Status Stop(std::chrono::milliseconds timeout = std::chrono::milliseconds(0));

  Stats stats() const;

  const RefreshPolicy& policy() const { return policy_; }

  /// True when EnableDurability attached a WAL.
  bool durable() const { return wal_ != nullptr; }

  /// Immutable CSR copies of the engine's current graphs (verification in
  /// tests/benches). Requires ready().
  Graph MaterializeG1() const;
  Graph MaterializeG2() const;

 private:
  /// Init body: solve (warm-seeded), replay, first publish, first durable
  /// snapshot; caller holds apply_mu_.
  Status InitLocked();
  /// DrainApply body; caller holds apply_mu_ and Init must have succeeded.
  Result<size_t> DrainApplyLocked(bool force_publish);
  /// Applies one drained batch, coalesced, as one IncrementalFSim burst;
  /// caller holds apply_mu_.
  size_t ApplyBatchLocked(const std::vector<EditOp>& batch);
  /// Builds and publishes a snapshot of the current scores; caller holds
  /// apply_mu_.
  void PublishLocked();
  /// Writes a durable snapshot at applied_lsn_, rotates the WAL and trims
  /// obsolete files; caller holds apply_mu_ and durability is attached.
  Status PersistSnapshotLocked();
  void RunLoop();

  // Immutable after construction.
  Graph g1_;
  Graph g2_;
  FSimConfig config_;
  IncrementalOptions inc_options_;
  RefreshPolicy policy_;
  SnapshotStore* store_;

  EditQueue queue_;

  // Durability attachments (set once by EnableDurability, before Init).
  DurabilityOptions durability_;
  std::unique_ptr<WalWriter> wal_;
  SharedFSimScores warm_seed_;  // also the published warm snapshot's
  std::vector<EditOp> replay_tail_;
  uint64_t recovered_lsn_ = 0;  // snapshot LSN recovery started from

  // guards: inc_, stats_, edits_since_publish_, applied_lsn_,
  // persisted_lsn_, edits_since_snapshot_, last_publish_time_ — serializes
  // Init / apply / publish / persist (the single-writer side). Timed so
  // FlushWithin can give up instead of blocking behind a stalled solve.
  mutable std::timed_mutex apply_mu_;
  std::unique_ptr<IncrementalFSim> inc_;
  Stats stats_;
  size_t edits_since_publish_ = 0;
  uint64_t edits_since_snapshot_ = 0;
  uint64_t applied_lsn_ = 0;
  uint64_t persisted_lsn_ = 0;
  std::chrono::steady_clock::time_point last_publish_time_;

  // Init rendezvous: Flush (and ready checks) may run while Start()'s
  // thread is still solving. init_done_ is set ONLY on success — a failed
  // attempt records init_status_ and stays retryable.
  mutable std::mutex init_mu_;               // guards: init_done_, init_status_
  mutable std::condition_variable init_cv_;  // ordering: signaled under init_mu_
  bool init_done_ = false;
  Status init_status_;

  // Loop-exit rendezvous for Stop deadlines (std::thread has no timed
  // join; the loop signals here on its way out).
  mutable std::mutex loop_mu_;               // guards: loop_done_
  mutable std::condition_variable loop_cv_;  // ordering: signaled under loop_mu_
  bool loop_done_ = true;

  std::thread thread_;
  std::atomic<bool> stop_{false};            // ordering: relaxed shutdown flag
  // obs::MonotonicNanos() of the last publish (0 before the first). Kept
  // outside apply_mu_ so the publish-age callback gauge and stats() can
  // read it without contending with a running solve.
  std::atomic<uint64_t> last_publish_ns_{0};  // ordering: relaxed telemetry
  std::atomic<uint64_t> submitted_{0};       // ordering: relaxed telemetry
  std::atomic<uint64_t> shed_{0};            // ordering: relaxed telemetry
  std::atomic<uint64_t> queue_coalesced_{0}; // ordering: relaxed telemetry
  std::atomic<uint64_t> wal_failures_{0};    // ordering: relaxed telemetry
  std::atomic<uint64_t> init_retries_{0};    // ordering: relaxed telemetry
  std::atomic<uint64_t> refresh_failures_{0};// ordering: relaxed telemetry

  std::vector<EditOp> drain_scratch_;
  std::vector<EditOp> batch_scratch_;
};

}  // namespace fsim

#endif  // FSIM_SERVE_REFRESH_H_
