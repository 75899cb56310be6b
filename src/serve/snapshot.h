// Versioned, immutable score snapshots — the unit of publication of the
// serving layer (serve/service.h). A snapshot freezes one FSimScores table
// (shared, never copied after freeze), precomputes a per-node top-k cache so
// the hot TopK query never rescans a row, and carries version/provenance
// metadata. SnapshotStore is the publish/read rendezvous: publishing swaps
// the current snapshot under a mutex, and each reader thread keeps a
// per-thread pin of it that it re-reads only after a publish, so a
// steady-state read writes no shared memory. A snapshot stays alive until
// the store has moved past it and every thread that pinned it has re-pinned
// or exited.
#ifndef FSIM_SERVE_SNAPSHOT_H_
#define FSIM_SERVE_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/fsim_scores.h"
#include "graph/graph.h"

namespace fsim {

/// Provenance and freshness metadata of one published snapshot.
struct SnapshotMeta {
  /// Strictly increasing across publishes into one SnapshotStore
  /// (SnapshotStore::NextVersion hands out the numbers).
  uint64_t version = 0;
  /// Total edits reflected in these scores since the serving engine started.
  uint64_t edits_applied = 0;
  /// Whether the producing engine reports full convergence (see
  /// IncrementalFSim::converged()).
  bool converged = true;
  /// True when the scores were warm-started from disk (scores_io) rather
  /// than computed in-process.
  bool warm_start = false;
  /// Wall-clock cost of building this snapshot: the producer's score
  /// copy/load cost (pre-filled by the caller) plus the top-k cache build
  /// (added by the FSimSnapshot constructor).
  double build_seconds = 0.0;
};

/// An immutable, query-ready view of one score version: frozen shared
/// scores plus a per-node top-k cache (the first `cache_k` ranked entries
/// of every row, selected once at build time with bounded-heap selection).
class FSimSnapshot {
 public:
  /// Builds the top-k cache over `scores` (one walk of the pair table's
  /// rows, O(row log k) selection per row).
  FSimSnapshot(SharedFSimScores scores, size_t cache_k, SnapshotMeta meta);

  /// FSimχ(u, v); 0 for pairs outside the maintained candidate set.
  double PairScore(NodeId u, NodeId v) const { return scores_->Score(u, v); }

  bool Contains(NodeId u, NodeId v) const { return scores_->Contains(u, v); }

  /// The cached ranking prefix of row u: min(cache_k, |row u|) entries,
  /// descending score (ties by node id). Empty for nodes without
  /// maintained pairs.
  std::span<const std::pair<NodeId, double>> CachedTopK(NodeId u) const {
    if (static_cast<size_t>(u) + 1 >= cache_offsets_.size()) return {};
    return {cache_entries_.data() + cache_offsets_[u],
            cache_entries_.data() + cache_offsets_[u + 1]};
  }

  /// The k best (v, score) for u. Served from the cache when k <= cache_k
  /// (no row scan); falls back to FSimScores::TopK selection otherwise.
  std::vector<std::pair<NodeId, double>> TopK(NodeId u, size_t k) const;

  /// All (v, score) of row u with score >= tau, descending (ties by id).
  std::vector<std::pair<NodeId, double>> ThresholdNeighbors(NodeId u,
                                                            double tau) const;

  const FSimScores& scores() const { return *scores_; }
  SharedFSimScores shared_scores() const { return scores_; }
  const SnapshotMeta& meta() const { return meta_; }
  size_t cache_k() const { return cache_k_; }

  /// Heap footprint of the top-k cache.
  size_t CacheBytes() const {
    return cache_entries_.capacity() * sizeof(cache_entries_[0]) +
           cache_offsets_.capacity() * sizeof(uint32_t);
  }

 private:
  void BuildCache();

  SharedFSimScores scores_;
  size_t cache_k_;
  // CSR over u: row u's cached entries live in
  // cache_entries_[cache_offsets_[u] .. cache_offsets_[u + 1]).
  std::vector<uint32_t> cache_offsets_;
  std::vector<std::pair<NodeId, double>> cache_entries_;
  SnapshotMeta meta_;
};

using SnapshotPtr = std::shared_ptr<const FSimSnapshot>;

/// The publish/read point between one publisher (the refresh driver) and
/// any number of concurrent readers.
///
/// Pin protocol: every thread has one pin slot {store id, version,
/// SnapshotPtr}. A read acquire-loads published_version_ and, when the slot
/// already holds this store's snapshot of that version, uses it without
/// touching any shared cache line. Otherwise (first read, a publish since
/// the last one, or the slot pins another store) it re-pins: copies the
/// head under publish_mu_ and replaces the slot. A reader therefore blocks
/// on publish_mu_ at most once per publish, behind critical sections that
/// only swap pointers (no I/O, no frees). Store ids come from a
/// process-wide counter, so a store built where a destroyed one lived never
/// matches the old store's pins.
///
/// Retention: a retired snapshot is freed once the store has published
/// past it and every thread that pinned it has re-pinned or exited, so each
/// idle reader thread holds back at most one stale snapshot.
class SnapshotStore {
 public:
  SnapshotStore();

  /// A refcount-free read of the current snapshot for the guard's scope,
  /// through the calling thread's pin. A guard opened while another guard
  /// of the same thread is open does not replace the pin (the outer guard
  /// reads through it) but holds an owning copy instead. Not movable: the
  /// pointer is valid on any thread, but only until the guard closes on the
  /// thread that opened it.
  class ReadGuard {
   public:
    explicit ReadGuard(const SnapshotStore& store);
    ~ReadGuard();
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;

    /// The snapshot, or nullptr before the store's first publish.
    const FSimSnapshot* get() const { return snapshot_; }
    const FSimSnapshot& operator*() const { return *snapshot_; }
    const FSimSnapshot* operator->() const { return snapshot_; }
    explicit operator bool() const { return snapshot_ != nullptr; }

   private:
    const FSimSnapshot* snapshot_ = nullptr;
    bool pinned_ = false;  // reads through the thread's pin (outermost guard)
    SnapshotPtr owned_;    // a nested guard's own reference
  };

  /// Hands out the next version number; builders stamp their SnapshotMeta
  /// with it before constructing the snapshot.
  uint64_t NextVersion() { return next_version_.fetch_add(1) + 1; }

  /// Replaces the current snapshot. Serialized across publishers; snapshot
  /// versions must be fresh NextVersion() values, and a stale publish
  /// (version below the current one, possible only if two publishers race)
  /// is dropped. Returns whether the snapshot became current. The replaced
  /// head is released after publish_mu_ is dropped.
  bool Publish(SnapshotPtr snapshot);

  /// An owning handle on the current snapshot, or nullptr before the first
  /// publish: a copy of the calling thread's pin (re-pinned first when
  /// stale), so it costs one refcount increment on the snapshot. Prefer a
  /// ReadGuard on hot paths.
  SnapshotPtr Acquire() const;

  /// Version of the current snapshot (0 before the first publish).
  uint64_t version() const { return published_version_.load(); }

  size_t publish_count() const { return publish_count_.load(); }

  /// Structural invariants of the publish chain: the recorded version
  /// history is strictly increasing (a regressed or duplicated version
  /// means a publish raced past the staleness gate), the newest recorded
  /// version is the published one, no published version exceeds what
  /// NextVersion handed out, and the published head is alive with refcount
  /// >= 1 (the store's own reference — a zero would mean readers can
  /// acquire a freed snapshot). Runs automatically after every Publish
  /// under FSIM_DEBUG_CHECKS. Bumps ValidatorCounters
  /// "SnapshotStore::ValidateChain".
  Status ValidateChain() const;

 private:
  // check_test.cc corrupts the version chain through this to prove the
  // validator catches a regressed publish history.
  friend struct SnapshotStoreTestAccess;

  /// ValidateChain body; the caller must hold publish_mu_.
  Status ValidateChainLocked() const;

  /// The calling thread's pin slot, re-pinned to this store's head first
  /// when stale. Returns nullptr instead when the slot is stale but an open
  /// ReadGuard of this thread reads through it.
  const SnapshotPtr* PinnedHead() const;

  // Publish order within the guarded section is the chain order.
  static constexpr size_t kVersionChainCapacity = 64;

  // Identifies this store in the per-thread pins; unique per process.
  const uint64_t id_;
  // guards: current_, version_chain_; serializes publishers and re-pins.
  mutable std::mutex publish_mu_;
  SnapshotPtr current_;
  std::atomic<uint64_t> next_version_{0};  // ordering: fetch_add ticket
  // ordering: release store under publish_mu_ after current_ is set;
  // readers acquire-load it to decide whether their pin is current.
  std::atomic<uint64_t> published_version_{0};
  std::atomic<size_t> publish_count_{0};  // ordering: relaxed telemetry
  // The last kVersionChainCapacity published versions, oldest first — the
  // "chain" ValidateChain() audits.
  std::vector<uint64_t> version_chain_;
};

}  // namespace fsim

#endif  // FSIM_SERVE_SNAPSHOT_H_
