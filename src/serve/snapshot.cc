#include "serve/snapshot.h"

#include <algorithm>

#include "common/logging.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace fsim {

FSimSnapshot::FSimSnapshot(SharedFSimScores scores, size_t cache_k,
                           SnapshotMeta meta)
    : scores_(std::move(scores)), cache_k_(cache_k), meta_(meta) {
  // meta.build_seconds arrives holding the producer's cost of obtaining
  // the frozen scores (e.g. the engine's score-table copy); the cache
  // build below adds its own share so the published figure is the whole
  // snapshot cost.
  Timer cache_timer;
  BuildCache();
  meta_.build_seconds += cache_timer.Seconds();
}

void FSimSnapshot::BuildCache() {
  const PairSpace& space = *scores_->space();
  if (space.size() == 0 || cache_k_ == 0) return;
  // Rows are contiguous slot ranges; each is top-k-selected in place, and
  // rows without pairs get empty [off, off) spans.
  const NodeId rows = static_cast<NodeId>(space.num_rows());
  cache_offsets_.assign(static_cast<size_t>(rows) + 1, 0);
  cache_entries_.reserve(
      std::min(space.size(), static_cast<size_t>(rows) * cache_k_));
  for (NodeId u = 0; u < rows; ++u) {
    scores_->TopKInto(u, cache_k_, &cache_entries_);
    cache_offsets_[u + 1] = static_cast<uint32_t>(cache_entries_.size());
  }
}

std::vector<std::pair<NodeId, double>> FSimSnapshot::TopK(NodeId u,
                                                          size_t k) const {
  auto cached = CachedTopK(u);
  if (k <= cache_k_ || cached.size() < cache_k_) {
    // The cache prefix answers exactly: either k fits in it, or the row is
    // shorter than the cache depth (so the cache holds the whole row).
    auto end = cached.begin() + std::min(k, cached.size());
    return {cached.begin(), end};
  }
  return scores_->TopK(u, k);
}

std::vector<std::pair<NodeId, double>> FSimSnapshot::ThresholdNeighbors(
    NodeId u, double tau) const {
  // If the cache holds the whole row, or its weakest cached entry already
  // falls below tau, the matches are a prefix of the cache — no row scan.
  auto cached = CachedTopK(u);
  if (cached.size() < cache_k_ ||
      (!cached.empty() && cached.back().second < tau)) {
    auto end = std::partition_point(
        cached.begin(), cached.end(),
        [tau](const std::pair<NodeId, double>& e) { return e.second >= tau; });
    return {cached.begin(), end};
  }
  std::vector<std::pair<NodeId, double>> out = scores_->Row(u);
  out.erase(std::remove_if(out.begin(), out.end(),
                           [tau](const std::pair<NodeId, double>& e) {
                             return e.second < tau;
                           }),
            out.end());
  std::sort(out.begin(), out.end(),
            [](const std::pair<NodeId, double>& a,
               const std::pair<NodeId, double>& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  return out;
}

namespace {

// Process-wide store ids; 0 marks a pin slot that pins nothing yet.
std::atomic<uint64_t> next_store_id{0};  // ordering: relaxed id ticket

obs::Counter* PinRefreshes() {
  static obs::Counter* const counter = obs::Registry::Default().GetCounter(
      "fsim_snapshot_pin_refreshes_total",
      "Per-thread snapshot pin re-reads under the publish mutex (about one "
      "per reader thread per publish)");
  return counter;
}

// One reader thread's pin. `guards` counts the thread's open outermost
// ReadGuards, which read through `snapshot`; while nonzero the slot must
// not be replaced.
struct Pin {
  uint64_t store_id = 0;
  uint64_t version = 0;
  SnapshotPtr snapshot;
  uint32_t guards = 0;
};

thread_local Pin tls_pin;

}  // namespace

SnapshotStore::SnapshotStore()
    : id_(next_store_id.fetch_add(1, std::memory_order_relaxed) + 1) {}

const SnapshotPtr* SnapshotStore::PinnedHead() const {
  Pin& pin = tls_pin;
  const uint64_t version = published_version_.load(std::memory_order_acquire);
  if (pin.store_id == id_ && pin.version == version) return &pin.snapshot;
  if (pin.guards > 0) return nullptr;
  SnapshotPtr head;
  {
    std::lock_guard<std::mutex> lock(publish_mu_);
    head = current_;
    pin.version = published_version_.load(std::memory_order_relaxed);
  }
  pin.store_id = id_;
  pin.snapshot.swap(head);  // the old pin is released outside the lock
  PinRefreshes()->Inc();
  return &pin.snapshot;
}

SnapshotPtr SnapshotStore::Acquire() const {
  if (const SnapshotPtr* pinned = PinnedHead()) return *pinned;
  std::lock_guard<std::mutex> lock(publish_mu_);
  return current_;
}

SnapshotStore::ReadGuard::ReadGuard(const SnapshotStore& store) {
  if (tls_pin.guards == 0) {
    snapshot_ = store.PinnedHead()->get();
    ++tls_pin.guards;
    pinned_ = true;
  } else {
    owned_ = store.Acquire();
    snapshot_ = owned_.get();
  }
}

SnapshotStore::ReadGuard::~ReadGuard() {
  if (pinned_) --tls_pin.guards;
}

bool SnapshotStore::Publish(SnapshotPtr snapshot) {
  FSIM_CHECK(snapshot != nullptr) << "Publish of a null snapshot";
  std::unique_lock<std::mutex> lock(publish_mu_);
  const uint64_t version = snapshot->meta().version;
  FSIM_CHECK(version <= next_version_.load())
      << "snapshot version was not obtained from NextVersion";
  if (version <= published_version_.load()) return false;  // stale publish
  current_.swap(snapshot);
  published_version_.store(version, std::memory_order_release);
  publish_count_.fetch_add(1);
  if (version_chain_.size() >= kVersionChainCapacity) {
    version_chain_.erase(version_chain_.begin());
  }
  version_chain_.push_back(version);
#ifdef FSIM_DEBUG_CHECKS
  {
    const Status valid = ValidateChainLocked();
    FSIM_CHECK(valid.ok()) << valid.ToString();
  }
#endif
  lock.unlock();
  // `snapshot` now holds the replaced head; it is released on return,
  // outside the lock, so a reader's re-pin never waits on a free.
  return true;
}

Status SnapshotStore::ValidateChain() const {
  std::lock_guard<std::mutex> lock(publish_mu_);
  return ValidateChainLocked();
}

Status SnapshotStore::ValidateChainLocked() const {
  ValidatorCounters::Bump("SnapshotStore::ValidateChain");
  for (size_t k = 1; k < version_chain_.size(); ++k) {
    if (version_chain_[k] <= version_chain_[k - 1]) {
      return Status::Internal(
          "snapshot chain regresses: version " +
          std::to_string(version_chain_[k]) + " published after " +
          std::to_string(version_chain_[k - 1]));
    }
  }
  const uint64_t published = published_version_.load();
  const uint64_t next = next_version_.load();
  if (published > next) {
    return Status::Internal("published version " + std::to_string(published) +
                            " exceeds the ticket counter " +
                            std::to_string(next));
  }
  if (!version_chain_.empty() && version_chain_.back() != published) {
    return Status::Internal(
        "published version " + std::to_string(published) +
        " is not the newest chain entry " +
        std::to_string(version_chain_.back()));
  }
  const SnapshotPtr head = current_;
  if (publish_count_.load() > 0) {
    // use_count counts the store's reference plus our local copy; below 2
    // the head is either gone or about to be freed under a reader.
    if (head == nullptr || head.use_count() < 2) {
      return Status::Internal("published head is not alive (refcount < 1)");
    }
    if (head->meta().version != published) {
      return Status::Internal(
          "published head carries version " +
          std::to_string(head->meta().version) + ", store says " +
          std::to_string(published));
    }
  } else if (head != nullptr) {
    return Status::Internal("snapshot present before any publish");
  }
  return Status::OK();
}

}  // namespace fsim
