// Crash recovery for the serving layer: durable score snapshots plus the
// WAL tail (serve/wal.h) reassemble the exact pre-crash serving state.
//
// The durability directory interleaves two kinds of files:
//
//   wal-<lsn>.log     edit records (see wal.h)
//   snap-<lsn>.fsnap  a full state snapshot as of LSN <lsn>: both graphs
//                     (binary format, graph/binary_io.h) and the converged
//                     scores (text format, core/scores_io.h), framed with a
//                     magic, version and whole-payload FNV checksum. The
//                     scores are parsed later, against the candidate space
//                     of the config served (see RecoveredState).
//
// Snapshots are written atomically (tmp file + fsync + rename + directory
// fsync), so a crash mid-persist leaves either the old set or the old set
// plus one complete new file — never a half-written visible snapshot.
// Recovery walks snapshots newest-first, discards any that fail their
// checksum, replays the WAL records with lsn > snapshot lsn, and reports
// everything the caller (FSimService::Create) needs to rebuild: graphs at
// the snapshot point, warm-seed scores, the replay tail, and the LSN the
// writer should continue from.
#ifndef FSIM_SERVE_RECOVERY_H_
#define FSIM_SERVE_RECOVERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/fsim_scores.h"
#include "graph/graph.h"
#include "serve/wal.h"

namespace fsim {

/// Durability knobs for the serving layer (off when `dir` is empty).
struct DurabilityOptions {
  /// Directory for WAL segments and snapshots; created if missing.
  std::string dir;
  /// Persist a durable snapshot (and rotate the WAL) once this many edits
  /// have been applied since the last one. 0 disables periodic snapshots
  /// (the WAL alone still makes every acknowledged edit durable).
  uint64_t snapshot_every_edits = 64;
  /// How many snapshots to retain; older ones (and the WAL segments they
  /// fully cover) are deleted after each successful persist.
  size_t keep_snapshots = 2;
};

/// What recovery reassembled from a durability directory.
struct RecoveredState {
  /// Graphs as of `snapshot_lsn` (the caller's base graphs when no valid
  /// snapshot exists).
  Graph g1;
  Graph g2;
  bool have_snapshot = false;
  uint64_t snapshot_lsn = 0;
  /// The snapshot's score section, unparsed (empty without a snapshot).
  /// Its pairs depend on the config served, so the driver fits it to the
  /// candidate space of the recovered graphs (RefreshDriver::
  /// EnableDurability); scores that do not fit are dropped, while the
  /// graphs and snapshot_lsn stay the recovery floor.
  std::string scores_text;
  /// WAL records past the snapshot, ascending — replay these through the
  /// incremental engine to reach the pre-crash state.
  std::vector<EditRecord> tail;
  /// The LSN the resumed WalWriter should continue from.
  uint64_t next_lsn = 1;
  /// Torn bytes truncated from the newest WAL segment (0 on clean runs).
  uint64_t torn_bytes = 0;
  /// Snapshots that failed validation and were skipped (newest-first scan).
  size_t snapshots_discarded = 0;
};

/// Atomically persists a snapshot of both graphs and the scores as of
/// `lsn`. On return the snapshot survives a crash; on error the previous
/// snapshot set is untouched.
Status PersistSnapshot(const std::string& dir, uint64_t lsn, const Graph& g1,
                       const Graph& g2, const FSimScores& scores);

/// Loads the newest snapshot that validates, skipping corrupt ones.
/// NotFound when no snapshot validates (recovery then starts from the base
/// graphs and replays the whole WAL).
struct LoadedSnapshot {
  uint64_t lsn = 0;
  Graph g1;
  Graph g2;
  std::string scores_text;  // core/scores_io.h text, checksummed, unparsed
  size_t discarded = 0;  // corrupt snapshots skipped before this one
};
Result<LoadedSnapshot> LoadLatestSnapshot(const std::string& dir);

/// Full recovery: ensures `dir` exists, loads the latest valid snapshot
/// (falling back to the base graphs), reads the WAL with torn-tail
/// truncation, and splits out the replay tail. The returned state is ready
/// to hand to IncrementalFSim::Create + RefreshDriver replay.
Result<RecoveredState> RecoverServeState(const std::string& dir, Graph base_g1,
                                         Graph base_g2);

/// Deletes all but the newest `keep` snapshots. Returns how many were
/// removed. WAL segments are cleaned separately via
/// RemoveObsoleteWalSegments against the oldest *retained* snapshot's LSN.
Result<size_t> RemoveObsoleteSnapshots(const std::string& dir, size_t keep);

/// The LSN of the oldest retained snapshot (0 when none) — the safe bound
/// for RemoveObsoleteWalSegments.
Result<uint64_t> OldestSnapshotLsn(const std::string& dir);

}  // namespace fsim

#endif  // FSIM_SERVE_RECOVERY_H_
