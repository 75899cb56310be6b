// Crash recovery for the serving layer: durable score snapshots plus the
// WAL tail (serve/wal.h) reassemble the exact pre-crash serving state.
//
// The durability directory interleaves two kinds of files:
//
//   wal-<lsn>.log     edit records (see wal.h)
//   snap-<lsn>.fsnap  a full state snapshot as of LSN <lsn>: both graphs
//                     (binary format, graph/binary_io.h) and the converged
//                     scores, framed with a magic, version and
//                     whole-payload FNV checksum. The score section is
//                     decoded later, against the candidate space of the
//                     config served (see RecoveredState).
//
// Snapshot layout (integers and doubles in host byte order):
//
//   "FSIMSNP1" | u32 version | u64 lsn | blob g1 | blob g2 | blob scores
//   | u64 FNV-1a checksum of everything after the magic
//
// where a blob is a u64 byte length followed by the bytes. Version 2, the
// one written, holds the scores as a binary block in the slot order of
// the pair space (core/pair_space.h), whose keys are implied:
//
//   u64 pair_count | u64 keys_digest | f64 values[pair_count]
//
// keys_digest is HashBytes over the space's key array, so a block written
// under another θ or label similarity does not fit even when its count
// does. Version 1 snapshots, still read, hold core/scores_io.h text.
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
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/fsim_scores.h"
#include "core/pair_space.h"
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

/// A snapshot's score section, undecoded. It stays in the buffer the file
/// was read into, so loading copies it nowhere.
struct ScoreSection {
  uint32_t version = 0;  // the snapshot's format version: 1 text, 2 binary
  std::string file;      // the whole snapshot file
  size_t offset = 0;     // the section's bytes within `file`
  size_t size = 0;

  std::string_view bytes() const {
    return std::string_view(file).substr(offset, size);
  }
};

/// Appends the version-2 score block of `scores` (pair count, key digest,
/// values in slot order) to `out`.
void AppendScoreSection(const FSimScores& scores, std::string* out);

/// Decodes a score section of snapshot `version` into the slots of `space`.
/// Version 1 is core/scores_io.h text (ScoresFromString). Version 2 must
/// hold exactly space->size() values (the count is checked before
/// anything is sized by it), be exactly 16 + 8 * count bytes, carry the
/// space's key digest, and hold only values in [0, 1]. IOError for
/// anything else, an unknown version included.
Result<FSimScores> DecodeScoreSection(uint32_t version,
                                      std::string_view section,
                                      std::shared_ptr<const PairSpace> space);

/// What recovery reassembled from a durability directory.
struct RecoveredState {
  /// Graphs as of `snapshot_lsn` (the caller's base graphs when no valid
  /// snapshot exists).
  Graph g1;
  Graph g2;
  bool have_snapshot = false;
  uint64_t snapshot_lsn = 0;
  /// The snapshot's score section, undecoded (empty without a snapshot).
  /// Its pairs depend on the config served, so the driver fits it to the
  /// candidate space of the recovered graphs (RefreshDriver::
  /// EnableDurability); scores that do not fit are dropped, while the
  /// graphs and snapshot_lsn stay the recovery floor.
  ScoreSection scores;
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
/// `lsn`, returning the bytes written. On return the snapshot survives a
/// crash; on error the previous snapshot set is untouched.
Result<uint64_t> PersistSnapshot(const std::string& dir, uint64_t lsn,
                                 const Graph& g1, const Graph& g2,
                                 const FSimScores& scores);

/// Loads the newest snapshot that validates, skipping corrupt ones.
/// NotFound when no snapshot validates (recovery then starts from the base
/// graphs and replays the whole WAL).
struct LoadedSnapshot {
  uint64_t lsn = 0;
  Graph g1;
  Graph g2;
  ScoreSection scores;   // checksummed, undecoded
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
