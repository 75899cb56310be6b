#include "serve/recovery.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstring>
#include <filesystem>

#include "common/failpoint.h"
#include "common/hash.h"
#include "common/string_util.h"
#include "core/scores_io.h"
#include "graph/binary_io.h"
#include "obs/trace.h"

namespace fsim {

namespace {

constexpr char kSnapshotMagic[8] = {'F', 'S', 'I', 'M', 'S', 'N', 'P', '1'};
// Version 1 held the scores as core/scores_io.h text; 2 as a binary block.
constexpr uint32_t kTextScoresVersion = 1;
constexpr uint32_t kSnapshotVersion = 2;
// A version-2 score block's header: pair count and key digest.
constexpr size_t kScoreHeaderBytes = 16;

constexpr char kSnapshotPrefix[] = "snap-";
constexpr char kSnapshotSuffix[] = ".fsnap";

std::string SnapshotPath(const std::string& dir, uint64_t lsn) {
  return StrFormat("%s/%s%020llu%s", dir.c_str(), kSnapshotPrefix,
                   static_cast<unsigned long long>(lsn), kSnapshotSuffix);
}

void AppendU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void AppendBlob(std::string* out, std::string_view blob) {
  AppendU64(out, blob.size());
  out->append(blob);
}

// Snapshot files, (lsn, path) sorted ascending.
Result<std::vector<std::pair<uint64_t, std::string>>> ListSnapshots(
    const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> snapshots;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    return Status::IOError(StrFormat("cannot list durability directory %s: %s",
                                     dir.c_str(), ec.message().c_str()));
  }
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (!StartsWith(name, kSnapshotPrefix) ||
        name.size() <= std::strlen(kSnapshotPrefix) +
                           std::strlen(kSnapshotSuffix) ||
        name.substr(name.size() - std::strlen(kSnapshotSuffix)) !=
            kSnapshotSuffix) {
      continue;
    }
    const std::string_view digits =
        std::string_view(name).substr(std::strlen(kSnapshotPrefix),
                                      name.size() -
                                          std::strlen(kSnapshotPrefix) -
                                          std::strlen(kSnapshotSuffix));
    auto lsn = ParseUint64(digits);
    if (!lsn.ok()) continue;
    snapshots.emplace_back(*lsn, entry.path().string());
  }
  std::sort(snapshots.begin(), snapshots.end());
  return snapshots;
}

uint64_t KeysDigest(const PairSpace& space) {
  return HashBytes(space.keys().data(),
                   space.keys().size() * sizeof(uint64_t));
}

Result<FSimScores> DecodeBinaryScores(std::string_view section,
                                      std::shared_ptr<const PairSpace> space) {
  if (section.size() < kScoreHeaderBytes) {
    return Status::IOError(StrFormat(
        "score section is %zu bytes, shorter than its %zu-byte header",
        section.size(), kScoreHeaderBytes));
  }
  uint64_t count;
  uint64_t digest;
  std::memcpy(&count, section.data(), 8);
  std::memcpy(&digest, section.data() + 8, 8);
  // Checked before anything is sized by the untrusted count; once it equals
  // the space's size, 8 * count cannot overflow.
  if (count != space->size()) {
    return Status::IOError(StrFormat(
        "score section holds %" PRIu64 " pairs, the candidate space %zu",
        count, space->size()));
  }
  const size_t value_bytes = space->size() * sizeof(double);
  if (section.size() - kScoreHeaderBytes != value_bytes) {
    return Status::IOError(StrFormat(
        "score section is %zu bytes, %zu expected for %zu pairs",
        section.size(), kScoreHeaderBytes + value_bytes, space->size()));
  }
  if (digest != KeysDigest(*space)) {
    return Status::IOError(
        "score section was written for other pair keys (key digest "
        "mismatch)");
  }
  std::vector<double> values(space->size());
  std::memcpy(values.data(), section.data() + kScoreHeaderBytes, value_bytes);
  for (size_t slot = 0; slot < values.size(); ++slot) {
    // Written so NaN fails the check too.
    if (!(values[slot] >= 0.0 && values[slot] <= 1.0)) {
      const uint64_t key = space->keys()[slot];
      return Status::IOError(StrFormat(
          "score of pair (%u, %u) is outside [0, 1]", PairFirst(key),
          PairSecond(key)));
    }
  }
  return FSimScores(std::move(space), std::move(values), FSimStats{});
}

Result<LoadedSnapshot> ParseSnapshot(std::string bytes, uint64_t lsn) {
  if (bytes.size() < sizeof(kSnapshotMagic) + 8 ||
      std::memcmp(bytes.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) !=
          0) {
    return Status::IOError("not an fsim snapshot (bad magic)");
  }
  const size_t payload_end = bytes.size() - 8;
  uint64_t stored_checksum;
  std::memcpy(&stored_checksum, bytes.data() + payload_end, 8);
  const uint64_t computed = HashBytes(bytes.data() + sizeof(kSnapshotMagic),
                                      payload_end - sizeof(kSnapshotMagic));
  if (stored_checksum != computed) {
    return Status::IOError("snapshot checksum mismatch (torn or corrupt)");
  }

  const std::string_view view(bytes);
  size_t pos = sizeof(kSnapshotMagic);
  auto read_u32 = [&](uint32_t* v) {
    if (payload_end - pos < 4) return false;
    std::memcpy(v, view.data() + pos, 4);
    pos += 4;
    return true;
  };
  auto read_u64 = [&](uint64_t* v) {
    if (payload_end - pos < 8) return false;
    std::memcpy(v, view.data() + pos, 8);
    pos += 8;
    return true;
  };
  auto read_blob = [&](std::string_view* out) {
    uint64_t len;
    if (!read_u64(&len) || payload_end - pos < len) return false;
    *out = view.substr(pos, len);
    pos += len;
    return true;
  };

  uint32_t version;
  uint64_t stored_lsn;
  std::string_view g1_bytes, g2_bytes, scores;
  if (!read_u32(&version) ||
      (version != kTextScoresVersion && version != kSnapshotVersion)) {
    return Status::IOError("unsupported snapshot version");
  }
  if (!read_u64(&stored_lsn) || stored_lsn != lsn) {
    return Status::IOError("snapshot lsn does not match its filename");
  }
  if (!read_blob(&g1_bytes) || !read_blob(&g2_bytes) || !read_blob(&scores) ||
      pos != payload_end) {
    return Status::IOError("snapshot payload is malformed");
  }

  LoadedSnapshot snap;
  snap.lsn = lsn;
  // Both graphs share one dictionary, as the serving layer loads them.
  FSIM_ASSIGN_OR_RETURN(snap.g1, GraphFromBinary(g1_bytes));
  FSIM_ASSIGN_OR_RETURN(snap.g2, GraphFromBinary(g2_bytes, snap.g1.dict()));
  snap.scores.version = version;
  snap.scores.offset = static_cast<size_t>(scores.data() - view.data());
  snap.scores.size = scores.size();
  snap.scores.file = std::move(bytes);
  return snap;
}

// The whole file, in one read sized by fstat.
Result<std::string> ReadWholeFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError(StrFormat("cannot open %s: %s", path.c_str(),
                                     std::strerror(errno)));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int saved_errno = errno;
    ::close(fd);
    return Status::IOError(StrFormat("cannot stat %s: %s", path.c_str(),
                                     std::strerror(saved_errno)));
  }
  std::string bytes(static_cast<size_t>(st.st_size), '\0');
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::read(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved_errno = errno;
      ::close(fd);
      return Status::IOError(StrFormat("read of %s failed: %s", path.c_str(),
                                       std::strerror(saved_errno)));
    }
    if (n == 0) break;  // shrank since the fstat: the checksum will tell
    done += static_cast<size_t>(n);
  }
  ::close(fd);
  bytes.resize(done);
  return bytes;
}

Status SyncDirectory(const std::string& dir) {
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd < 0) {
    return Status::IOError(StrFormat("cannot open directory %s: %s",
                                     dir.c_str(), std::strerror(errno)));
  }
  // durability: a renamed-in snapshot is only crash-visible once its
  // directory entry is on disk.
  const int rc = ::fsync(dfd);
  const int saved_errno = errno;
  ::close(dfd);
  if (rc != 0) {
    return Status::IOError(StrFormat("fsync of directory %s failed: %s",
                                     dir.c_str(),
                                     std::strerror(saved_errno)));
  }
  return Status::OK();
}

}  // namespace

void AppendScoreSection(const FSimScores& scores, std::string* out) {
  const PairSpace& space = *scores.space();
  AppendU64(out, space.size());
  AppendU64(out, KeysDigest(space));
  out->append(reinterpret_cast<const char*>(scores.values().data()),
              scores.values().size() * sizeof(double));
}

Result<FSimScores> DecodeScoreSection(uint32_t version,
                                      std::string_view section,
                                      std::shared_ptr<const PairSpace> space) {
  switch (version) {
    case kTextScoresVersion:
      return ScoresFromString(section, std::move(space));
    case kSnapshotVersion:
      return DecodeBinaryScores(section, std::move(space));
    default:
      return Status::IOError(
          StrFormat("unsupported snapshot version %u", version));
  }
}

Result<uint64_t> PersistSnapshot(const std::string& dir, uint64_t lsn,
                                 const Graph& g1, const Graph& g2,
                                 const FSimScores& scores) {
  FSIM_FAILPOINT("serve.snapshot.persist");
  const std::string g1_bytes = GraphToBinary(g1);
  const std::string g2_bytes = GraphToBinary(g2);
  const size_t score_bytes =
      kScoreHeaderBytes + scores.values().size() * sizeof(double);
  std::string bytes;
  bytes.reserve(sizeof(kSnapshotMagic) + 4 + 8 + 3 * 8 + g1_bytes.size() +
                g2_bytes.size() + score_bytes + 8);
  bytes.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  AppendU32(&bytes, kSnapshotVersion);
  AppendU64(&bytes, lsn);
  AppendBlob(&bytes, g1_bytes);
  AppendBlob(&bytes, g2_bytes);
  AppendU64(&bytes, score_bytes);
  AppendScoreSection(scores, &bytes);
  AppendU64(&bytes, HashBytes(bytes.data() + sizeof(kSnapshotMagic),
                              bytes.size() - sizeof(kSnapshotMagic)));

  const std::string final_path = SnapshotPath(dir, lsn);
  const std::string tmp_path = final_path + ".tmp";
  const int fd = ::open(tmp_path.c_str(),
                        O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError(StrFormat("cannot open %s: %s", tmp_path.c_str(),
                                     std::strerror(errno)));
  }
  const char* data = bytes.data();
  size_t len = bytes.size();
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved_errno = errno;
      ::close(fd);
      ::unlink(tmp_path.c_str());
      return Status::IOError(StrFormat("write to %s failed: %s",
                                       tmp_path.c_str(),
                                       std::strerror(saved_errno)));
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  // durability: the content must be stable before the rename makes the file
  // visible, or a crash could expose a complete-looking but unsynced
  // snapshot whose blocks never hit the platter.
  if (::fsync(fd) != 0) {
    const int saved_errno = errno;
    ::close(fd);
    ::unlink(tmp_path.c_str());
    return Status::IOError(StrFormat("fsync of %s failed: %s",
                                     tmp_path.c_str(),
                                     std::strerror(saved_errno)));
  }
  ::close(fd);

  Status rename_gate = Status::OK();
#ifdef FSIM_FAILPOINTS
  rename_gate = failpoint::Hit("serve.snapshot.rename");
#endif
  if (!rename_gate.ok()) {
    ::unlink(tmp_path.c_str());
    return rename_gate;
  }
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    const int saved_errno = errno;
    ::unlink(tmp_path.c_str());
    return Status::IOError(StrFormat("rename %s -> %s failed: %s",
                                     tmp_path.c_str(), final_path.c_str(),
                                     std::strerror(saved_errno)));
  }
  // durability: the rename itself must be durable before callers treat the
  // snapshot as the new recovery floor and delete WAL segments behind it.
  FSIM_RETURN_NOT_OK(SyncDirectory(dir));
  return static_cast<uint64_t>(bytes.size());
}

Result<LoadedSnapshot> LoadLatestSnapshot(const std::string& dir) {
  FSIM_TRACE_SPAN("recovery.load_snapshot");
  FSIM_ASSIGN_OR_RETURN(auto snapshots, ListSnapshots(dir));
  size_t discarded = 0;
  for (auto it = snapshots.rbegin(); it != snapshots.rend(); ++it) {
    auto bytes = ReadWholeFile(it->second);
    if (!bytes.ok()) {
      ++discarded;
      continue;
    }
    auto snap = ParseSnapshot(std::move(bytes).ValueOrDie(), it->first);
    if (!snap.ok()) {
      ++discarded;
      continue;
    }
    LoadedSnapshot loaded = std::move(snap).ValueOrDie();
    loaded.discarded = discarded;
    return loaded;
  }
  return Status::NotFound(StrFormat(
      "no valid snapshot in %s (%zu corrupt skipped)", dir.c_str(),
      discarded));
}

Result<RecoveredState> RecoverServeState(const std::string& dir, Graph base_g1,
                                         Graph base_g2) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError(StrFormat("cannot create durability directory "
                                     "%s: %s",
                                     dir.c_str(), ec.message().c_str()));
  }

  RecoveredState state;
  auto snap = LoadLatestSnapshot(dir);
  if (snap.ok()) {
    LoadedSnapshot loaded = std::move(snap).ValueOrDie();
    state.have_snapshot = true;
    state.snapshot_lsn = loaded.lsn;
    state.g1 = std::move(loaded.g1);
    state.g2 = std::move(loaded.g2);
    state.scores = std::move(loaded.scores);
    state.snapshots_discarded = loaded.discarded;
  } else if (snap.status().IsNotFound()) {
    state.g1 = std::move(base_g1);
    state.g2 = std::move(base_g2);
    // NotFound carries the corrupt-skip count only in its message; recount.
    FSIM_ASSIGN_OR_RETURN(auto all, ListSnapshots(dir));
    state.snapshots_discarded = all.size();
  } else {
    return snap.status();
  }

  FSIM_ASSIGN_OR_RETURN(WalTail wal,
                        ReadWal(dir, /*truncate_torn_tail=*/true));
  state.torn_bytes = wal.torn_bytes;
  state.next_lsn = std::max(wal.next_lsn, state.snapshot_lsn + 1);
  state.tail.reserve(wal.records.size());
  for (const EditRecord& rec : wal.records) {
    if (rec.lsn > state.snapshot_lsn) state.tail.push_back(rec);
  }
  return state;
}

Result<size_t> RemoveObsoleteSnapshots(const std::string& dir, size_t keep) {
  if (keep == 0) keep = 1;  // never delete the newest snapshot
  FSIM_ASSIGN_OR_RETURN(auto snapshots, ListSnapshots(dir));
  size_t removed = 0;
  for (size_t i = 0; i + keep < snapshots.size(); ++i) {
    std::error_code ec;
    std::filesystem::remove(snapshots[i].second, ec);
    if (ec) {
      return Status::IOError(StrFormat("cannot remove snapshot %s: %s",
                                       snapshots[i].second.c_str(),
                                       ec.message().c_str()));
    }
    ++removed;
  }
  return removed;
}

Result<uint64_t> OldestSnapshotLsn(const std::string& dir) {
  FSIM_ASSIGN_OR_RETURN(auto snapshots, ListSnapshots(dir));
  return snapshots.empty() ? uint64_t{0} : snapshots.front().first;
}

}  // namespace fsim
