#include "core/scores_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace fsim {

std::string ScoresToString(const FSimScores& scores) {
  std::string out = "fsim-scores v1\n";
  out += StrFormat("pairs %zu\n", scores.NumPairs());
  const auto& keys = scores.keys();
  const auto& values = scores.values();
  for (size_t i = 0; i < keys.size(); ++i) {
    out += StrFormat("%u %u %.17g\n", PairFirst(keys[i]),
                     PairSecond(keys[i]), values[i]);
  }
  return out;
}

Result<FSimScores> ScoresFromString(std::string_view text) {
  auto lines = Split(text, '\n');
  size_t line_no = 0;
  if (lines.empty() || Trim(lines[0]) != "fsim-scores v1") {
    return Status::IOError("missing 'fsim-scores v1' header");
  }
  ++line_no;
  if (lines.size() < 2) return Status::IOError("missing pair count");
  uint64_t expected = 0;
  {
    auto fields = SplitWhitespace(lines[1]);
    if (fields.size() != 2 || fields[0] != "pairs" ||
        std::sscanf(std::string(fields[1]).c_str(), "%" PRIu64, &expected) !=
            1) {
      return Status::IOError("malformed pair count line");
    }
    ++line_no;
  }

  // The declared count is untrusted: reserve no more than the lines left
  // can hold, so a huge count fails the mismatch check instead of the
  // allocation.
  const size_t capacity =
      static_cast<size_t>(std::min<uint64_t>(expected, lines.size() - 2));
  std::vector<uint64_t> keys;
  std::vector<double> values;
  keys.reserve(capacity);
  values.reserve(capacity);
  for (size_t li = 2; li < lines.size(); ++li) {
    std::string_view line = Trim(lines[li]);
    if (line.empty()) continue;
    uint32_t u = 0, v = 0;
    double score = 0.0;
    if (std::sscanf(std::string(line).c_str(), "%u %u %lf", &u, &v, &score) !=
        3) {
      return Status::IOError(StrFormat("malformed pair at line %zu", li + 1));
    }
    // Written so NaN (which sscanf accepts as "nan") fails the check too.
    if (!(score >= 0.0 && score <= 1.0)) {
      return Status::IOError(
          StrFormat("score out of range at line %zu", li + 1));
    }
    keys.push_back(PairKey(u, v));
    values.push_back(score);
  }
  if (keys.size() != expected) {
    return Status::IOError(StrFormat("expected %" PRIu64 " pairs, found %zu",
                                     expected, keys.size()));
  }
  // Re-sort (writers emit sorted data, but be liberal in what we accept).
  std::vector<size_t> order(keys.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return keys[a] < keys[b]; });
  std::vector<uint64_t> sorted_keys(keys.size());
  std::vector<double> sorted_values(keys.size());
  FlatPairMap index(keys.size());
  for (size_t i = 0; i < order.size(); ++i) {
    sorted_keys[i] = keys[order[i]];
    sorted_values[i] = values[order[i]];
    if (!index.Insert(sorted_keys[i], static_cast<uint32_t>(i))) {
      return Status::IOError("duplicate pair in score file");
    }
  }
  return FSimScores(std::move(sorted_keys), std::move(sorted_values),
                    std::move(index), FSimStats{});
}

Status SaveScoresToFile(const FSimScores& scores, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << ScoresToString(scores);
  if (!out) return Status::IOError("write failed on " + path);
  return Status::OK();
}

Status SaveScoresToFileDurable(const FSimScores& scores,
                               const std::string& path) {
  const std::string tmp = path + ".tmp";
  const std::string text = ScoresToString(scores);
  const int fd =
      ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError(StrFormat("cannot open %s: %s", tmp.c_str(),
                                     std::strerror(errno)));
  }
  const char* data = text.data();
  size_t len = text.size();
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved_errno = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      return Status::IOError(StrFormat("write to %s failed: %s", tmp.c_str(),
                                       std::strerror(saved_errno)));
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  // durability: content before rename — the visible name must never point
  // at unsynced blocks.
  if (::fsync(fd) != 0) {
    const int saved_errno = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::IOError(StrFormat("fsync of %s failed: %s", tmp.c_str(),
                                     std::strerror(saved_errno)));
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int saved_errno = errno;
    ::unlink(tmp.c_str());
    return Status::IOError(StrFormat("rename %s -> %s failed: %s",
                                     tmp.c_str(), path.c_str(),
                                     std::strerror(saved_errno)));
  }
  // durability: persist the rename's directory entry so the swap itself
  // survives a crash.
  std::string dir(path);
  const size_t slash = dir.find_last_of('/');
  dir = slash == std::string::npos ? std::string(".") : dir.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd < 0) {
    return Status::IOError(StrFormat("cannot open directory %s: %s",
                                     dir.c_str(), std::strerror(errno)));
  }
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

Result<FSimScores> LoadScoresFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ScoresFromString(ss.str());
}

}  // namespace fsim
