#include "core/scores_io.h"

#include <charconv>
#include <cinttypes>
#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace fsim {

std::string ScoresToString(const FSimScores& scores) {
  std::string out = "fsim-scores v1\n";
  out += StrFormat("pairs %zu\n", scores.NumPairs());
  const auto& keys = scores.keys();
  const auto& values = scores.values();
  out.reserve(out.size() + keys.size() * 32);  // ~ a 3-digit-id line
  // Each line is what "%u %u %.17g\n" prints: two ids of at most 10
  // digits and a value of at most 24 characters, plus separators.
  constexpr size_t kIdChars = 10;
  constexpr size_t kValueChars = 24;
  char line[kIdChars + 1 + kIdChars + 1 + kValueChars + 1];
  for (size_t i = 0; i < keys.size(); ++i) {
    char* p = std::to_chars(line, line + kIdChars, PairFirst(keys[i])).ptr;
    *p++ = ' ';
    p = std::to_chars(p, p + kIdChars, PairSecond(keys[i])).ptr;
    *p++ = ' ';
    p = std::to_chars(p, p + kValueChars, values[i],
                      std::chars_format::general, 17)
            .ptr;
    *p++ = '\n';
    out.append(line, static_cast<size_t>(p - line));
  }
  return out;
}

namespace {

/// One "<u> <v> <score>" line: exactly three fields, 32-bit node ids and a
/// number. False for anything else (sscanf would wrap 2^32 + 1 to 1, read
/// -1 as 2^32 - 1 and ignore trailing fields).
bool ParsePairLine(const std::vector<std::string_view>& fields, NodeId* u,
                   NodeId* v, double* score) {
  if (fields.size() != 3) return false;
  const Result<uint64_t> x = ParseUint64(fields[0]);
  const Result<uint64_t> y = ParseUint64(fields[1]);
  const Result<double> value = ParseDouble(fields[2]);
  if (!x.ok() || !y.ok() || !value.ok() || *x > ~0U || *y > ~0U) {
    return false;
  }
  *u = static_cast<NodeId>(*x);
  *v = static_cast<NodeId>(*y);
  *score = *value;
  return true;
}

}  // namespace

Result<FSimScores> ScoresFromString(std::string_view text,
                                    std::shared_ptr<const PairSpace> space) {
  auto lines = Split(text, '\n');
  if (lines.empty() || Trim(lines[0]) != "fsim-scores v1") {
    return Status::IOError("missing 'fsim-scores v1' header");
  }
  if (lines.size() < 2) return Status::IOError("missing pair count");
  const auto count_fields = SplitWhitespace(lines[1]);
  if (count_fields.size() != 2 || count_fields[0] != "pairs") {
    return Status::IOError("malformed pair count line");
  }
  const Result<uint64_t> expected = ParseUint64(count_fields[1]);
  if (!expected.ok()) return Status::IOError("malformed pair count line");
  // Checked before anything is sized by the untrusted count.
  if (*expected != space->size()) {
    return Status::IOError(StrFormat(
        "score file holds %" PRIu64 " pairs, the candidate space %zu",
        *expected, space->size()));
  }

  std::vector<double> values(space->size());
  std::vector<bool> seen(space->size(), false);
  size_t found = 0;
  for (size_t li = 2; li < lines.size(); ++li) {
    const auto fields = SplitWhitespace(lines[li]);
    if (fields.empty()) continue;
    const size_t line_no = li + 1;
    NodeId x = 0;
    NodeId y = 0;
    double score = 0.0;
    if (!ParsePairLine(fields, &x, &y, &score)) {
      return Status::IOError(
          StrFormat("malformed pair at line %zu", line_no));
    }
    // Written so NaN fails the check too.
    if (!(score >= 0.0 && score <= 1.0)) {
      return Status::IOError(
          StrFormat("score out of range at line %zu", line_no));
    }
    const uint32_t slot = space->Find(x, y);
    if (slot == PairSpace::kNotFound) {
      return Status::IOError(StrFormat(
          "pair (%u, %u) at line %zu is outside the candidate space", x, y,
          line_no));
    }
    if (seen[slot]) {
      return Status::IOError(
          StrFormat("duplicate pair (%u, %u) at line %zu", x, y, line_no));
    }
    seen[slot] = true;
    values[slot] = score;
    ++found;
  }
  if (found != *expected) {
    return Status::IOError(StrFormat("expected %" PRIu64 " pairs, found %zu",
                                     *expected, found));
  }
  return FSimScores(std::move(space), std::move(values), FSimStats{});
}

Status SaveScoresToFile(const FSimScores& scores, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << ScoresToString(scores);
  if (!out) return Status::IOError("write failed on " + path);
  return Status::OK();
}

Result<FSimScores> LoadScoresFromFile(const std::string& path,
                                      std::shared_ptr<const PairSpace> space) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ScoresFromString(ss.str(), std::move(space));
}

}  // namespace fsim
