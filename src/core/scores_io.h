// Serialization of FSimScores: persist a converged score map to disk and
// reload it later (downstream applications — alignment, matching — reuse
// score maps across runs; recomputing the fixpoint is the expensive part).
//
// Format: a small text header followed by one "u v score" line per pair.
//   fsim-scores v1
//   pairs <n>
//   <u> <v> <score>
//   ...
//
// A file is read against the pair space of the graphs and config it is
// meant for (PairSpace::Of): it must hold every pair of that space exactly
// once, in any order, and nothing else.
//
// This is the CLI's score file format. Durable serving snapshots hold a
// binary score section instead (serve/recovery.h); they carry this text
// only in version 1.
#ifndef FSIM_CORE_SCORES_IO_H_
#define FSIM_CORE_SCORES_IO_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "core/fsim_scores.h"

namespace fsim {

/// Serializes the score map (pairs and values only; run statistics are not
/// persisted).
std::string ScoresToString(const FSimScores& scores);

/// Parses a serialized score map into the slots of `space`. IOError, naming
/// the line, for malformed input: a header or count line that does not
/// parse, a pair line that is not exactly "<u> <v> <score>" with 32-bit
/// ids and a score in [0, 1], a pair outside the space (named), a
/// duplicate pair, or a pair count different from the space's.
Result<FSimScores> ScoresFromString(std::string_view text,
                                    std::shared_ptr<const PairSpace> space);

/// File round trip.
Status SaveScoresToFile(const FSimScores& scores, const std::string& path);
Result<FSimScores> LoadScoresFromFile(const std::string& path,
                                      std::shared_ptr<const PairSpace> space);

}  // namespace fsim

#endif  // FSIM_CORE_SCORES_IO_H_
