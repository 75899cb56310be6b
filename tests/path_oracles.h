// The two checks the operator sweeps run on every input, one per path of
// ComputeFSim (core/fsim_engine.h):
//  * ExpectPanelsMatchSparse — a θ = 0 s/b run, which iterates on the tile
//    panels (core/panel_engine.h), against IncrementalFSim's initial solve,
//    which runs the sparse driver over the same pair space: same keys, same
//    iteration count, values ==.
//  * ExpectMatchesNaiveOracle — ComputeFSim against the naive oracle
//    (tests/naive_fsim.h): same pairs, same iteration count, scores within
//    1e-12. Every input a sweep builds is so checked against an independent
//    evaluation of Equation 3, whichever path the config takes.
#ifndef FSIM_TESTS_PATH_ORACLES_H_
#define FSIM_TESTS_PATH_ORACLES_H_

#include <gtest/gtest.h>

#include <cmath>

#include "core/fsim_config.h"
#include "core/fsim_engine.h"
#include "core/incremental.h"
#include "core/panel_engine.h"
#include "graph/graph.h"
#include "tests/naive_fsim.h"

namespace fsim {
namespace testing {

/// The sparse driver's scores for `config`: IncrementalFSim's initial
/// solve, which never runs on the tile panels.
inline FSimScores SparseDriverScores(const Graph& g1, const Graph& g2,
                                     const FSimConfig& config) {
  auto inc = IncrementalFSim::Create(g1, g2, config);
  EXPECT_TRUE(inc.ok()) << inc.status().ToString();
  return inc.ok() ? inc->Snapshot() : FSimScores();
}

/// Asserts that `panels` (a ComputeFSim result on the tile panels) equals
/// `sparse` pair for pair.
inline void ExpectSameScores(const FSimScores& panels,
                             const FSimScores& sparse) {
  ASSERT_EQ(panels.keys(), sparse.keys());
  EXPECT_EQ(panels.stats().iterations, sparse.stats().iterations);
  for (size_t i = 0; i < sparse.values().size(); ++i) {
    ASSERT_EQ(panels.values()[i], sparse.values()[i])
        << "pair " << i << " (u=" << PairFirst(sparse.keys()[i])
        << ", v=" << PairSecond(sparse.keys()[i]) << ")";
  }
}

inline void ExpectPanelsMatchSparse(const Graph& g1, const Graph& g2,
                                    const FSimConfig& config) {
  ASSERT_TRUE(RunsOnTilePanels(config));
  auto panels = ComputeFSim(g1, g2, config);
  ASSERT_TRUE(panels.ok()) << panels.status().ToString();
  EXPECT_FALSE(panels->stats().active_set);
  EXPECT_EQ(panels->NumPairs(), size_t{g1.NumNodes()} * g2.NumNodes());
  ExpectSameScores(*panels, SparseDriverScores(g1, g2, config));
}

inline void ExpectMatchesNaiveOracle(const Graph& g1, const Graph& g2,
                                     const FSimConfig& config) {
  auto scores = ComputeFSim(g1, g2, config);
  ASSERT_TRUE(scores.ok()) << scores.status().ToString();
  const NaiveFSimResult naive = NaiveFSim(g1, g2, config);
  ASSERT_EQ(scores->keys(), naive.keys);
  EXPECT_EQ(scores->stats().iterations, naive.iterations);
  for (size_t i = 0; i < naive.keys.size(); ++i) {
    ASSERT_FALSE(std::isnan(scores->values()[i])) << "pair " << i;
    ASSERT_NEAR(scores->values()[i], naive.values[i], 1e-12)
        << "pair " << i << " (u=" << PairFirst(naive.keys[i])
        << ", v=" << PairSecond(naive.keys[i]) << ")";
  }
}

}  // namespace testing
}  // namespace fsim

#endif  // FSIM_TESTS_PATH_ORACLES_H_
