// The check for a mapping the dense engine has no path for (injective-row
// dp, injective-sym bj, product): ComputeFSimDense must refuse it up front
// with InvalidArgument pointing to ComputeFSim, and ComputeFSim, its one
// path, must reproduce the naive oracle (tests/naive_fsim.h) on the same
// input — same pairs, same iteration count, scores within 1e-12. The
// operator sweeps run it for those mappings, so every input they build is
// still checked against an independent evaluation of Equation 3.
#ifndef FSIM_TESTS_NO_DENSE_PATH_H_
#define FSIM_TESTS_NO_DENSE_PATH_H_

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/dense_engine.h"
#include "core/fsim_config.h"
#include "core/fsim_engine.h"
#include "graph/graph.h"
#include "tests/naive_fsim.h"

namespace fsim {
namespace testing {

/// True for the mappings ComputeFSimDense evaluates (s and b).
inline bool HasDensePath(MappingKind mapping) {
  return mapping == MappingKind::kMaxPerRow ||
         mapping == MappingKind::kMaxBothSides;
}

inline void ExpectNoDensePath(const Graph& g1, const Graph& g2,
                              const FSimConfig& config) {
  const Status dense = ComputeFSimDense(g1, g2, config).status();
  EXPECT_TRUE(dense.IsInvalidArgument()) << dense.ToString();
  EXPECT_NE(dense.ToString().find("use ComputeFSim"), std::string::npos)
      << dense.ToString();

  auto sparse = ComputeFSim(g1, g2, config);
  ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();
  const NaiveFSimResult naive = NaiveFSim(g1, g2, config);
  ASSERT_EQ(sparse->keys(), naive.keys);
  EXPECT_EQ(sparse->stats().iterations, naive.iterations);
  for (size_t i = 0; i < naive.keys.size(); ++i) {
    ASSERT_FALSE(std::isnan(sparse->values()[i])) << "pair " << i;
    ASSERT_NEAR(sparse->values()[i], naive.values[i], 1e-12)
        << "pair " << i << " (u=" << PairFirst(naive.keys[i])
        << ", v=" << PairSecond(naive.keys[i]) << ")";
  }
}

}  // namespace testing
}  // namespace fsim

#endif  // FSIM_TESTS_NO_DENSE_PATH_H_
