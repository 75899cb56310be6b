// Shared test environment that runs every structural validator after the
// suite finishes (so each tier-1 test run ends with a full invariant audit)
// and asserts, via ValidatorCounters, that each validator executed at least
// once during the run — a validator that silently stops being wired in
// fails the suite instead of rotting.
#include <gtest/gtest.h>

#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "core/fsim_config.h"
#include "core/incremental.h"
#include "core/pair_store.h"
#include "graph/dynamic_graph.h"
#include "graph/graph_builder.h"
#include "label/label_similarity.h"
#include "serve/snapshot.h"
#include "tests/test_graphs.h"

namespace fsim {
namespace {

/// Canonical instances of every validated structure, built fresh so the
/// audit is independent of which tests ran.
void RunAllValidators() {
  GraphBuilder b;
  for (int i = 0; i < 5; ++i) b.AddNode(i % 2 ? "a" : "b");
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  b.AddEdge(3, 4);
  b.AddEdge(4, 0);
  b.AddEdge(0, 2);
  const Graph g = std::move(b).BuildOrDie();
  FSimConfig config;
  LabelSimilarityCache lsim(*g.dict(), config.label_sim);

  DynamicGraph dg(g);
  ASSERT_TRUE(dg.InsertEdge(1, 3).ok());
  ASSERT_TRUE(dg.RemoveEdge(0, 2).ok());
  const Status adjacency = dg.ValidateAdjacency();
  EXPECT_TRUE(adjacency.ok()) << adjacency.ToString();

  auto store = PairStore::Build(g, g, config, lsim);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const Status neighbor_index = store->ValidateNeighborIndex();
  EXPECT_TRUE(neighbor_index.ok()) << neighbor_index.ToString();

  // The incremental engine's store after an edit burst has re-staged
  // spans and rewritten their chunks.
  auto inc = IncrementalFSim::Create(g, g, config);
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();
  std::vector<Status> statuses;
  const std::vector<EdgeEdit> edits = {{1, 0, 3, /*insert=*/true},
                                       {2, 0, 1, /*insert=*/false}};
  ASSERT_TRUE(inc->ApplyEdits(edits, &statuses).ok());
  for (const Status& st : statuses) EXPECT_TRUE(st.ok()) << st.ToString();
  const Status edited = inc->store().ValidateNeighborIndex();
  EXPECT_TRUE(edited.ok()) << edited.ToString();

  SnapshotStore snapshots;
  SharedFSimScores scores = FreezeScores(
      FSimScores(testing::FullPairSpace(1, 1), {1.0}, FSimStats{}));
  for (int round = 0; round < 2; ++round) {
    SnapshotMeta meta;
    meta.version = snapshots.NextVersion();
    ASSERT_TRUE(snapshots.Publish(
        std::make_shared<const FSimSnapshot>(scores, /*cache_k=*/2, meta)));
  }
  const Status chain = snapshots.ValidateChain();
  EXPECT_TRUE(chain.ok()) << chain.ToString();
}

class StructureValidationEnvironment : public ::testing::Environment {
 public:
  void TearDown() override {
    RunAllValidators();
    // Each validator must have run at least once this process — through the
    // audit above at minimum, plus any automatic FSIM_DEBUG_CHECKS hooks.
    for (const char* name :
         {"DynamicGraph::ValidateAdjacency", "PairStore::ValidateNeighborIndex",
          "SnapshotStore::ValidateChain"}) {
      EXPECT_GE(ValidatorCounters::Count(name), 1u)
          << "validator never executed: " << name;
    }
  }
};

// Registered at static-init time; gtest owns and runs it around the suite.
const ::testing::Environment* const kValidationEnv =
    ::testing::AddGlobalTestEnvironment(new StructureValidationEnvironment);

}  // namespace
}  // namespace fsim
