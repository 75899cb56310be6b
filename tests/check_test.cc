// The correctness tooling layer (src/common/check.h, docs/correctness.md):
// FSIM_CHECK / FSIM_DCHECK semantics (including death on violation), the
// ValidatorCounters registry, and — the heart of the suite — proof that each
// structural validator actually catches corruption: every test deliberately
// breaks one invariant through a TestAccess backdoor and asserts the
// validator reports it.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "core/fsim_scores.h"
#include "core/fsim_config.h"
#include "core/pair_store.h"
#include "graph/dynamic_graph.h"
#include "graph/graph_builder.h"
#include "label/label_similarity.h"
#include "serve/snapshot.h"
#include "tests/test_graphs.h"

namespace fsim {

// Friend backdoors used to corrupt internal state; declared in the owning
// headers, defined here so production code cannot reach them.
struct PairStoreTestAccess {
  static std::vector<uint32_t>& Offsets(PairStore& s) { return s.nbr_offsets_; }
  /// Calls f(chunks) with the store's populated list of per-chunk entry
  /// buffers, whichever entry layout it uses.
  template <typename F>
  static void WithChunks(PairStore& s, F&& f) {
    if (s.packed_refs_) {
      f(s.nbr_chunks_packed_);
    } else {
      f(s.nbr_chunks_);
    }
  }
};

struct DynamicGraphTestAccess {
  static std::vector<std::vector<NodeId>>& Out(DynamicGraph& g) {
    return g.out_;
  }
  static std::vector<std::vector<NodeId>>& In(DynamicGraph& g) {
    return g.in_;
  }
  static size_t& NumEdges(DynamicGraph& g) { return g.num_edges_; }
};

struct SnapshotStoreTestAccess {
  static std::vector<uint64_t>& Chain(SnapshotStore& s) {
    return s.version_chain_;
  }
};

namespace {

// ------------------------------------------------------- FSIM_CHECK family --

TEST(CheckDeathTest, FailedCheckAbortsWithConditionAndMessage) {
  EXPECT_DEATH(FSIM_CHECK(1 + 1 == 3) << "math broke: " << 42,
               "FSIM_CHECK failed: 1 \\+ 1 == 3.*math broke: 42");
}

TEST(CheckDeathTest, ComparisonVariantsAbort) {
  const int small = 3;
  const int big = 5;
  EXPECT_DEATH(FSIM_CHECK_EQ(small, big), "FSIM_CHECK failed");
  EXPECT_DEATH(FSIM_CHECK_GT(small, big), "FSIM_CHECK failed");
}

TEST(CheckTest, PassingChecksAreSilent) {
  FSIM_CHECK(true) << "never rendered";
  FSIM_CHECK_EQ(2, 2);
  FSIM_CHECK_LE(2, 3);
  // The message chain must not evaluate on the passing path (it sits on the
  // dead branch of the ternary).
  int evaluations = 0;
  auto count = [&evaluations]() {
    ++evaluations;
    return 0;
  };
  FSIM_CHECK(true) << count();
  EXPECT_EQ(evaluations, 0);
}

TEST(CheckTest, CheckNestsInUnbracedIfElse) {
  // Regression for the -Wdangling-else the old naked-if macro produced: the
  // voidify form must parse as a single statement.
  const bool flag = true;
  if (flag)
    FSIM_CHECK(flag);
  else
    FSIM_CHECK(!flag);
  SUCCEED();
}

TEST(CheckTest, DcheckConditionEvaluationMatchesBuildMode) {
  int evaluations = 0;
  auto observed = [&evaluations]() {
    ++evaluations;
    return true;
  };
  FSIM_DCHECK(observed());
#ifdef FSIM_DEBUG_CHECKS
  EXPECT_EQ(evaluations, 1);
#else
  EXPECT_EQ(evaluations, 0);  // compiled out: condition never runs
#endif
}

#ifdef FSIM_DEBUG_CHECKS
TEST(CheckDeathTest, DcheckAbortsInDebugChecksBuild) {
  EXPECT_DEATH(FSIM_DCHECK(false) << "debug only", "FSIM_CHECK failed");
}
#endif

TEST(ValidatorCountersTest, BumpCountSnapshot) {
  const uint64_t before = ValidatorCounters::Count("check_test.counter");
  ValidatorCounters::Bump("check_test.counter");
  ValidatorCounters::Bump("check_test.counter");
  EXPECT_EQ(ValidatorCounters::Count("check_test.counter"), before + 2);
  bool found = false;
  for (const auto& [name, count] : ValidatorCounters::Snapshot()) {
    if (name == "check_test.counter") {
      found = true;
      EXPECT_EQ(count, before + 2);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(ValidatorCounters::Count("check_test.never_bumped"), 0u);
}

// ------------------------------------------------ DynamicGraph corruption --

DynamicGraph MakeEditGraph() {
  GraphBuilder b;
  for (int i = 0; i < 6; ++i) b.AddNode("x");
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(1, 3);
  b.AddEdge(2, 4);
  b.AddEdge(4, 5);
  b.AddEdge(5, 0);
  return DynamicGraph(std::move(b).BuildOrDie());
}

TEST(ValidateAdjacencyTest, CleanGraphPasses) {
  DynamicGraph g = MakeEditGraph();
  EXPECT_TRUE(g.ValidateAdjacency().ok());
  ASSERT_TRUE(g.InsertEdge(3, 0).ok());
  ASSERT_TRUE(g.RemoveEdge(0, 2).ok());
  EXPECT_TRUE(g.ValidateAdjacency().ok());
}

TEST(ValidateAdjacencyTest, CatchesUnsortedList) {
  DynamicGraph g = MakeEditGraph();
  auto& out0 = DynamicGraphTestAccess::Out(g)[0];
  ASSERT_GE(out0.size(), 2u);
  std::swap(out0[0], out0[1]);
  const Status st = g.ValidateAdjacency();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("strictly ascending"), std::string::npos);
}

TEST(ValidateAdjacencyTest, CatchesMissingMirror) {
  DynamicGraph g = MakeEditGraph();
  // Edge (0, 1) exists; erase its in_-side mirror only.
  auto& in1 = DynamicGraphTestAccess::In(g)[1];
  in1.erase(in1.begin());
  const Status st = g.ValidateAdjacency();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("missing from in"), std::string::npos);
}

TEST(ValidateAdjacencyTest, CatchesEdgeCountDrift) {
  DynamicGraph g = MakeEditGraph();
  ++DynamicGraphTestAccess::NumEdges(g);
  const Status st = g.ValidateAdjacency();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("edge accounting"), std::string::npos);
}

TEST(ValidateAdjacencyTest, CatchesOutOfRangeTarget) {
  DynamicGraph g = MakeEditGraph();
  DynamicGraphTestAccess::Out(g)[0].push_back(
      static_cast<NodeId>(g.NumNodes() + 7));
  EXPECT_FALSE(g.ValidateAdjacency().ok());
}

// --------------------------------------------------- PairStore corruption --

Result<PairStore> BuildSmallStore() {
  const Graph g = fsim::testing::MakeFigure1().data;
  FSimConfig config;  // default budget materializes the neighbor index
  LabelSimilarityCache lsim(*g.dict(), config.label_sim);
  return PairStore::Build(g, g, config, lsim);
}

TEST(ValidateNeighborIndexTest, CleanStorePasses) {
  auto store = BuildSmallStore();
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_TRUE(store->ValidateNeighborIndex().ok());
}

TEST(ValidateNeighborIndexTest, CatchesNonMonotoneOffsets) {
  auto store = BuildSmallStore();
  ASSERT_TRUE(store.ok());
  auto& offsets = PairStoreTestAccess::Offsets(*store);
  ASSERT_GE(offsets.size(), 3u);
  // Tear the CSR: a span whose end precedes its start.
  size_t target = 0;
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] > 0) {
      target = i;
      break;
    }
  }
  ASSERT_GT(target, 0u);
  const uint32_t saved = offsets[target];
  offsets[target] = 0;
  if (saved == offsets.back()) offsets[target] = saved;  // keep the total
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) {
      EXPECT_FALSE(store->ValidateNeighborIndex().ok());
      return;
    }
  }
  // Fallback (all offsets still monotone): shrink the last offset so the
  // last chunk's accounting breaks instead.
  offsets.back() -= 1;
  EXPECT_FALSE(store->ValidateNeighborIndex().ok());
}

TEST(ValidateNeighborIndexTest, CatchesOutOfRangeRef) {
  auto store = BuildSmallStore();
  ASSERT_TRUE(store.ok());
  PairStoreTestAccess::WithChunks(*store, [](auto& chunks) {
    ASSERT_FALSE(chunks.empty());
    ASSERT_FALSE(chunks[0].empty());
    chunks[0][0].ref = 0x7FFFFFFFu;  // untagged, far past the pair count
  });
  const Status st = store->ValidateNeighborIndex();
  ASSERT_FALSE(st.ok());
}

TEST(ValidateNeighborIndexTest, CatchesUnsortedSpan) {
  auto store = BuildSmallStore();
  ASSERT_TRUE(store.ok());
  const auto& offsets = PairStoreTestAccess::Offsets(*store);
  // Find a span with at least two entries and swap them. The small store
  // is one chunk, whose offsets index its buffer directly.
  ASSERT_LE(store->size(), PairStore::kChunkPairs);
  const size_t chunk = 0;
  size_t begin = 0;
  size_t len = 0;
  for (size_t s = 0; s + 1 < offsets.size(); ++s) {
    if (offsets[s + 1] - offsets[s] >= 2) {
      begin = static_cast<size_t>(offsets[s]);
      len = static_cast<size_t>(offsets[s + 1] - offsets[s]);
      break;
    }
  }
  ASSERT_GE(len, 2u) << "test graph too sparse for a 2-entry span";
  PairStoreTestAccess::WithChunks(*store, [&](auto& chunks) {
    std::swap(chunks[chunk][begin], chunks[chunk][begin + 1]);
  });
  const Status st = store->ValidateNeighborIndex();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("sorted"), std::string::npos);
}

TEST(ValidateNeighborIndexTest, CatchesChunkSlack) {
  auto store = BuildSmallStore();
  ASSERT_TRUE(store.ok());
  // One entry more in a chunk buffer than its pairs' offsets account for.
  PairStoreTestAccess::WithChunks(*store, [](auto& chunks) {
    ASSERT_FALSE(chunks.empty());
    ASSERT_FALSE(chunks[0].empty());
    const auto entry = chunks[0].back();
    chunks[0].push_back(entry);
  });
  const Status st = store->ValidateNeighborIndex();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("slack"), std::string::npos);
}

// ------------------------------------------------ SnapshotStore corruption --

SnapshotPtr MakeSnapshot(SnapshotStore& store) {
  FSimScores scores(testing::FullPairSpace(1, 1), {1.0}, FSimStats{});
  SnapshotMeta meta;
  meta.version = store.NextVersion();
  return std::make_shared<const FSimSnapshot>(
      FreezeScores(std::move(scores)), /*cache_k=*/2, meta);
}

TEST(ValidateChainTest, CleanChainPasses) {
  SnapshotStore store;
  EXPECT_TRUE(store.ValidateChain().ok());  // empty store is valid
  EXPECT_TRUE(store.Publish(MakeSnapshot(store)));
  EXPECT_TRUE(store.Publish(MakeSnapshot(store)));
  EXPECT_TRUE(store.ValidateChain().ok());
  EXPECT_EQ(store.version(), 2u);
}

TEST(ValidateChainTest, CatchesRegressedChain) {
  SnapshotStore store;
  EXPECT_TRUE(store.Publish(MakeSnapshot(store)));
  EXPECT_TRUE(store.Publish(MakeSnapshot(store)));
  auto& chain = SnapshotStoreTestAccess::Chain(store);
  ASSERT_EQ(chain.size(), 2u);
  std::swap(chain[0], chain[1]);
  const Status st = store.ValidateChain();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("regresses"), std::string::npos);
}

TEST(ValidateChainTest, CatchesHeadVersionMismatch) {
  SnapshotStore store;
  EXPECT_TRUE(store.Publish(MakeSnapshot(store)));
  auto& chain = SnapshotStoreTestAccess::Chain(store);
  ASSERT_EQ(chain.size(), 1u);
  chain[0] += 5;  // chain claims a version the head does not carry
  EXPECT_FALSE(store.ValidateChain().ok());
}

TEST(ValidateChainTest, StalePublishRejectedAndChainStaysValid) {
  SnapshotStore store;
  SnapshotPtr first = MakeSnapshot(store);   // version 1
  SnapshotPtr second = MakeSnapshot(store);  // version 2
  EXPECT_TRUE(store.Publish(second));
  EXPECT_FALSE(store.Publish(first));  // stale: dropped
  EXPECT_TRUE(store.ValidateChain().ok());
  EXPECT_EQ(store.version(), 2u);
}

}  // namespace
}  // namespace fsim
