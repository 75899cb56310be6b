// PairSpace, the one key -> slot function: Find and Row against the keys
// under every space shape (θ <= 0, label-class lists of one and several
// labels, upper-bound pruning, rows restricted to a ball), out-of-range
// ids, and the sharing of one immutable space by the incremental engine's
// snapshots and their concurrent readers.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/fsim_config.h"
#include "core/incremental.h"
#include "core/pair_space.h"
#include "core/pair_store.h"
#include "label/label_similarity.h"
#include "serve/snapshot.h"
#include "tests/test_graphs.h"

namespace fsim {
namespace {

constexpr NodeId kMaxId = ~NodeId{0};

/// Every (u, v) over the ids in range plus one past each side and the
/// largest id must Find its key's slot or miss, and Row(u) must be row u's
/// slot range.
void ExpectFindMatchesKeys(const PairSpace& space, size_t n1, size_t n2,
                           const std::string& context) {
  const std::vector<uint64_t>& keys = space.keys();
  std::map<uint64_t, size_t> slot_of;
  for (size_t i = 0; i < keys.size(); ++i) slot_of[keys[i]] = i;
  std::vector<NodeId> us;
  for (NodeId u = 0; u <= n1; ++u) us.push_back(u);
  us.push_back(kMaxId);
  std::vector<NodeId> vs;
  for (NodeId v = 0; v <= n2; ++v) vs.push_back(v);
  vs.push_back(kMaxId);
  for (NodeId u : us) {
    for (NodeId v : vs) {
      const auto it = slot_of.find(PairKey(u, v));
      const uint32_t want =
          it == slot_of.end() ? PairSpace::kNotFound
                              : static_cast<uint32_t>(it->second);
      ASSERT_EQ(space.Find(u, v), want)
          << context << " (" << u << ", " << v << ")";
    }
    const auto [first, last] = space.Row(u);
    const auto lo = slot_of.lower_bound(PairKey(u, 0));
    const auto hi = slot_of.upper_bound(PairKey(u, kMaxId));
    const size_t want_first = lo == slot_of.end() ? keys.size() : lo->second;
    const size_t want_last = hi == slot_of.end() ? keys.size() : hi->second;
    if (want_first == want_last) {
      EXPECT_EQ(first, last) << context << " row " << u;
    } else {
      EXPECT_EQ(first, want_first) << context << " row " << u;
      EXPECT_EQ(last, want_last) << context << " row " << u;
    }
  }
}

TEST(PairSpaceTest, FindAgreesWithKeysUnderEveryShape) {
  const Graph g = testing::MakeDenseRandomGraph(31, 30);
  const LabelSimilarityCache lsim(*g.dict(), LabelSimKind::kEditDistance);
  for (double theta : {0.0, 0.5, 1.0}) {
    for (bool prune : {false, true}) {
      FSimConfig config;
      config.label_sim = LabelSimKind::kEditDistance;
      config.theta = theta;
      config.upper_bound = prune;
      config.alpha = 0.3;
      config.beta = 0.5;
      const std::string context = "theta=" + std::to_string(theta) +
                                  (prune ? " pruned" : "");
      auto store = PairStore::Build(g, g, config, lsim);
      ASSERT_TRUE(store.ok()) << context << ": " << store.status().ToString();
      if (prune) {
        EXPECT_GT(store->info().pruned, 0u) << context;
      }
      ExpectFindMatchesKeys(*store->space(), g.NumNodes(), g.NumNodes(),
                            context);
    }
  }
}

TEST(PairSpaceTest, RestrictedRowsAreEmpty) {
  const Graph g = testing::MakeDenseRandomGraph(32, 20);
  const LabelSimilarityCache lsim(*g.dict(), LabelSimKind::kEditDistance);
  std::vector<bool> rows(g.NumNodes(), false);
  for (NodeId u = 0; u < g.NumNodes(); u += 3) rows[u] = true;
  for (double theta : {0.0, 0.5}) {
    FSimConfig config;
    config.label_sim = LabelSimKind::kEditDistance;
    config.theta = theta;
    auto space = PairSpace::Build(g, g, config, lsim, nullptr, &rows);
    ASSERT_TRUE(space.ok()) << space.status().ToString();
    for (NodeId u = 0; u < g.NumNodes(); ++u) {
      const auto [first, last] = space->Row(u);
      EXPECT_EQ(first == last, !rows[u]) << "theta=" << theta << " row " << u;
    }
    ExpectFindMatchesKeys(*space, g.NumNodes(), g.NumNodes(),
                          "rows theta=" + std::to_string(theta));
  }
}

TEST(PairSpaceTest, IncrementalSnapshotsShareOneSpace) {
  const auto pair = testing::MakeRandomPair(0x5AFE, 10, 10);
  FSimConfig config;
  config.theta = 1.0;
  auto inc = IncrementalFSim::Create(pair.g1, pair.g2, config);
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();
  const FSimScores first = inc->Snapshot();
  const FSimScores second = inc->Snapshot();
  EXPECT_EQ(first.space().get(), second.space().get());
  // Edits keep the labels, so the candidate space does not change.
  const NodeId from = 0;
  NodeId to = 1;
  while (inc->g1().HasEdge(from, to)) ++to;
  ASSERT_TRUE(inc->InsertEdge(1, from, to).ok());
  const FSimScores after_edit = inc->Snapshot();
  EXPECT_EQ(after_edit.space().get(), first.space().get());
}

// Readers answer PAIR and TOPK from published snapshots while a publisher
// repairs edits and publishes Snapshot()s that all share one space (the
// thread-sanitizer leg runs this).
TEST(PairSpaceTest, ConcurrentReadersShareThePublishedSpace) {
  const auto pair = testing::MakeRandomPair(0x5AAD, 16, 16);
  FSimConfig config;
  config.theta = 1.0;
  auto inc = IncrementalFSim::Create(pair.g1, pair.g2, config);
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();
  SnapshotStore store;
  auto publish = [&] {
    SnapshotMeta meta;
    meta.version = store.NextVersion();
    store.Publish(std::make_shared<const FSimSnapshot>(
        FreezeScores(inc->Snapshot()), /*cache_k=*/2, meta));
  };
  publish();
  const PairSpace* space = store.Acquire()->scores().space().get();

  std::atomic<bool> done{false};
  std::atomic<uint64_t> foreign{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      NodeId u = static_cast<NodeId>(r);
      while (!done.load()) {
        const SnapshotPtr snap = store.Acquire();
        if (snap->scores().space().get() != space) foreign.fetch_add(1);
        const NodeId v = (u * 7 + 3) % 17;  // 16 is out of range
        const double score = snap->PairScore(u % 17, v);
        if (!(score >= 0.0 && score <= 1.0)) foreign.fetch_add(1);
        if (snap->TopK(u % 17, 3).size() > 3) foreign.fetch_add(1);
        ++u;
      }
    });
  }
  for (NodeId e = 0; e < 6; ++e) {
    const NodeId from = e % 16;
    const NodeId to = (e * 5 + 1) % 16;
    const Status st = inc->g1().HasEdge(from, to)
                          ? inc->RemoveEdge(1, from, to)
                          : inc->InsertEdge(1, from, to);
    EXPECT_TRUE(st.ok()) << st.ToString();
    publish();
  }
  done.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(foreign.load(), 0u);
}

}  // namespace
}  // namespace fsim
