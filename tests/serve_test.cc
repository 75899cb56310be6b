// Tests for the serving layer (src/serve/): snapshot top-k cache
// correctness, publish/acquire semantics, refresh-driver coalescing and
// policy, a readers-vs-publisher stress test (readers must always observe
// a complete, internally consistent snapshot — no torn top-k lists), a
// ServeLoop golden transcript over every request type plus malformed
// input, and end-to-end serve-while-editing convergence against a full
// recompute.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/random.h"
#include "core/fsim_engine.h"
#include "core/incremental.h"
#include "core/scores_io.h"
#include "graph/graph_builder.h"
#include "serve/query.h"
#include "serve/refresh.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "test_graphs.h"

namespace fsim {
namespace {

/// The 5-node two-label graph of the CLI smoke transcripts: small enough
/// for exact expectations, cyclic so every node has in/out neighbors.
Graph MakeServeGraph() {
  GraphBuilder builder;
  builder.AddNode("A");  // 0
  builder.AddNode("A");  // 1
  builder.AddNode("B");  // 2
  builder.AddNode("B");  // 3
  builder.AddNode("A");  // 4
  builder.AddEdge(0, 2);
  builder.AddEdge(1, 2);
  builder.AddEdge(2, 3);
  builder.AddEdge(3, 4);
  builder.AddEdge(4, 0);
  builder.AddEdge(1, 3);
  return std::move(builder).BuildOrDie();
}

FSimConfig ServeConfig() {
  FSimConfig config;
  config.variant = SimVariant::kSimple;
  config.epsilon = 1e-6;
  return config;
}

/// Reference ranking: full row, sorted by (score desc, id asc).
std::vector<std::pair<NodeId, double>> ReferenceTopK(const FSimScores& scores,
                                                     NodeId u, size_t k) {
  auto row = scores.Row(u);
  std::sort(row.begin(), row.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (row.size() > k) row.resize(k);
  return row;
}

TEST(FSimScoresTopKTest, HeapSelectionMatchesFullSort) {
  const Graph g = testing::MakeRandomPair(0xA11CE, 40, 40).g1;
  FSimConfig config = ServeConfig();
  auto scores = ComputeFSimSelf(g, config);
  ASSERT_TRUE(scores.ok());
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (size_t k : {size_t{0}, size_t{1}, size_t{3}, size_t{7},
                     size_t{1000}}) {
      const auto got = scores->TopK(u, k);
      const auto want = ReferenceTopK(*scores, u, k);
      ASSERT_EQ(got.size(), want.size()) << "u=" << u << " k=" << k;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].first, want[i].first) << "u=" << u << " k=" << k;
        EXPECT_EQ(got[i].second, want[i].second) << "u=" << u << " k=" << k;
      }
    }
  }
}

TEST(SnapshotTest, CacheMatchesScoresAndServesQueries) {
  const Graph g = testing::MakeRandomPair(0xBEE, 32, 32).g1;
  auto scores = ComputeFSimSelf(g, ServeConfig());
  ASSERT_TRUE(scores.ok());
  const FSimScores reference = *scores;

  SnapshotMeta meta;
  meta.version = 7;
  const FSimSnapshot snapshot(FreezeScores(std::move(*scores)),
                              /*cache_k=*/4, meta);
  EXPECT_EQ(snapshot.meta().version, 7u);
  EXPECT_GT(snapshot.CacheBytes(), 0u);

  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    // The cache holds exactly the first min(4, |row|) ranked entries.
    const auto want4 = ReferenceTopK(reference, u, 4);
    const auto cached = snapshot.CachedTopK(u);
    ASSERT_EQ(cached.size(), want4.size()) << "u=" << u;
    for (size_t i = 0; i < cached.size(); ++i) {
      EXPECT_EQ(cached[i], want4[i]) << "u=" << u;
    }
    // k <= cache_k serves from the cache; k > cache_k falls back to
    // selection — both must match the reference ranking.
    for (size_t k : {size_t{2}, size_t{4}, size_t{9}}) {
      const auto got = snapshot.TopK(u, k);
      const auto want = ReferenceTopK(reference, u, k);
      ASSERT_EQ(got.size(), want.size()) << "u=" << u << " k=" << k;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], want[i]) << "u=" << u << " k=" << k;
      }
    }
    // ThresholdNeighbors == the >= tau prefix of the full ranking.
    for (double tau : {0.0, 0.3, 0.7, 1.1}) {
      const auto got = snapshot.ThresholdNeighbors(u, tau);
      auto want = ReferenceTopK(reference, u, g.NumNodes());
      want.erase(std::remove_if(
                     want.begin(), want.end(),
                     [tau](const auto& e) { return e.second < tau; }),
                 want.end());
      ASSERT_EQ(got.size(), want.size()) << "u=" << u << " tau=" << tau;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], want[i]) << "u=" << u << " tau=" << tau;
      }
    }
    // Pair queries delegate to the frozen scores.
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      EXPECT_EQ(snapshot.PairScore(u, v), reference.Score(u, v));
    }
  }
}

TEST(SnapshotStoreTest, PublishAcquireVersions) {
  SnapshotStore store;
  EXPECT_EQ(store.Acquire(), nullptr);
  EXPECT_EQ(store.version(), 0u);

  auto make = [](uint64_t version) {
    SnapshotMeta meta;
    meta.version = version;
    return std::make_shared<const FSimSnapshot>(
        FreezeScores(FSimScores()), /*cache_k=*/2, meta);
  };
  const uint64_t v1 = store.NextVersion();
  const uint64_t v2 = store.NextVersion();
  EXPECT_LT(v1, v2);
  EXPECT_TRUE(store.Publish(make(v2)));
  EXPECT_EQ(store.version(), v2);
  // A stale publish (older version) is dropped, not swapped in.
  EXPECT_FALSE(store.Publish(make(v1)));
  EXPECT_EQ(store.version(), v2);
  EXPECT_EQ(store.Acquire()->meta().version, v2);
  EXPECT_EQ(store.publish_count(), 1u);
}

// Readers must never observe a torn snapshot. Every published snapshot is
// internally consistent by construction (all scores equal one
// version-derived constant); a reader seeing mixed values, or a top-k
// cache disagreeing with the score table, caught a torn publish.
TEST(SnapshotStoreTest, ReadersNeverObserveTornSnapshots) {
  constexpr uint32_t kSide = 12;
  constexpr uint64_t kMinReads = 2000;    // validated reader passes required
  constexpr uint64_t kMaxPublishes = 5'000'000;  // anti-hang safety valve
  auto value_of = [](uint64_t version) {
    return static_cast<double>(version % 97) / 96.0;
  };
  const std::shared_ptr<const PairSpace> space =
      testing::FullPairSpace(kSide, kSide);
  auto make_snapshot = [&](uint64_t version) {
    const double value = value_of(version);
    SnapshotMeta meta;
    meta.version = version;
    return std::make_shared<const FSimSnapshot>(
        FreezeScores(FSimScores(
            space, std::vector<double>(kSide * kSide, value), FSimStats{})),
        /*cache_k=*/4, meta);
  };

  SnapshotStore store;
  const QueryEngine engine(&store);
  std::atomic<bool> done{false};
  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> reads{0};

  // Whether `snap` is internally consistent.
  auto consistent = [&](const FSimSnapshot& snap) {
    const double want = value_of(snap.meta().version);
    bool ok = true;
    for (double value : snap.scores().values()) {
      ok = ok && value == want;
    }
    for (uint32_t u = 0; u < kSide; ++u) {
      const auto cached = snap.CachedTopK(u);
      ok = ok && cached.size() == 4;
      for (const auto& [v, score] : cached) {
        ok = ok && score == want && score == snap.PairScore(u, v);
      }
    }
    return ok;
  };
  // The three read paths: an owning Acquire(), a pinned ReadGuard, and
  // QueryEngine::Run (a guard inside), whose TOPK answer must carry the
  // scores of the version it is stamped with.
  auto read_acquire = [&]() -> std::optional<bool> {
    const SnapshotPtr snap = store.Acquire();
    if (snap == nullptr) return std::nullopt;
    return consistent(*snap);
  };
  auto read_guard = [&]() -> std::optional<bool> {
    const SnapshotStore::ReadGuard snap(store);
    if (!snap) return std::nullopt;
    return consistent(*snap);
  };
  auto read_engine = [&, u = uint32_t{0}]() mutable -> std::optional<bool> {
    Query query;
    query.kind = Query::Kind::kTopK;
    query.u = u++ % kSide;
    query.k = kSide;
    const Result<QueryResult> result = engine.Run(query);
    if (!result.ok()) return std::nullopt;
    bool ok = result->entries.size() == kSide;
    for (const auto& entry : result->entries) {
      ok = ok && entry.second == value_of(result->version);
    }
    return ok;
  };

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      std::function<std::optional<bool>()> read = read_acquire;
      if (r == 2) read = read_guard;
      if (r == 3) read = read_engine;
      while (!done.load()) {
        const std::optional<bool> ok = read();
        if (!ok.has_value()) continue;
        if (!*ok) torn.fetch_add(1);
        reads.fetch_add(1);
      }
    });
  }

  // Publish continuously until the readers have validated enough acquired
  // snapshots concurrently with the swaps (the interesting interleaving).
  uint64_t publishes = 0;
  while (reads.load() < kMinReads && publishes < kMaxPublishes) {
    ASSERT_TRUE(store.Publish(make_snapshot(store.NextVersion())));
    ++publishes;
  }
  done.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GE(reads.load(), kMinReads);
  EXPECT_EQ(store.version(), publishes);
}

/// An empty snapshot of `version`, tagged through edits_applied so tests
/// can tell snapshots of different stores apart.
SnapshotPtr MakeTaggedSnapshot(uint64_t version, uint64_t tag) {
  SnapshotMeta meta;
  meta.version = version;
  meta.edits_applied = tag;
  return std::make_shared<const FSimSnapshot>(FreezeScores(FSimScores()),
                                              /*cache_k=*/2, meta);
}

/// Publishes a tagged snapshot into `store`; returns a weak reference.
std::weak_ptr<const FSimSnapshot> PublishTagged(SnapshotStore& store,
                                                uint64_t tag) {
  SnapshotPtr snapshot = MakeTaggedSnapshot(store.NextVersion(), tag);
  std::weak_ptr<const FSimSnapshot> weak = snapshot;
  EXPECT_TRUE(store.Publish(std::move(snapshot)));
  return weak;
}

/// A thread that runs each Do() body to completion on itself, so a test can
/// interleave pins of several reader threads deterministically.
class StepThread {
 public:
  StepThread() : thread_([this] { Loop(); }) {}
  ~StepThread() {
    Do(nullptr);
    thread_.join();
  }

  /// Runs `step` on this thread and waits for it; nullptr ends the thread.
  void Do(std::function<void()> step) {
    std::unique_lock<std::mutex> lock(mu_);
    step_ = std::move(step);
    pending_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return !pending_; });
  }

 private:
  void Loop() {
    for (bool more = true; more;) {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return pending_; });
      more = step_ != nullptr;
      if (more) step_();
      pending_ = false;
      cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::function<void()> step_;
  bool pending_ = false;
  std::thread thread_;
};

uint64_t PinRefreshes() {
  uint64_t total = 0;
  for (const auto& [label, value] :
       obs::Registry::Default().CounterFamilySnapshot(
           "fsim_snapshot_pin_refreshes_total")) {
    total += value;
  }
  return total;
}

TEST(SnapshotPinTest, RetiredSnapshotFreedOnceEveryReaderRepins) {
  SnapshotStore store;
  const QueryEngine engine(&store);
  const auto run = [&engine] {
    const Result<QueryResult> result = engine.Run(Query{});
    ASSERT_TRUE(result.ok());
  };
  const std::weak_ptr<const FSimSnapshot> v1 = PublishTagged(store, 1);
  StepThread a;
  StepThread b;
  a.Do(run);
  b.Do([&store] {
    const SnapshotStore::ReadGuard guard(store);
    ASSERT_TRUE(guard);
  });

  // The store moved on, but both idle readers still pin version 1.
  const std::weak_ptr<const FSimSnapshot> v2 = PublishTagged(store, 2);
  EXPECT_FALSE(v1.expired());
  a.Do(run);
  EXPECT_FALSE(v1.expired());  // b still pins it
  b.Do(run);
  EXPECT_TRUE(v1.expired());
  EXPECT_FALSE(v2.expired());
}

TEST(SnapshotPinTest, ReaderThreadExitReleasesItsPin) {
  SnapshotStore store;
  const std::weak_ptr<const FSimSnapshot> v1 = PublishTagged(store, 1);
  {
    StepThread reader;
    reader.Do([&store] { EXPECT_NE(store.Acquire(), nullptr); });
    PublishTagged(store, 2);
    EXPECT_FALSE(v1.expired());
  }  // the reader thread exits here, still pinning version 1
  EXPECT_TRUE(v1.expired());
}

// The outer guard reads through the thread's pin; a nested guard opened
// after a publish must not replace it (ASan catches a use-after-free).
TEST(SnapshotPinTest, NestedGuardAcrossPublishKeepsOuterValid) {
  SnapshotStore store;
  const std::weak_ptr<const FSimSnapshot> v1 = PublishTagged(store, 1);
  StepThread reader;
  reader.Do([&] {
    const SnapshotStore::ReadGuard outer(store);
    ASSERT_TRUE(outer);
    EXPECT_EQ(outer->meta().edits_applied, 1u);
    PublishTagged(store, 2);
    {
      const SnapshotStore::ReadGuard inner(store);
      ASSERT_TRUE(inner);
      EXPECT_EQ(inner->meta().edits_applied, 2u);
      EXPECT_EQ(store.Acquire()->meta().edits_applied, 2u);
    }
    PublishTagged(store, 3);
    EXPECT_FALSE(v1.expired());
    EXPECT_EQ(outer->meta().edits_applied, 1u);
    EXPECT_EQ(outer->scores().NumPairs(), 0u);
  });
  // With the outer guard closed, the next read re-pins and lets go of v1.
  EXPECT_FALSE(v1.expired());
  reader.Do([&store] {
    const SnapshotStore::ReadGuard guard(store);
    EXPECT_EQ(guard->meta().edits_applied, 3u);
  });
  EXPECT_TRUE(v1.expired());
}

TEST(SnapshotPinTest, OneThreadAlternatingStoresReadsEachStoresSnapshot) {
  SnapshotStore a;
  SnapshotStore b;
  PublishTagged(a, 100);
  PublishTagged(b, 200);  // the same version number as a's snapshot
  StepThread reader;
  reader.Do([&] {
    for (int i = 0; i < 4; ++i) {
      {
        const SnapshotStore::ReadGuard guard(a);
        EXPECT_EQ(guard->meta().edits_applied, 100u);
        const SnapshotStore::ReadGuard nested(b);
        EXPECT_EQ(nested->meta().edits_applied, 200u);
      }
      const SnapshotStore::ReadGuard guard(b);
      EXPECT_EQ(guard->meta().edits_applied, 200u);
      EXPECT_EQ(a.Acquire()->meta().edits_applied, 100u);
    }
  });
}

TEST(SnapshotPinTest, NewStoreNeverServesADestroyedStoresPin) {
  std::optional<SnapshotStore> store;
  store.emplace();
  PublishTagged(*store, 1);
  StepThread reader;
  reader.Do([&] {
    const SnapshotStore::ReadGuard guard(*store);
    EXPECT_EQ(guard->meta().edits_applied, 1u);
  });
  // Same address and, once published, the same version number as the pin:
  // only the store id tells them apart.
  store.emplace();
  PublishTagged(*store, 2);
  reader.Do([&] {
    const SnapshotStore::ReadGuard guard(*store);
    ASSERT_TRUE(guard);
    EXPECT_EQ(guard->meta().version, 1u);
    EXPECT_EQ(guard->meta().edits_applied, 2u);
  });
  store.emplace();
  reader.Do([&] {
    const SnapshotStore::ReadGuard guard(*store);
    EXPECT_FALSE(guard);
    EXPECT_EQ(store->Acquire(), nullptr);
  });
}

// Re-pins (the slow path under the publish mutex) are counted; reads of an
// already-pinned version are not.
TEST(SnapshotPinTest, CountsRepinsOnlyAfterPublishes) {
  SnapshotStore store;
  const QueryEngine engine(&store);
  PublishTagged(store, 1);
  StepThread reader;
  const auto read_many = [&] {
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(engine.Run(Query{}).ok());
      const SnapshotStore::ReadGuard guard(store);
    }
  };
  const uint64_t before = PinRefreshes();
  reader.Do(read_many);
  EXPECT_EQ(PinRefreshes(), before + 1);
  reader.Do(read_many);
  EXPECT_EQ(PinRefreshes(), before + 1);
  PublishTagged(store, 2);
  reader.Do(read_many);
  EXPECT_EQ(PinRefreshes(), before + 2);
}

TEST(RefreshDriverTest, CoalescesBurstsAndHonorsPublishPolicy) {
  const Graph g = MakeServeGraph();
  SnapshotStore store;
  RefreshPolicy policy;
  policy.max_edits_behind = 3;
  policy.topk_cache_k = 4;
  RefreshDriver driver(g, g, ServeConfig(), IncrementalOptions{}, policy,
                       &store);
  EXPECT_FALSE(driver.ready());
  ASSERT_TRUE(driver.Init().ok());
  ASSERT_TRUE(driver.ready());
  const uint64_t solve_version = store.version();
  EXPECT_GT(solve_version, 0u);

  // An insert/remove burst on one edge coalesces to a net no-op: nothing
  // applied, nothing published.
  ASSERT_TRUE(driver.Submit({1, 0, 3, /*insert=*/true}).ok());
  ASSERT_TRUE(driver.Submit({1, 0, 3, /*insert=*/false}).ok());
  auto applied = driver.DrainApply(/*force_publish=*/false);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 0u);
  EXPECT_EQ(driver.stats().edits_coalesced, 2u);
  EXPECT_EQ(store.version(), solve_version);

  // Below the drift bound: applied but not yet published.
  ASSERT_TRUE(driver.Submit({1, 0, 3, /*insert=*/true}).ok());
  applied = driver.DrainApply(/*force_publish=*/false);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 1u);
  EXPECT_EQ(store.version(), solve_version);

  // Force-publish flushes the pending drift.
  ASSERT_TRUE(driver.Flush().ok());
  EXPECT_GT(store.version(), solve_version);
  const uint64_t flushed_version = store.version();

  // Reaching max_edits_behind publishes without force.
  ASSERT_TRUE(driver.Submit({1, 0, 3, /*insert=*/false}).ok());
  ASSERT_TRUE(driver.Submit({2, 1, 0, /*insert=*/true}).ok());
  ASSERT_TRUE(driver.Submit({2, 3, 0, /*insert=*/true}).ok());
  applied = driver.DrainApply(/*force_publish=*/false);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 3u);
  EXPECT_GT(store.version(), flushed_version);

  // Rejected edits (endpoint out of range) are counted, not applied; an
  // invalid graph index is rejected up front at Submit.
  ASSERT_TRUE(driver.Submit({1, 99, 0, /*insert=*/true}).ok());
  EXPECT_TRUE(driver.Submit({3, 0, 1, /*insert=*/true}).IsInvalidArgument());
  ASSERT_TRUE(driver.Flush().ok());
  EXPECT_EQ(driver.stats().edits_failed, 1u);

  // The published snapshot matches a from-scratch solve of the current
  // graphs.
  auto full = ComputeFSim(driver.MaterializeG1(), driver.MaterializeG2(),
                          ServeConfig());
  ASSERT_TRUE(full.ok());
  const SnapshotPtr snap = store.Acquire();
  ASSERT_NE(snap, nullptr);
  for (size_t i = 0; i < full->keys().size(); ++i) {
    const NodeId u = PairFirst(full->keys()[i]);
    const NodeId v = PairSecond(full->keys()[i]);
    EXPECT_NEAR(snap->PairScore(u, v), full->values()[i], 1e-4)
        << "(" << u << "," << v << ")";
  }
}

TEST(QueryEngineTest, BatchAnswersFromOneSnapshot) {
  SnapshotStore store;
  QueryEngine engine(&store);
  Query pair_query;
  pair_query.kind = Query::Kind::kPair;
  EXPECT_TRUE(engine.Run(pair_query).status().IsNotFound());

  SnapshotMeta meta;
  meta.version = store.NextVersion();
  ASSERT_TRUE(store.Publish(std::make_shared<const FSimSnapshot>(
      FreezeScores(FSimScores()), 2, meta)));
  std::vector<Query> queries(3);
  queries[1].kind = Query::Kind::kTopK;
  queries[1].k = 2;
  queries[2].kind = Query::Kind::kThreshold;
  auto results = engine.RunBatch(queries);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 3u);
  for (const QueryResult& result : *results) {
    EXPECT_EQ(result.version, meta.version);
  }
}

// Ids past the graphs (up to 2^32 - 1) reach the pair space unchecked by
// the protocol parser; every read answers 0 or nothing, with and without
// upper-bound pruning.
TEST(QueryEngineTest, OutOfRangeIdsAnswerNothing) {
  const Graph g = MakeServeGraph();
  constexpr NodeId kMaxId = ~NodeId{0};
  for (bool prune : {false, true}) {
    FSimConfig config = ServeConfig();
    config.upper_bound = prune;
    config.beta = 0.5;
    auto scores = ComputeFSimSelf(g, config);
    ASSERT_TRUE(scores.ok()) << scores.status().ToString();
    if (prune) {
      EXPECT_GT(scores->stats().pruned_pairs, 0u);
    }
    EXPECT_TRUE(scores->Row(static_cast<NodeId>(g.NumNodes())).empty());
    EXPECT_FALSE(scores->Contains(kMaxId, 0));
    EXPECT_TRUE(scores->TopK(kMaxId, 3).empty());
    SnapshotStore store;
    SnapshotMeta meta;
    meta.version = store.NextVersion();
    ASSERT_TRUE(store.Publish(std::make_shared<const FSimSnapshot>(
        FreezeScores(std::move(*scores)), /*cache_k=*/2, meta)));
    const QueryEngine engine(&store);
    for (const auto& [u, v] : {std::pair<NodeId, NodeId>{kMaxId, 0},
                              std::pair<NodeId, NodeId>{0, kMaxId}}) {
      Query pair_query;
      pair_query.kind = Query::Kind::kPair;
      pair_query.u = u;
      pair_query.v = v;
      auto result = engine.Run(pair_query);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->score, 0.0) << "PAIR " << u << " " << v;
    }
    for (size_t k : {size_t{1}, size_t{3}}) {  // within and past cache_k
      Query topk;
      topk.kind = Query::Kind::kTopK;
      topk.u = kMaxId;
      topk.k = k;
      auto result = engine.Run(topk);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_TRUE(result->entries.empty()) << "TOPK " << kMaxId << " " << k;
    }
  }

  // The same requests through the wire protocol.
  ServeOptions options;
  options.background_refresh = false;
  auto service = FSimService::Create(g, g, ServeConfig(), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  std::istringstream in(
      "PAIR 4294967295 0\nPAIR 0 4294967295\nTOPK 4294967295 3\nQUIT\n");
  std::ostringstream out;
  ASSERT_TRUE((*service)->ServeLoop(in, out).ok());
  std::istringstream lines(out.str());
  std::string line;
  for (const char* want : {"SCORE 0.000000 ", "SCORE 0.000000 ", "TOPK 0 "}) {
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line.substr(0, std::string(want).size()), want) << line;
  }
}

// The full protocol surface against a deterministic synchronous service:
// pair/top-k/threshold/batch queries, edits + flush, stats, malformed
// requests, comments, and QUIT. The transcript pins the exact wire format.
TEST(ServeLoopTest, GoldenTranscript) {
  // Pin the STATS `simd=` field: the resolved kernel level is
  // host-dependent under auto, and the transcript must not be.
  setenv("FSIM_SIMD", "off", 1);
  const Graph g = MakeServeGraph();
  ServeOptions options;
  options.background_refresh = false;
  options.policy.topk_cache_k = 4;
  auto service = FSimService::Create(g, g, ServeConfig(), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  // The degraded TOPK/THRESH variants pass a budget that truncates to a
  // zero-length deadline (steady_clock::now() >= deadline holds on entry),
  // so the degradation path is hit deterministically.
  std::string requests =
      "# comment lines and blank lines are ignored\n"
      "\n"
      "PAIR 0 1\n"
      "PAIR 0 99\n"
      "TOPK 0 3\n"
      "THRESH 0 0.45\n"
      "TOPK 0 5 0.0000001\n"
      "THRESH 0 0.45 0.0000001\n"
      "BATCH 3\n"
      "PAIR 1 1\n"
      "TOPK 4 2\n"
      "NOPE 1 2\n"
      "EDIT INSERT 1 0 3\n"
      "FLUSH\n"
      "PAIR 0 1\n"
      "EDIT REMOVE 3 0 1\n"
      "EDIT INSERT 1\n"
      "PAIR x 1\n"
      "TOPK 0\n"
      "THRESH 0 abc\n"
      "TOPK 0 3 -1\n"
      "BATCH 999999\n"
      "BOGUS\n";
  // Hostile input: an over-length line (rejected without buffering it) and
  // an embedded NUL byte — both answered in-band, the loop keeps serving.
  requests += std::string(FSimService::kMaxLineBytes + 1000, 'A') + "\n";
  requests += std::string("PAIR ") + '\0' + "0 1\n";
  requests +=
      "STATS\n"
      "QUIT\n"
      "PAIR 0 1\n";  // after QUIT: never answered
  std::istringstream in(requests);
  std::ostringstream out;
  ASSERT_TRUE((*service)->ServeLoop(in, out).ok());

  // Spot-checked against Eq. 3 by hand: FSim_s(0, 1) = w+ * 1 (node 2 maps
  // to itself) + w- * 0 (node 1 has no in-neighbors) + 0.2 * L = 0.6.
  const std::string kExpected =
      "SCORE 0.600000 v1\n"
      "SCORE 0.000000 v1\n"
      "TOPK 3 v1\n"
      "0 1.000000\n"
      "4 0.656702\n"
      "1 0.600000\n"
      "THRESH 4 v1\n"
      "0 1.000000\n"
      "4 0.656702\n"
      "1 0.600000\n"
      "2 0.533907\n"
      "TOPK 4 v1 degraded\n"
      "0 1.000000\n"
      "4 0.656702\n"
      "1 0.600000\n"
      "2 0.533907\n"
      "THRESH 4 v1 degraded\n"
      "0 1.000000\n"
      "4 0.656702\n"
      "1 0.600000\n"
      "2 0.533907\n"
      "BATCH 3 v1\n"
      "SCORE 1.000000 v1\n"
      "TOPK 2 v1\n"
      "4 1.000000\n"
      "0 0.614166\n"
      "ERR unknown request 'NOPE'\n"
      "OK queued\n"
      "OK version 2\n"
      "SCORE 0.565554 v2\n"
      "ERR usage: EDIT INSERT|REMOVE <graph 1|2> <from> <to>\n"
      "ERR usage: EDIT INSERT|REMOVE <graph 1|2> <from> <to>\n"
      "ERR usage: PAIR <u> <v>\n"
      "ERR usage: TOPK <u> <k> [budget_ms]\n"
      "ERR usage: THRESH <u> <tau> [budget_ms]\n"
      "ERR usage: TOPK <u> <k> [budget_ms]\n"
      "ERR usage: BATCH <n> [budget_ms] (n <= 100000)\n"
      "ERR unknown request 'BOGUS'\n"
      "ERR line exceeds 4096 bytes\n"
      "ERR embedded NUL byte in request\n"
      "STATS version=2 pairs=25 pending=0 capacity=0 applied=1 coalesced=0 "
      "failed=0 shed=0 replayed=0 publishes=2 persists=0 snapshot_bytes=0 "
      "wal_durable=0 wal_applied=0 wal_pending=0 stale_edits=0 stale_s=0 "
      "publish_age_s=0 "
      "ready=yes converged=yes warm=no simd=off\n"
      "BYE\n";
  unsetenv("FSIM_SIMD");
  EXPECT_EQ(out.str(), kExpected);
}

// METRICS and STATS FULL carry timing-dependent histogram values, so this
// validates structure instead of pinning a transcript: the count-prefixed
// METRICS framing, required Prometheus families, and the HIST...END block.
TEST(ServeLoopTest, MetricsAndStatsFull) {
  const Graph g = MakeServeGraph();
  ServeOptions options;
  options.background_refresh = false;
  auto service = FSimService::Create(g, g, ServeConfig(), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  std::istringstream in(
      "PAIR 0 1\n"
      "TOPK 0 3\n"
      "THRESH 0 0.45\n"
      "STATS FULL\n"
      "METRICS\n"
      "STATS EXTRA\n"
      "QUIT\n");
  std::ostringstream out;
  ASSERT_TRUE((*service)->ServeLoop(in, out).ok());
  const std::string reply = out.str();

  // STATS FULL: the deterministic STATS line (with the new wal_pending and
  // publish_age_s keys), HIST quantile lines — the three queries above
  // guarantee non-empty per-verb histograms — then END. Counts are not
  // pinned: the registry is process-wide across tests in this binary.
  EXPECT_NE(reply.find("STATS version="), std::string::npos);
  EXPECT_NE(reply.find(" wal_pending=0 "), std::string::npos);
  EXPECT_NE(reply.find(" publish_age_s="), std::string::npos);
  EXPECT_NE(
      reply.find("HIST fsim_serve_query_seconds{verb=\"PAIR\"} count="),
      std::string::npos);
  EXPECT_NE(reply.find("p99_us="), std::string::npos);
  EXPECT_NE(reply.find("\nEND\n"), std::string::npos);
  // The STATS verb resolves the kernel level, which publishes the
  // fsim_simd_level gauge for the METRICS exposition.
  EXPECT_NE(reply.find(" simd="), std::string::npos);
  EXPECT_NE(reply.find("fsim_simd_level"), std::string::npos);
  // Malformed STATS argument is rejected in-band.
  EXPECT_NE(reply.find("ERR usage: STATS [FULL]\n"), std::string::npos);

  // METRICS framing: the advertised line count delimits the payload
  // exactly — the line after it is the STATS EXTRA error.
  const size_t header = reply.find("\nMETRICS ");
  ASSERT_NE(header, std::string::npos);
  std::istringstream lines(reply.substr(header + 1));
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  const size_t advertised = std::stoul(line.substr(sizeof("METRICS ") - 1));
  ASSERT_GT(advertised, 0u);
  std::vector<std::string> payload;
  for (size_t i = 0; i < advertised; ++i) {
    ASSERT_TRUE(std::getline(lines, line)) << "payload shorter than header";
    payload.push_back(line);
  }
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "ERR usage: STATS [FULL]");

  const auto contains = [&payload](std::string_view needle) {
    for (const std::string& l : payload) {
      if (l.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(contains("# TYPE fsim_serve_query_seconds histogram"));
  EXPECT_TRUE(
      contains("fsim_serve_query_seconds_bucket{verb=\"PAIR\",le=\"+Inf\"}"));
  EXPECT_TRUE(contains("fsim_serve_query_seconds_count{verb=\"TOPK\"}"));
  EXPECT_TRUE(contains("# TYPE fsim_refresh_queue_depth gauge"));
  EXPECT_TRUE(contains("# TYPE fsim_publish_age_seconds gauge"));
  // The queries above re-pinned the serve thread at least once.
  EXPECT_TRUE(contains("# TYPE fsim_snapshot_pin_refreshes_total counter"));
}

TEST(ServeLoopTest, WarmStartServesBeforeRefreshReady) {
  const Graph g = MakeServeGraph();
  auto scores = ComputeFSimSelf(g, ServeConfig());
  ASSERT_TRUE(scores.ok());
  const std::string path = ::testing::TempDir() + "/warm.scores";
  ASSERT_TRUE(SaveScoresToFile(*scores, path).ok());

  ServeOptions options;
  options.background_refresh = true;
  options.warm_scores_path = path;
  auto service = FSimService::Create(g, g, ServeConfig(), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  // The warm snapshot is published synchronously by Create, so queries
  // answer immediately — whether or not the background solve has finished.
  std::istringstream in("PAIR 0 0\nQUIT\n");
  std::ostringstream out;
  ASSERT_TRUE((*service)->ServeLoop(in, out).ok());
  EXPECT_EQ(out.str().substr(0, 15), "SCORE 1.000000 ");

  // Flush waits for the background engine, then publishes its (computed)
  // state; the answers keep matching the converged scores.
  ASSERT_TRUE((*service)->driver().Flush().ok());
  std::istringstream in2("PAIR 0 1\nQUIT\n");
  std::ostringstream out2;
  ASSERT_TRUE((*service)->ServeLoop(in2, out2).ok());
  EXPECT_EQ(out2.str().substr(0, 15), "SCORE 0.600000 ");
}

// A warm score file must fit the candidate space of the graphs and config
// served: a pair outside it fails Create, naming the pair.
TEST(ServeLoopTest, WarmFileOutsideCandidateSpaceFailsCreate) {
  const Graph g = MakeServeGraph();
  FSimConfig config = ServeConfig();
  config.theta = 1.0;  // A-B pairs are outside the space
  auto scores = ComputeFSimSelf(g, config);
  ASSERT_TRUE(scores.ok());
  std::string text = ScoresToString(*scores);
  const size_t at = text.find("\n0 0 ");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 5, "\n0 2 ");  // (0, 2) is an A-B pair
  const std::string path = ::testing::TempDir() + "/warm_outside.scores";
  {
    std::ofstream file(path);
    file << text;
  }
  ServeOptions options;
  options.background_refresh = false;
  options.warm_scores_path = path;
  auto service = FSimService::Create(g, g, config, options);
  ASSERT_FALSE(service.ok());
  EXPECT_NE(service.status().message().find("pair (0, 2)"), std::string::npos)
      << service.status().ToString();

  // The unedited file fits and warm-starts.
  ASSERT_TRUE(SaveScoresToFile(*scores, path).ok());
  service = FSimService::Create(g, g, config, options);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
}

// End to end: a background edit stream is applied while reader threads
// hammer the service; every answer must be internally consistent, and the
// final flushed state must match a from-scratch recompute.
TEST(ServeLoopTest, ServesConsistentlyUnderBackgroundEdits) {
  const Graph g = testing::MakeRandomPair(0xD0C, 24, 24).g1;
  ServeOptions options;
  options.background_refresh = true;
  options.policy.max_edits_behind = 4;
  options.policy.poll_seconds = 0.001;
  FSimConfig config = ServeConfig();
  auto service = FSimService::Create(g, g, config, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_TRUE((*service)->driver().Flush().ok());  // wait for the solve

  std::atomic<bool> done{false};
  std::atomic<uint64_t> inconsistent{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&service, &done, &inconsistent, &g] {
      const QueryEngine& engine = (*service)->query_engine();
      Rng rng(0xF00 + reinterpret_cast<uintptr_t>(&engine));
      while (!done.load()) {
        Query query;
        query.kind = Query::Kind::kTopK;
        query.u = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
        query.k = 5;
        auto result = engine.Run(query);
        if (!result.ok()) continue;
        // Ranking must be sorted and scores in [0, 1] — a torn snapshot
        // would violate one of the two.
        for (size_t i = 0; i < result->entries.size(); ++i) {
          const double score = result->entries[i].second;
          if (score < 0.0 || score > 1.0) inconsistent.fetch_add(1);
          if (i > 0 && result->entries[i - 1].second < score) {
            inconsistent.fetch_add(1);
          }
        }
      }
    });
  }

  Rng rng(0xED17);
  for (int e = 0; e < 40; ++e) {
    EditOp op;
    op.graph_index = (e % 2) + 1;
    op.from = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
    op.to = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
    if (op.from == op.to) continue;
    op.insert = (rng.Next() & 1) != 0;
    ASSERT_TRUE((*service)->driver().Submit(op).ok());
    if (e % 10 == 9) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE((*service)->driver().Flush().ok());
  done.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(inconsistent.load(), 0u);

  auto full = ComputeFSim((*service)->driver().MaterializeG1(),
                          (*service)->driver().MaterializeG2(), config);
  ASSERT_TRUE(full.ok());
  const SnapshotPtr snap = (*service)->store().Acquire();
  ASSERT_NE(snap, nullptr);
  double max_diff = 0.0;
  for (size_t i = 0; i < full->keys().size(); ++i) {
    const NodeId u = PairFirst(full->keys()[i]);
    const NodeId v = PairSecond(full->keys()[i]);
    max_diff = std::max(max_diff,
                        std::abs(snap->PairScore(u, v) - full->values()[i]));
  }
  EXPECT_LT(max_diff, 1e-4);
}

// Overload shedding: a bounded queue accepts up to capacity distinct
// edges, coalesces same-edge bursts even when full, and sheds the rest
// with ResourceExhausted (counted, never silently dropped).
TEST(RefreshDriverTest, BoundedQueueShedsAndCoalesces) {
  const Graph g = MakeServeGraph();
  SnapshotStore store;
  RefreshPolicy policy;
  policy.queue_capacity = 2;
  RefreshDriver driver(g, g, ServeConfig(), IncrementalOptions{}, policy,
                       &store);

  ASSERT_TRUE(driver.Submit({1, 0, 3, /*insert=*/true}).ok());
  ASSERT_TRUE(driver.Submit({2, 1, 0, /*insert=*/true}).ok());
  EXPECT_EQ(driver.pending_edits(), 2u);
  // Full: a distinct edge is shed...
  EXPECT_TRUE(driver.Submit({1, 2, 4, /*insert=*/true}).IsResourceExhausted());
  // ...but a same-edge submission still coalesces last-op-wins.
  ASSERT_TRUE(driver.Submit({1, 0, 3, /*insert=*/false}).ok());
  EXPECT_EQ(driver.pending_edits(), 2u);
  EXPECT_EQ(driver.stats().edits_shed, 1u);

  // The queued (coalesced) edits drain normally once the engine is up.
  ASSERT_TRUE(driver.Init().ok());
  ASSERT_TRUE(driver.Flush().ok());
  EXPECT_EQ(driver.pending_edits(), 0u);
  // After the drain, capacity is free again.
  ASSERT_TRUE(driver.Submit({1, 2, 4, /*insert=*/true}).ok());
}

// Deadline budgets answer from the cache instead of blowing the deadline:
// an already-expired deadline degrades TOPK to the cache prefix and leaves
// PAIR (O(1)) exact.
TEST(QueryEngineTest, ExpiredDeadlineDegradesToCachePrefix) {
  const Graph g = MakeServeGraph();
  auto scores = ComputeFSimSelf(g, ServeConfig());
  ASSERT_TRUE(scores.ok());
  const FSimScores reference = *scores;
  SnapshotMeta meta;
  meta.version = 1;
  const FSimSnapshot snapshot(FreezeScores(std::move(*scores)),
                              /*cache_k=*/2, meta);

  const auto expired = QueryEngine::Clock::now();
  Query topk;
  topk.kind = Query::Kind::kTopK;
  topk.u = 0;
  topk.k = 4;
  const QueryResult degraded = QueryEngine::Answer(snapshot, topk, expired);
  EXPECT_TRUE(degraded.degraded);
  EXPECT_EQ(degraded.entries.size(), 2u);  // the cache prefix, not k
  const auto want = ReferenceTopK(reference, 0, 2);
  for (size_t i = 0; i < degraded.entries.size(); ++i) {
    EXPECT_EQ(degraded.entries[i], want[i]);
  }
  // Within cache depth the prefix IS the exact answer: not degraded.
  topk.k = 2;
  EXPECT_FALSE(QueryEngine::Answer(snapshot, topk, expired).degraded);
  // PAIR never degrades.
  Query pair;
  pair.kind = Query::Kind::kPair;
  pair.u = 0;
  pair.v = 1;
  const QueryResult exact = QueryEngine::Answer(snapshot, pair, expired);
  EXPECT_FALSE(exact.degraded);
  EXPECT_EQ(exact.score, reference.Score(0, 1));
}

// A budget past the clock's range is no deadline: it must neither wrap to
// a deadline in the past (answering as timed out at once) nor be undefined
// behaviour. A non-finite or negative budget is rejected.
TEST(QueryEngineTest, BudgetsPastTheClockMeanNoDeadline) {
  using Clock = QueryEngine::Clock;
  EXPECT_EQ(QueryEngine::DeadlineFor(0.0), Clock::time_point::max());
  EXPECT_EQ(QueryEngine::DeadlineFor(1e300), Clock::time_point::max());
  EXPECT_EQ(QueryEngine::DeadlineFor(std::numeric_limits<double>::max()),
            Clock::time_point::max());
  const Clock::time_point before = Clock::now();
  const Clock::time_point hour = QueryEngine::DeadlineFor(3.6e6);
  EXPECT_GE(hour, before + std::chrono::hours(1));
  EXPECT_LT(hour, Clock::time_point::max());
  for (double bad : {std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN(), -1.0}) {
    EXPECT_FALSE(QueryEngine::ValidBudget(bad)) << bad;
  }

  const Graph g = MakeServeGraph();
  auto scores = ComputeFSimSelf(g, ServeConfig());
  ASSERT_TRUE(scores.ok());
  const FSimScores reference = *scores;
  SnapshotStore store;
  SnapshotMeta meta;
  meta.version = store.NextVersion();
  ASSERT_TRUE(store.Publish(std::make_shared<const FSimSnapshot>(
      FreezeScores(std::move(*scores)), /*cache_k=*/1, meta)));
  const QueryEngine engine(&store);
  Query topk;
  topk.kind = Query::Kind::kTopK;
  topk.u = 0;
  topk.k = 3;
  Query thresh;
  thresh.kind = Query::Kind::kThreshold;
  thresh.u = 0;
  thresh.tau = 0.5;
  for (Query query : {topk, thresh}) {
    query.budget_ms = 1e300;
    auto result = engine.Run(query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_FALSE(result->degraded);
    if (query.kind == Query::Kind::kTopK) {
      EXPECT_EQ(result->entries, ReferenceTopK(reference, 0, 3));
    }
    for (double bad : {std::numeric_limits<double>::infinity(),
                       std::numeric_limits<double>::quiet_NaN()}) {
      query.budget_ms = bad;
      EXPECT_TRUE(engine.Run(query).status().IsInvalidArgument()) << bad;
    }
  }
  const std::vector<Query> batch = {topk, thresh};
  auto answered = engine.RunBatch(batch, 1e300);
  ASSERT_TRUE(answered.ok()) << answered.status().ToString();
  for (const QueryResult& result : *answered) EXPECT_FALSE(result.degraded);
  for (double bad : {std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_TRUE(engine.RunBatch(batch, bad).status().IsInvalidArgument())
        << bad;
  }
}

// The same budgets through the wire protocol: a budget past the clock
// answers exactly like no budget, and a non-finite one is a usage error.
TEST(ServeLoopTest, BudgetsPastTheClockMeanNoDeadline) {
  const Graph g = MakeServeGraph();
  ServeOptions options;
  options.background_refresh = false;
  options.policy.topk_cache_k = 1;
  auto service = FSimService::Create(g, g, ServeConfig(), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  auto serve = [&](const std::string& requests) {
    std::istringstream in(requests);
    std::ostringstream out;
    EXPECT_TRUE((*service)->ServeLoop(in, out).ok());
    return out.str();
  };

  const std::string unbudgeted =
      serve("TOPK 0 3\nTHRESH 0 0.5\nBATCH 1\nTOPK 0 3\nQUIT\n");
  EXPECT_EQ(serve("TOPK 0 3 1e300\nTHRESH 0 0.5 1e300\nBATCH 1 1e300\n"
                  "TOPK 0 3\nQUIT\n"),
            unbudgeted);
  EXPECT_EQ(unbudgeted.find("degraded"), std::string::npos) << unbudgeted;
  EXPECT_EQ(serve("TOPK 0 3 inf\nTOPK 0 3 nan\nTHRESH 0 0.5 inf\n"
                  "THRESH 0 0.5 nan\nBATCH 1 inf\nBATCH 1 nan\n"
                  "BATCH 1\nTOPK 0 3 inf\nQUIT\n"),
            "ERR usage: TOPK <u> <k> [budget_ms]\n"
            "ERR usage: TOPK <u> <k> [budget_ms]\n"
            "ERR usage: THRESH <u> <tau> [budget_ms]\n"
            "ERR usage: THRESH <u> <tau> [budget_ms]\n"
            "ERR usage: BATCH <n> [budget_ms] (n <= 100000)\n"
            "ERR usage: BATCH <n> [budget_ms] (n <= 100000)\n"
            "BATCH 1 v1\n"
            "ERR usage: TOPK <u> <k> [budget_ms]\n"
            "BYE\n");
}

// Flush must return DeadlineExceeded instead of blocking forever behind a
// stalled solve. A delay failpoint in the init path stands in for the
// stall; needs an FSIM_FAILPOINTS build.
TEST(RefreshDriverTest, FlushDeadlineExceededWhileInitStalled) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "failpoints compiled out (build with FSIM_FAILPOINTS=ON)";
  }
  const Graph g = MakeServeGraph();
  SnapshotStore store;
  RefreshPolicy policy;
  policy.poll_seconds = 0.001;
  RefreshDriver driver(g, g, ServeConfig(), IncrementalOptions{}, policy,
                       &store);
  ASSERT_TRUE(failpoint::Arm("serve.refresh.init_solve", "1*delay(300)").ok());
  driver.Start();
  // The solve is sleeping inside the failpoint: a bounded flush gives up...
  EXPECT_TRUE(driver
                  .FlushWithin(std::chrono::milliseconds(20))
                  .IsDeadlineExceeded());
  // ...and an unbounded one waits it out.
  ASSERT_TRUE(driver.Submit({1, 0, 3, /*insert=*/true}).ok());
  EXPECT_TRUE(driver.FlushWithin(std::chrono::milliseconds(0)).ok());
  EXPECT_TRUE(driver.ready());
  failpoint::Disarm("serve.refresh.init_solve");
  EXPECT_GE(failpoint::HitCount("serve.refresh.init_solve"), 1u);
  ASSERT_TRUE(driver.Stop(std::chrono::milliseconds(0)).ok());
}

uint64_t FailedEditsMetric() {
  for (const auto& [label, value] :
       obs::Registry::Default().CounterFamilySnapshot(
           "fsim_refresh_edits_total")) {
    if (label == "failed") return value;
  }
  return 0;
}

// An edit the engine rejects for the neighbor-index budget is a failed
// edit like any other: counted, not applied, and the RefreshDriver keeps
// applying and publishing the edits that fit. θ = 0 keeps every candidate
// entry, so a budget of exactly the Create-time footprint admits no span
// growth.
TEST(RefreshDriverTest, OverBudgetEditCountsAsFailedAndPublishingContinues) {
  const Graph g = MakeServeGraph();
  FSimConfig config = ServeConfig();
  auto probe = IncrementalFSim::Create(g, g, config);
  ASSERT_TRUE(probe.ok());
  config.neighbor_index_budget_bytes =
      probe->Snapshot().stats().neighbor_index_bytes;
  SnapshotStore store;
  RefreshDriver driver(g, g, config, IncrementalOptions{}, RefreshPolicy{},
                       &store);
  ASSERT_TRUE(driver.Init().ok());
  const uint64_t failed_metric = FailedEditsMetric();
  const uint64_t solve_version = store.version();

  ASSERT_FALSE(g.HasEdge(0, 1));
  ASSERT_TRUE(driver.Submit({1, 0, 1, /*insert=*/true}).ok());
  ASSERT_TRUE(driver.Flush().ok());
  EXPECT_EQ(driver.stats().edits_failed, 1u);
  EXPECT_EQ(driver.stats().edits_applied, 0u);
  EXPECT_EQ(FailedEditsMetric(), failed_metric + 1);

  // A removal fits, and so does re-adding the removed edge (it restores
  // exactly the entries the removal freed); both are published.
  ASSERT_TRUE(driver.Submit({1, 0, 2, /*insert=*/false}).ok());
  ASSERT_TRUE(driver.Flush().ok());
  const uint64_t removed_version = store.version();
  EXPECT_GT(removed_version, solve_version);
  ASSERT_TRUE(driver.Submit({1, 0, 2, /*insert=*/true}).ok());
  ASSERT_TRUE(driver.Flush().ok());
  EXPECT_GT(store.version(), removed_version);
  EXPECT_EQ(driver.stats().edits_applied, 2u);
  EXPECT_EQ(driver.stats().edits_failed, 1u);

  auto full = ComputeFSim(driver.MaterializeG1(), driver.MaterializeG2(),
                          ServeConfig());
  ASSERT_TRUE(full.ok());
  const SnapshotPtr snap = store.Acquire();
  for (uint64_t key : full->keys()) {
    EXPECT_NEAR(snap->scores().Score(PairFirst(key), PairSecond(key)),
                full->Score(PairFirst(key), PairSecond(key)), 1e-4);
  }
  ASSERT_TRUE(driver.Stop(std::chrono::milliseconds(0)).ok());
}

// The background watchdog retries a failing Init with backoff instead of
// giving up: arm an error for the first two solve attempts, then watch the
// third succeed while queries were never blocked.
TEST(RefreshDriverTest, WatchdogRetriesFailedInit) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "failpoints compiled out (build with FSIM_FAILPOINTS=ON)";
  }
  const Graph g = MakeServeGraph();
  SnapshotStore store;
  RefreshPolicy policy;
  policy.retry_backoff_seconds = 0.005;
  policy.retry_backoff_max_seconds = 0.01;
  RefreshDriver driver(g, g, ServeConfig(), IncrementalOptions{}, policy,
                       &store);
  ASSERT_TRUE(failpoint::Arm("serve.refresh.init_solve", "2*error").ok());
  driver.Start();
  ASSERT_TRUE(driver.Flush().ok());  // waits through the failing attempts
  EXPECT_TRUE(driver.ready());
  EXPECT_GE(driver.stats().init_retries, 2u);
  failpoint::Disarm("serve.refresh.init_solve");
}

}  // namespace
}  // namespace fsim
