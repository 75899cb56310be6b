// PairStore::Build against references that share none of its label-class
// tables: the candidate enumeration against the nested-label-loop-plus-sort
// enumeration, and every neighbor-index span against the brute-force
// builder of tests/reference_pair_store.h, at several pool sizes. The
// inputs mix self-loops, isolated nodes, labels present in only one graph,
// and labels compatible with several classes at θ = 0.35 and 0.4, so a
// row's compatible entries come from several label runs that the build
// must merge back into column order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/fsim_config.h"
#include "core/fsim_engine.h"
#include "core/pair_store.h"
#include "core/panel_engine.h"
#include "graph/graph_builder.h"
#include "label/label_similarity.h"
#include "tests/path_oracles.h"
#include "tests/reference_pair_store.h"
#include "tests/test_graphs.h"

namespace fsim {
namespace {

using ::fsim::testing::BuildReferencePairStore;
using ::fsim::testing::ReferenceEntry;
using ::fsim::testing::ReferencePairStore;

/// Two graphs over one dictionary. Under edit-distance similarity "aaaa"
/// is 0.75-similar to "aaab" and 0.5 to "aabb", so at θ = 0.35 one g1
/// label matches several g2 classes. "solo" occurs only in g1 and "only1"
/// and "only2" each in one graph (0.8-similar to each other). A few nodes
/// carry self-loops and the last three of each graph have no edges.
struct GraphPair {
  Graph g1;
  Graph g2;
};

GraphPair MakeMixedLabelPair(uint64_t seed, uint32_t n) {
  static const char* kLabels1[] = {"aaaa", "aaab", "aabb", "bbbb", "only1",
                                   "solo"};
  static const char* kLabels2[] = {"aaaa", "aaab", "abbb", "bbbb", "only2"};
  auto make = [n](Rng& rng, GraphBuilder builder, const char* const* labels,
                  size_t num_labels) {
    for (uint32_t i = 0; i < n; ++i) {
      builder.AddNode(labels[rng.Next() % num_labels]);
    }
    const uint32_t wired = n - 3;  // the rest stay isolated
    for (uint32_t i = 0; i < wired; ++i) {
      builder.AddEdge(i, (i + 1) % wired);
      if (i % 7 == 0) builder.AddEdge(i, i);
    }
    for (uint32_t e = 0; e < 2 * wired; ++e) {
      builder.AddEdge(static_cast<NodeId>(rng.Next() % wired),
                      static_cast<NodeId>(rng.Next() % wired));
    }
    return std::move(builder).BuildOrDie();
  };
  Rng rng(seed);
  GraphBuilder first;
  GraphPair pair{make(rng, GraphBuilder(first.dict()), kLabels1, 6),
                 make(rng, GraphBuilder(first.dict()), kLabels2, 5)};
  return pair;
}

/// The sort-based enumeration: every compatible label-class pair's nodes
/// in nested label loops, then one sort of all keys.
std::vector<uint64_t> SortedLabelLoopEnumeration(
    const Graph& g1, const Graph& g2, const LabelSimilarityCache& lsim,
    double theta) {
  const size_t dict_size = g1.dict()->size();
  std::vector<std::vector<NodeId>> groups1(dict_size), groups2(dict_size);
  for (NodeId u = 0; u < g1.NumNodes(); ++u) groups1[g1.Label(u)].push_back(u);
  for (NodeId v = 0; v < g2.NumNodes(); ++v) groups2[g2.Label(v)].push_back(v);
  std::vector<uint64_t> keys;
  for (LabelId a = 0; a < dict_size; ++a) {
    for (LabelId b = 0; b < dict_size; ++b) {
      if (!lsim.Compatible(a, b, theta)) continue;
      for (NodeId u : groups1[a]) {
        for (NodeId v : groups2[b]) keys.push_back(PairKey(u, v));
      }
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<uint64_t> StoreKeys(const PairStore& store) {
  std::vector<uint64_t> keys(store.size());
  for (size_t i = 0; i < store.size(); ++i) {
    keys[i] = PairKey(store.U(i), store.V(i));
  }
  return keys;
}

TEST(PairStoreBuildTest, EnumerationMatchesSortedLabelLoops) {
  const GraphPair mixed = MakeMixedLabelPair(5, 40);
  const Graph dense = testing::MakeDenseRandomGraph(29, 40);
  struct Input {
    const Graph* g1;
    const Graph* g2;
    const char* name;
  };
  for (const Input& input : {Input{&mixed.g1, &mixed.g2, "mixed"},
                             Input{&dense, &dense, "dense-self"}}) {
    const LabelSimilarityCache lsim(*input.g1->dict(),
                                    LabelSimKind::kEditDistance);
    for (double theta : {0.0, 0.4, 1.0}) {
      const std::string context =
          std::string(input.name) + " theta=" + std::to_string(theta);
      FSimConfig config;
      config.label_sim = LabelSimKind::kEditDistance;
      config.theta = theta;
      auto store = PairStore::Build(*input.g1, *input.g2, config, lsim);
      ASSERT_TRUE(store.ok()) << context << ": " << store.status().ToString();
      const std::vector<uint64_t> keys = StoreKeys(*store);
      ASSERT_FALSE(keys.empty()) << context;
      for (size_t i = 1; i < keys.size(); ++i) {
        ASSERT_LT(keys[i - 1], keys[i]) << context << " at " << i;
      }
      EXPECT_EQ(keys, SortedLabelLoopEnumeration(*input.g1, *input.g2, lsim,
                                                 theta))
          << context;
      EXPECT_EQ(store->info().theta_candidates, keys.size()) << context;
    }
  }
}

TEST(PairStoreBuildTest, PairLimitFailsWithItsMessage) {
  const GraphPair mixed = MakeMixedLabelPair(5, 40);
  const LabelSimilarityCache lsim(*mixed.g1.dict(),
                                  LabelSimKind::kEditDistance);
  FSimConfig config;
  config.label_sim = LabelSimKind::kEditDistance;
  config.theta = 0.4;
  auto fits = PairStore::Build(mixed.g1, mixed.g2, config, lsim);
  ASSERT_TRUE(fits.ok()) << fits.status().ToString();
  const size_t candidates = fits->size();

  config.pair_limit = candidates;
  EXPECT_TRUE(PairStore::Build(mixed.g1, mixed.g2, config, lsim).ok());
  config.pair_limit = candidates - 1;
  const Status over = PairStore::Build(mixed.g1, mixed.g2, config, lsim)
                          .status();
  EXPECT_TRUE(over.IsInvalidArgument()) << over.ToString();
  EXPECT_EQ(over.message(), "candidate pairs " + std::to_string(candidates) +
                                " exceed pair_limit " +
                                std::to_string(candidates - 1));

  config.theta = 0.0;
  config.pair_limit = 1000;
  const Status all = PairStore::Build(mixed.g1, mixed.g2, config, lsim)
                         .status();
  EXPECT_TRUE(all.IsInvalidArgument()) << all.ToString();
  EXPECT_EQ(all.message(), "candidate pairs 1600 exceed pair_limit 1000 "
                           "(theta=0 enumerates |V1|x|V2|)");
}

TEST(PairStoreBuildTest, PairLimitFailsBeforeKeysAreAllocated) {
  // 2^20 edgeless nodes against themselves at θ = 0: 2^40 candidates,
  // whose keys alone would take 8 TiB. The count and the limit check
  // come first, so the build fails at once instead of allocating.
  constexpr uint32_t kNodes = 1u << 20;
  GraphBuilder builder;
  builder.ReserveNodes(kNodes);
  const LabelId label = builder.dict()->Intern("x");
  for (uint32_t i = 0; i < kNodes; ++i) builder.AddNodeWithLabelId(label);
  const Graph g = std::move(builder).BuildOrDie();
  const LabelSimilarityCache lsim(*g.dict(), LabelSimKind::kIndicator);
  FSimConfig config;
  const Status status = PairStore::Build(g, g, config, lsim).status();
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_EQ(status.message(),
            "candidate pairs 1099511627776 exceed pair_limit 100000000 "
            "(theta=0 enumerates |V1|x|V2|)");
}

/// A graph of `labels.size()` nodes, node i labeled labels[i]: a ring
/// with chords through every node but the last three, and a self-loop on
/// every eleventh.
Graph MakeLabeledRing(GraphBuilder builder,
                      const std::vector<std::string>& labels) {
  const uint32_t n = static_cast<uint32_t>(labels.size());
  for (const std::string& label : labels) builder.AddNode(label);
  const uint32_t wired = n - 3;  // the rest stay isolated
  for (uint32_t i = 0; i < wired; ++i) {
    builder.AddEdge(i, (i + 1) % wired);
    builder.AddEdge(i, static_cast<NodeId>((7ull * i + 3) % wired));
    if (i % 11 == 0) builder.AddEdge(i, i);
  }
  return std::move(builder).BuildOrDie();
}

/// Asserts `store` holds exactly the reference's pairs, bit-identical
/// initial scores, tracked pruned bounds and spans.
void ExpectMatchesReference(const PairStore& store,
                            const ReferencePairStore& ref,
                            const std::string& context) {
  ASSERT_EQ(StoreKeys(store), ref.keys) << context;
  for (size_t i = 0; i < ref.keys.size(); ++i) {
    ASSERT_EQ(std::memcmp(&ref.init[i], store.prev_data() + i, sizeof(double)),
              0)
        << context << " init of pair " << i;
  }
  if (!ref.pruned_bounds.empty()) {
    ASSERT_EQ(store.info().pruned, ref.pruned_bounds.size()) << context;
    for (size_t p = 0; p < ref.pruned_bounds.size(); ++p) {
      ASSERT_EQ(store.pruned_bounds_data()[p], ref.pruned_bounds[p])
          << context << " pruned bound " << p;
    }
  }
  uint64_t entries = 0;
  for (size_t i = 0; i < ref.keys.size(); ++i) {
    store.WithRefs(i, [&](auto out_refs, auto in_refs) {
      int dir = 0;
      for (auto refs : {out_refs, in_refs}) {
        std::vector<ReferenceEntry> got;
        for (const auto& entry : refs) {
          got.push_back({entry.row, entry.col, entry.ref});
        }
        ASSERT_EQ(got, ref.spans[2 * i + static_cast<size_t>(dir)])
            << context << " pair " << i << (dir == 0 ? " out" : " in");
        ++dir;
      }
      entries += out_refs.size() + in_refs.size();
    });
  }
  EXPECT_GT(entries, 0u) << context;
}

/// 17,000 labels: past the similarity matrix's 16384-label limit, so only
/// L_I serves this dictionary. Every g1 node has its own label; g2 carries
/// the same labels rotated by half the ring (so the ring and chord edges
/// line up) plus two of its own, and `few` holds a handful of nodes, two
/// of them sharing a label.
constexpr uint32_t kLabels = 17000;

struct LargeDictionaryGraphs {
  Graph g1;
  Graph g2;
  Graph few;
};

LargeDictionaryGraphs MakeLargeDictionaryGraphs() {
  std::vector<std::string> labels1, labels2;
  for (uint32_t i = 0; i < kLabels; ++i) {
    labels1.push_back(StrFormat("n%u", i));
    labels2.push_back(StrFormat("n%u", (i + kLabels / 2) % kLabels));
  }
  labels2.push_back("extra0");
  labels2.push_back("extra1");
  GraphBuilder first;
  LargeDictionaryGraphs graphs;
  graphs.g1 = MakeLabeledRing(GraphBuilder(first.dict()), labels1);
  graphs.g2 = MakeLabeledRing(GraphBuilder(first.dict()), labels2);
  graphs.few = MakeLabeledRing(
      GraphBuilder(first.dict()),
      {"n0", "n1", "extra0", "n1", "n16999", "n5", "n7", "extra1"});
  return graphs;
}

TEST(PairStoreBuildTest, LargeIndicatorDictionaryMatchesReference) {
  // The build's label tables must stay within the dictionary and the
  // candidates: a |Σ1|x|Σ2| table alone would be over a gigabyte here.
  const LargeDictionaryGraphs graphs = MakeLargeDictionaryGraphs();
  const Graph& g1 = graphs.g1;
  const Graph& g2 = graphs.g2;
  const Graph& few = graphs.few;
  ASSERT_GT(g1.dict()->size(), 16384u);
  const LabelSimilarityCache lsim(*g1.dict(), LabelSimKind::kIndicator);
  ThreadPool pool(3);

  // θ = 1: row u holds the one g2 node with u's label.
  std::vector<NodeId> node_of_label2(g1.dict()->size(), kInvalidNode);
  for (NodeId v = 0; v < g2.NumNodes(); ++v) {
    node_of_label2[g2.Label(v)] = v;
  }
  std::vector<uint64_t> same_label;
  for (NodeId u = 0; u < g1.NumNodes(); ++u) {
    same_label.push_back(PairKey(u, node_of_label2[g1.Label(u)]));
  }
  FSimConfig config;
  config.theta = 1.0;
  auto store = PairStore::Build(g1, g2, config, lsim, &pool);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ExpectMatchesReference(
      *store,
      BuildReferencePairStore(g1, g2, config, lsim, store->reverse_spans(),
                              &same_label),
      "theta=1");
  store = PairStore::Build(g1, few, config, lsim, &pool);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ExpectMatchesReference(
      *store,
      BuildReferencePairStore(g1, few, config, lsim, store->reverse_spans()),
      "theta=1 few");
  config.pair_limit = kLabels - 1;
  const Status over = PairStore::Build(g1, g2, config, lsim).status();
  EXPECT_TRUE(over.IsInvalidArgument()) << over.ToString();
  EXPECT_EQ(over.message(), "candidate pairs 17000 exceed pair_limit 16999");

  // θ = 0: every pair, against a small g2 and then over the limit.
  config = FSimConfig();
  store = PairStore::Build(g1, few, config, lsim, &pool);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ExpectMatchesReference(
      *store,
      BuildReferencePairStore(g1, few, config, lsim, store->reverse_spans()),
      "theta=0");
  const Status all = PairStore::Build(g1, g2, config, lsim).status();
  EXPECT_TRUE(all.IsInvalidArgument()) << all.ToString();
  EXPECT_EQ(all.message(), "candidate pairs 289034000 exceed pair_limit "
                           "100000000 (theta=0 enumerates |V1|x|V2|)");
}

TEST(PairStoreBuildTest, LargeIndicatorDictionaryThetaZeroSolve) {
  // A θ = 0 s solve runs on the tile panels, whose label-term table spans
  // only the labels that occur (17,000 x 7 here), not the dictionary's
  // |Σ|² (over 2 GB): the default budget holds it, far below the 16 bytes
  // per pair the sparse θ = 0 index spends on span offsets alone, and the
  // values equal the sparse driver's.
  const LargeDictionaryGraphs graphs = MakeLargeDictionaryGraphs();
  FSimConfig config;
  config.variant = SimVariant::kSimple;
  config.num_threads = 2;
  ASSERT_TRUE(RunsOnTilePanels(config));
  auto scores = ComputeFSim(graphs.g1, graphs.few, config);
  ASSERT_TRUE(scores.ok()) << scores.status().ToString();
  ASSERT_EQ(scores->NumPairs(), size_t{kLabels} * 8);
  EXPECT_LT(scores->stats().neighbor_index_bytes, 16 * scores->NumPairs());
  testing::ExpectSameScores(
      *scores, testing::SparseDriverScores(graphs.g1, graphs.few, config));
}

// The reference comparison runs at several pool sizes, so it carries the
// ParallelBuild prefix the thread-sanitizer leg selects.
TEST(NeighborIndexTest, ParallelBuildMatchesReferenceBuilder) {
  // 100 nodes a side: at θ = 0 two enumerate row chunks, three init
  // chunks and 40 index chunks per build, so the workers split every
  // stage.
  const GraphPair mixed = MakeMixedLabelPair(3, 100);
  const LabelSimilarityCache lsim(*mixed.g1.dict(),
                                  LabelSimKind::kEditDistance);
  struct Case {
    const char* name;
    bool self;  // g1 against itself (pin_diagonal needs a diagonal)
    bool reverse_spans;  // ask for the reverse-span layout
    void (*apply)(FSimConfig*);
  };
  const Case kCases[] = {
      {"plain", false, true, [](FSimConfig*) {}},
      {"ub-alpha", false, true,
       [](FSimConfig* c) {
         c->upper_bound = true;
         c->alpha = 0.3;
         c->beta = 0.45;
       }},
      {"ub-alpha-zero", false, true,
       [](FSimConfig* c) {
         c->upper_bound = true;
         c->alpha = 0.0;
         c->beta = 0.45;
       }},
      {"w-in-zero", false, true, [](FSimConfig* c) { c->w_in = 0.0; }},
      {"w-in-zero-full-sweeps", false, false,
       [](FSimConfig* c) { c->w_in = 0.0; }},
      {"pin-diagonal", true, true,
       [](FSimConfig* c) { c->pin_diagonal = true; }},
      {"pin-diagonal-full-sweeps", true, false,
       [](FSimConfig* c) { c->pin_diagonal = true; }},
  };
  for (double theta : {0.0, 0.35, 1.0}) {
    for (const Case& test_case : kCases) {
      FSimConfig config;
      config.label_sim = LabelSimKind::kEditDistance;
      config.theta = theta;
      test_case.apply(&config);
      const Graph& g2 = test_case.self ? mixed.g1 : mixed.g2;
      const std::string context = std::string(test_case.name) +
                                  " theta=" + std::to_string(theta);
      ReferencePairStore ref;
      for (int threads : {1, 3, 4}) {
        ThreadPool pool(threads);
        auto store = PairStore::Build(mixed.g1, g2, config, lsim, &pool,
                                      /*rows=*/nullptr,
                                      test_case.reverse_spans);
        ASSERT_TRUE(store.ok()) << context << ": " << store.status().ToString();
        EXPECT_EQ(store->reverse_spans(), test_case.reverse_spans) << context;
        EXPECT_TRUE(store->ValidateNeighborIndex().ok()) << context;
        if (config.upper_bound && theta > 0.0) {
          EXPECT_GT(store->info().pruned, 0u) << context;
        }
        if (threads == 1) {
          ref = BuildReferencePairStore(mixed.g1, g2, config, lsim,
                                        store->reverse_spans());
        }
        ExpectMatchesReference(*store, ref,
                               context + " threads=" +
                                   std::to_string(threads));
      }
    }
  }
}

// The build with only some rows filled (TopKSearch's radius ball), against
// the reference over the same keys. A label that occurs in filled and
// unfilled rows is compatible with the columns of an unfilled neighbor
// row, whose entries the index must omit: their candidate ids would be
// the next filled row's.
TEST(NeighborIndexTest, ParallelBuildOfRestrictedRowsMatchesReference) {
  const GraphPair mixed = MakeMixedLabelPair(7, 60);
  const LabelSimilarityCache lsim(*mixed.g1.dict(),
                                  LabelSimKind::kEditDistance);
  const size_t n1 = mixed.g1.NumNodes();
  std::vector<bool> rows(n1);
  for (NodeId u = 0; u < n1; ++u) rows[u] = u % 3 == 0 || u + 2 >= n1;
  std::vector<bool> filled_label(mixed.g1.dict()->size());
  for (NodeId u = 0; u < n1; ++u) {
    if (rows[u]) filled_label[mixed.g1.Label(u)] = true;
  }
  bool shared_label = false;
  for (NodeId u = 0; u < n1; ++u) {
    shared_label |= !rows[u] && filled_label[mixed.g1.Label(u)];
  }
  ASSERT_TRUE(shared_label);

  for (double theta : {0.0, 0.4, 1.0}) {
    for (bool prune : {false, true}) {
      FSimConfig config;
      config.label_sim = LabelSimKind::kEditDistance;
      config.theta = theta;
      if (prune) {
        config.upper_bound = true;
        config.alpha = 0.3;
        config.beta = 0.45;
      }
      std::vector<uint64_t> keys;
      for (NodeId u = 0; u < n1; ++u) {
        if (!rows[u]) continue;
        for (NodeId v = 0; v < mixed.g2.NumNodes(); ++v) {
          if (lsim.Compatible(mixed.g1.Label(u), mixed.g2.Label(v), theta)) {
            keys.push_back(PairKey(u, v));
          }
        }
      }
      for (int threads : {1, 3}) {
        const std::string context = StrFormat(
            "theta=%.1f%s threads=%d", theta, prune ? " pruned" : "", threads);
        ThreadPool pool(threads);
        auto store =
            PairStore::Build(mixed.g1, mixed.g2, config, lsim, &pool, &rows);
        ASSERT_TRUE(store.ok()) << context << ": " << store.status().ToString();
        EXPECT_TRUE(store->ValidateNeighborIndex().ok()) << context;
        ExpectMatchesReference(
            *store,
            BuildReferencePairStore(mixed.g1, mixed.g2, config, lsim,
                                    store->reverse_spans(), &keys),
            context);
      }
    }
  }
}

/// Asserts that the reverse-span layout lists every pair that reads a
/// pair, which is what the dependency walk of tolerance frontiers and edit
/// repair (ActiveSetDriver::MarkDependents) relies on to miss nothing: for
/// every maintained pair j and every unpruned ref r in a span j evaluates,
/// j is listed in r's reverse-dependency span. Under the transpose scheme
/// that is the opposite-direction span (r ∈ N+(u) x N+(v) means
/// j ∈ N-(x) x N-(y)); under AsUndirected (symmetric out-lists, empty
/// in-lists) it is r's out-span. Pinned diagonal pairs evaluate nothing.
void ExpectReverseSpansListEveryReader(const Graph& g1, const Graph& g2,
                                       const FSimConfig& config,
                                       const std::string& context) {
  const LabelSimilarityCache lsim(*g1.dict(), config.label_sim);
  ThreadPool pool(2);
  auto store = PairStore::Build(g1, g2, config, lsim, &pool,
                                /*rows=*/nullptr, /*reverse_spans=*/true);
  ASSERT_TRUE(store.ok()) << context << ": " << store.status().ToString();
  ASSERT_TRUE(store->reverse_spans()) << context;
  if (config.alpha > 0.0) {
    EXPECT_TRUE(store->has_pruned_refs()) << context;
  }
  const bool symmetric_out = g1.NumInEdges() == 0 && g2.NumInEdges() == 0;
  ASSERT_TRUE(symmetric_out || (g1.NumInEdges() == g1.NumEdges() &&
                                g2.NumInEdges() == g2.NumEdges()))
      << context;
  size_t reads = 0;
  size_t missing = 0;
  std::string first_missing;
  for (size_t j = 0; j < store->size(); ++j) {
    if (config.pin_diagonal && store->U(j) == store->V(j)) continue;
    store->WithRefs(j, [&](auto out_refs, auto in_refs) {
      // `listed_in_out_span`: which of r's spans must list j.
      auto check = [&](auto refs, bool listed_in_out_span, const char* dir) {
        for (const auto& entry : refs) {
          if (IsPrunedRef(entry.ref)) continue;
          ++reads;
          bool listed = false;
          store->WithRefs(entry.ref, [&](auto r_out, auto r_in) {
            for (const auto& back : listed_in_out_span ? r_out : r_in) {
              listed = listed || back.ref == j;
            }
          });
          if (!listed && missing++ == 0) {
            first_missing = StrFormat("pair %zu reads pair %u through its %s",
                                      j, entry.ref, dir);
          }
        }
      };
      if (config.w_out > 0.0) check(out_refs, symmetric_out, "out-span");
      if (config.w_in > 0.0) check(in_refs, true, "in-span");
    });
  }
  EXPECT_GT(reads, 0u) << context;
  EXPECT_EQ(missing, 0u) << context << ": first miss: " << first_missing;
}

TEST(PairStoreReverseSpansTest, ListEveryPairThatReadsThem) {
  const GraphPair mixed = MakeMixedLabelPair(11, 60);
  for (double theta : {0.0, 0.4}) {
    for (SimVariant variant :
         {SimVariant::kSimple, SimVariant::kBi, SimVariant::kDegreePreserving,
          SimVariant::kBijective}) {
      FSimConfig config;
      config.variant = variant;
      config.label_sim = LabelSimKind::kEditDistance;
      config.theta = theta;
      ExpectReverseSpansListEveryReader(
          mixed.g1, mixed.g2, config,
          StrFormat("%s theta=%.1f", SimVariantName(variant), theta));
    }
    FSimConfig product;
    product.operator_override =
        OperatorConfig{MappingKind::kProduct, OmegaKind::kProduct};
    product.label_sim = LabelSimKind::kEditDistance;
    product.theta = theta;
    ExpectReverseSpansListEveryReader(
        mixed.g1, mixed.g2, product, StrFormat("product theta=%.1f", theta));
  }
  // Single weighted direction: the reverse lists are the spans the
  // evaluation never reads. SimRank also pins the diagonal.
  ExpectReverseSpansListEveryReader(mixed.g1, mixed.g1, SimRankFSimConfig(),
                                    "simrank");
  const Graph undirected = mixed.g1.AsUndirected();
  ExpectReverseSpansListEveryReader(undirected, undirected,
                                    RoleSimFSimConfig(), "rolesim");
  // Upper-bound pruning with α > 0 plants tagged refs the walk skips.
  FSimConfig pruned;
  pruned.label_sim = LabelSimKind::kEditDistance;
  pruned.theta = 0.4;
  pruned.upper_bound = true;
  pruned.alpha = 0.3;
  pruned.beta = 0.45;
  ExpectReverseSpansListEveryReader(mixed.g1, mixed.g2, pruned,
                                    "upper bound, alpha > 0");
}

}  // namespace
}  // namespace fsim
