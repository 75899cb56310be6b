// Shared test fixtures: the paper's Figure 1 example (reconstructed from
// Examples 1 and 3 and Table 2) plus helpers for random labeled graphs and
// a high-degree star.
#ifndef FSIM_TESTS_TEST_GRAPHS_H_
#define FSIM_TESTS_TEST_GRAPHS_H_

#include <memory>

#include "common/check.h"
#include "common/random.h"
#include "core/fsim_config.h"
#include "core/pair_space.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"

namespace fsim {
namespace testing {

/// Figure 1: pattern P with node u (circle) whose out-neighbors are two
/// hexagons and one pentagon; data graph G2 with candidates v1..v4:
///   v1 -> {hex}                    (u not s-simulated: pentagon uncovered)
///   v2 -> {hex, pent}              (s and b hold; dp fails: no injective
///                                   mapping for u's two hexagons)
///   v3 -> {hex, hex, pent, square} (s and dp hold; b fails: the square
///                                   neighbor simulates nothing of u)
///   v4 -> {hex, hex, pent}         (all four variants hold)
struct Figure1 {
  Graph pattern;  // node 0 = u; 1,2 = hexagons; 3 = pentagon
  Graph data;
  NodeId u = 0;
  NodeId v1, v2, v3, v4;
};

inline Figure1 MakeFigure1() {
  Figure1 fig;
  GraphBuilder pb;
  NodeId u = pb.AddNode("circle");
  NodeId h1 = pb.AddNode("hex");
  NodeId h2 = pb.AddNode("hex");
  NodeId p1 = pb.AddNode("pent");
  pb.AddEdge(u, h1);
  pb.AddEdge(u, h2);
  pb.AddEdge(u, p1);
  fig.pattern = std::move(pb).BuildOrDie();

  GraphBuilder db(fig.pattern.dict());
  fig.v1 = db.AddNode("circle");
  NodeId v1h = db.AddNode("hex");
  db.AddEdge(fig.v1, v1h);

  fig.v2 = db.AddNode("circle");
  NodeId v2h = db.AddNode("hex");
  NodeId v2p = db.AddNode("pent");
  db.AddEdge(fig.v2, v2h);
  db.AddEdge(fig.v2, v2p);

  fig.v3 = db.AddNode("circle");
  NodeId v3h1 = db.AddNode("hex");
  NodeId v3h2 = db.AddNode("hex");
  NodeId v3p = db.AddNode("pent");
  NodeId v3s = db.AddNode("square");
  db.AddEdge(fig.v3, v3h1);
  db.AddEdge(fig.v3, v3h2);
  db.AddEdge(fig.v3, v3p);
  db.AddEdge(fig.v3, v3s);

  fig.v4 = db.AddNode("circle");
  NodeId v4h1 = db.AddNode("hex");
  NodeId v4h2 = db.AddNode("hex");
  NodeId v4p = db.AddNode("pent");
  db.AddEdge(fig.v4, v4h1);
  db.AddEdge(fig.v4, v4h2);
  db.AddEdge(fig.v4, v4p);

  fig.data = std::move(db).BuildOrDie();
  return fig;
}

/// A pair of small random labeled digraphs sharing one dictionary — the
/// randomized input for the P1/P2/P3 property sweeps.
struct GraphPair {
  Graph g1;
  Graph g2;
};

inline GraphPair MakeRandomPair(uint64_t seed, uint32_t n1 = 10,
                                uint32_t n2 = 12, uint32_t labels = 3) {
  LabelingOptions lo;
  lo.num_labels = labels;
  lo.skew = 0.4;
  lo.dict = std::make_shared<LabelDict>();
  GraphPair pair;
  pair.g1 = ErdosRenyi(n1, 2 * n1, lo, seed);
  pair.g2 = ErdosRenyi(n2, 2 * n2, lo, seed ^ 0xFEED);
  return pair;
}

/// A random labeled digraph where every node has out- and in-degree >= 1
/// (a ring plus random chords), so no operator/omega combination divides by
/// a zero normalizer. Labels are two-letter strings with nontrivial mutual
/// edit similarity, giving θ a real compatibility structure. `dict`, when
/// given, is the dictionary to share with other graphs.
inline Graph MakeDenseRandomGraph(uint64_t seed, uint32_t n = 24,
                                  std::shared_ptr<LabelDict> dict = nullptr) {
  static const char* kLabels[] = {"aa", "ab", "bb", "bc"};
  Rng rng(seed);
  GraphBuilder builder = dict ? GraphBuilder(std::move(dict)) : GraphBuilder();
  for (uint32_t i = 0; i < n; ++i) {
    builder.AddNode(kLabels[rng.Next() % 4]);
  }
  for (uint32_t i = 0; i < n; ++i) {
    builder.AddEdge(i, (i + 1) % n);
  }
  for (uint32_t e = 0; e < 2 * n; ++e) {
    NodeId from = static_cast<NodeId>(rng.Next() % n);
    NodeId to = static_cast<NodeId>(rng.Next() % n);
    if (from != to) builder.AddEdge(from, to);
  }
  return std::move(builder).BuildOrDie();
}

/// A star: node 0, labeled "hub", with an out-edge to each of `leaves`
/// nodes labeled "leaf". More than 65536 leaves give the hub an out-degree
/// that needs the wide 12-byte neighbor-index entries.
inline Graph MakeStarHub(uint32_t leaves) {
  GraphBuilder builder;
  const NodeId hub = builder.AddNode("hub");
  for (uint32_t i = 0; i < leaves; ++i) {
    builder.AddEdge(hub, builder.AddNode("leaf"));
  }
  return std::move(builder).BuildOrDie();
}

/// The full n1 x n2 pair space (θ = 0 over edgeless graphs): the layout of
/// a score container whose values a test fills by hand, slot u * n2 + v.
inline std::shared_ptr<const PairSpace> FullPairSpace(uint32_t n1,
                                                      uint32_t n2) {
  auto dict = std::make_shared<LabelDict>();
  auto make_graph = [&](uint32_t n) {
    GraphBuilder builder(dict);
    for (uint32_t i = 0; i < n; ++i) builder.AddNode("x");
    return std::move(builder).BuildOrDie();
  };
  auto space = PairSpace::Of(make_graph(n1), make_graph(n2), FSimConfig{});
  FSIM_CHECK(space.ok()) << space.status().ToString();
  return *space;
}

}  // namespace testing
}  // namespace fsim

#endif  // FSIM_TESTS_TEST_GRAPHS_H_
