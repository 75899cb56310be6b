// The node-labeled directed graph data model of the paper (§2): G=(V,E,ℓ)
// with out-/in-neighbor access. The representation is an immutable CSR built
// once by GraphBuilder; all algorithms consume it read-only, which makes
// shared-nothing parallel iteration trivial.
#ifndef FSIM_GRAPH_GRAPH_H_
#define FSIM_GRAPH_GRAPH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/logging.h"

namespace fsim {

/// Dense node identifier within one graph.
using NodeId = uint32_t;
/// Interned label identifier. Two graphs sharing a LabelDict have comparable
/// label ids, which is required when computing cross-graph simulation.
using LabelId = uint32_t;

constexpr NodeId kInvalidNode = ~0U;

/// Interns label strings to dense ids. Shared (via shared_ptr) between the
/// graphs participating in one computation so that ℓ1(u) = ℓ2(v) is a plain
/// integer comparison. Interning is not thread-safe; build graphs before
/// starting parallel computations.
class LabelDict {
 public:
  /// Returns the id for `label`, interning it if new.
  LabelId Intern(std::string_view label);

  /// Returns the id for `label`, or kInvalidNode if it was never interned.
  LabelId Find(std::string_view label) const;

  /// The string for an interned id.
  std::string_view Name(LabelId id) const {
    FSIM_DCHECK(id < names_.size());
    return names_[id];
  }

  size_t size() const { return names_.size(); }

 private:
  std::unordered_map<std::string, LabelId> index_;
  std::vector<std::string> names_;
};

/// Immutable node-labeled directed graph in CSR form.
///
/// Neighbor lists are sorted by node id and deduplicated (simple directed
/// graph). Self-loops are permitted.
class Graph {
 public:
  Graph() = default;

  size_t NumNodes() const { return out_offsets_.empty() ? 0 : out_offsets_.size() - 1; }
  size_t NumEdges() const { return out_adj_.size(); }

  /// Total stored in-adjacency entries. Equals NumEdges() for every graph
  /// whose in-lists are the transpose of its out-lists (all GraphBuilder /
  /// IO construction); 0 for the AsUndirected adaptation, which stores the
  /// symmetric neighborhood in the out-lists only. IncrementalFSim's edit
  /// repair uses the comparison to pick the reverse-dependency walk.
  size_t NumInEdges() const { return in_adj_.size(); }

  /// N+(u): nodes w with an edge u -> w.
  std::span<const NodeId> OutNeighbors(NodeId u) const {
    FSIM_DCHECK(u < NumNodes());
    return {out_adj_.data() + out_offsets_[u],
            out_adj_.data() + out_offsets_[u + 1]};
  }

  /// N-(u): nodes w with an edge w -> u.
  std::span<const NodeId> InNeighbors(NodeId u) const {
    FSIM_DCHECK(u < NumNodes());
    return {in_adj_.data() + in_offsets_[u],
            in_adj_.data() + in_offsets_[u + 1]};
  }

  size_t OutDegree(NodeId u) const {
    FSIM_DCHECK(u < NumNodes());
    return out_offsets_[u + 1] - out_offsets_[u];
  }
  size_t InDegree(NodeId u) const {
    FSIM_DCHECK(u < NumNodes());
    return in_offsets_[u + 1] - in_offsets_[u];
  }

  LabelId Label(NodeId u) const {
    FSIM_DCHECK(u < labels_.size());
    return labels_[u];
  }

  /// The label string of node u.
  std::string_view LabelName(NodeId u) const { return dict_->Name(Label(u)); }

  /// The (shared) label dictionary. Derived graphs (subgraphs, perturbed
  /// copies) share their parent's dictionary so label ids stay comparable.
  const std::shared_ptr<LabelDict>& dict() const { return dict_; }

  /// True if the directed edge u -> v exists (binary search).
  bool HasEdge(NodeId u, NodeId v) const;

  /// Number of distinct labels appearing in this graph (≤ dict()->size(),
  /// since the dict may be shared with other graphs).
  size_t NumDistinctLabels() const;

  /// Maximum out-degree D+ and in-degree D- (Table 1 notation).
  size_t MaxOutDegree() const;
  size_t MaxInDegree() const;
  /// Average degree d_G = |E| / |V|.
  double AverageDegree() const {
    return NumNodes() == 0
               ? 0.0
               : static_cast<double>(NumEdges()) / static_cast<double>(NumNodes());
  }

  /// Returns the undirected adaptation used by RoleSim and the WL test
  /// (§4.3): out-neighbors become the union of in- and out-neighbors, and
  /// in-neighbor lists are empty. Labels and dict are preserved.
  Graph AsUndirected() const;

 private:
  friend class GraphBuilder;

  std::vector<uint64_t> out_offsets_;  // size NumNodes()+1
  std::vector<NodeId> out_adj_;
  std::vector<uint64_t> in_offsets_;
  std::vector<NodeId> in_adj_;
  std::vector<LabelId> labels_;
  std::shared_ptr<LabelDict> dict_;
};

}  // namespace fsim

#endif  // FSIM_GRAPH_GRAPH_H_
