// An edit-capable companion to the immutable CSR Graph: per-node sorted
// adjacency vectors that support single-edge insertion and removal in
// O(deg) time (one binary search + one memmove per touched list), instead
// of the O(|V| + |E|) full rebuild that GraphBuilder-based editing costs.
//
// DynamicGraph mirrors Graph's read API (OutNeighbors/InNeighbors return
// sorted std::span<const NodeId>, labels and the shared LabelDict are
// preserved), so the operator templates of core/operators.h consume either
// representation unchanged. It is the graph side of the incremental FSim
// engine (core/incremental.h); batch engines keep consuming the immutable
// CSR, which ToGraph() materializes on demand.
#ifndef FSIM_GRAPH_DYNAMIC_GRAPH_H_
#define FSIM_GRAPH_DYNAMIC_GRAPH_H_

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "graph/graph.h"

namespace fsim {

/// Mutable node-labeled directed graph with sorted, deduplicated adjacency.
///
/// The node set and labels are fixed at construction (matching the
/// incremental engine's edit model: edits are edge-level); only edges
/// change. Self-loops are permitted, parallel edges are not.
class DynamicGraph {
 public:
  DynamicGraph() = default;

  /// Copies g's nodes, labels and edges into per-node vectors. O(|V| + |E|).
  explicit DynamicGraph(const Graph& g);

  /// Adds the directed edge from -> to. O(OutDeg(from) + InDeg(to)).
  /// Errors: OutOfRange for invalid endpoints; AlreadyExists if present.
  Status InsertEdge(NodeId from, NodeId to);

  /// Removes the directed edge from -> to. O(OutDeg(from) + InDeg(to)).
  /// Errors: OutOfRange for invalid endpoints; NotFound if absent.
  Status RemoveEdge(NodeId from, NodeId to);

  size_t NumNodes() const { return labels_.size(); }
  size_t NumEdges() const { return num_edges_; }

  /// Σ |N-(u)|: NumEdges() under mirrored adjacency, 0 for a copy of
  /// Graph::AsUndirected's empty in-lists. O(|V|).
  size_t NumInEdges() const;

  /// N+(u), sorted ascending.
  std::span<const NodeId> OutNeighbors(NodeId u) const {
    FSIM_DCHECK(u < NumNodes());
    return out_[u];
  }

  /// N-(u), sorted ascending.
  std::span<const NodeId> InNeighbors(NodeId u) const {
    FSIM_DCHECK(u < NumNodes());
    return in_[u];
  }

  size_t OutDegree(NodeId u) const {
    FSIM_DCHECK(u < NumNodes());
    return out_[u].size();
  }
  size_t InDegree(NodeId u) const {
    FSIM_DCHECK(u < NumNodes());
    return in_[u].size();
  }

  LabelId Label(NodeId u) const {
    FSIM_DCHECK(u < labels_.size());
    return labels_[u];
  }

  std::string_view LabelName(NodeId u) const { return dict_->Name(Label(u)); }

  const std::shared_ptr<LabelDict>& dict() const { return dict_; }

  /// True if the directed edge u -> v exists (binary search, O(log deg)).
  bool HasEdge(NodeId u, NodeId v) const;

  /// Materializes the current edge set as an immutable CSR Graph (shares
  /// the LabelDict). O(|V| + |E|); for handing the evolving graph to the
  /// batch engines or snapshotting.
  Graph ToGraph() const;

  /// Structural invariants of the adjacency representation: every out/in
  /// list strictly ascending (sorted, no parallel edges), every edge
  /// mirrored (v ∈ out[u] iff u ∈ in[v]), endpoints in range, and
  /// num_edges_ equal to both Σ|out| and Σ|in|. O(|V| + |E| log deg);
  /// InsertEdge/RemoveEdge re-check the two touched lists under
  /// FSIM_DEBUG_CHECKS. Bumps ValidatorCounters
  /// "DynamicGraph::ValidateAdjacency".
  Status ValidateAdjacency() const;

 private:
  // check_test.cc corrupts the adjacency through this to prove the
  // validator catches unsorted lists and missing mirror entries.
  friend struct DynamicGraphTestAccess;

  std::vector<std::vector<NodeId>> out_;
  std::vector<std::vector<NodeId>> in_;
  std::vector<LabelId> labels_;
  std::shared_ptr<LabelDict> dict_;
  size_t num_edges_ = 0;
};

}  // namespace fsim

#endif  // FSIM_GRAPH_DYNAMIC_GRAPH_H_
