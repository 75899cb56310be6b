#include "graph/dynamic_graph.h"

#include <algorithm>

#include "common/string_util.h"
#include "graph/graph_builder.h"

namespace fsim {

namespace {

Status ValidateEndpoints(size_t num_nodes, NodeId from, NodeId to) {
  if (from >= num_nodes || to >= num_nodes) {
    return Status::OutOfRange(
        StrFormat("edge (%u, %u) out of range for graph with %zu nodes", from,
                  to, num_nodes));
  }
  return Status::OK();
}

/// Inserts v into the sorted list if absent; returns false if present.
bool SortedInsert(std::vector<NodeId>& list, NodeId v) {
  auto it = std::lower_bound(list.begin(), list.end(), v);
  if (it != list.end() && *it == v) return false;
  list.insert(it, v);
  return true;
}

/// Erases v from the sorted list; returns false if absent.
bool SortedErase(std::vector<NodeId>& list, NodeId v) {
  auto it = std::lower_bound(list.begin(), list.end(), v);
  if (it == list.end() || *it != v) return false;
  list.erase(it);
  return true;
}

}  // namespace

DynamicGraph::DynamicGraph(const Graph& g)
    : out_(g.NumNodes()),
      in_(g.NumNodes()),
      labels_(g.NumNodes()),
      dict_(g.dict()),
      num_edges_(g.NumEdges()) {
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    labels_[u] = g.Label(u);
    auto out = g.OutNeighbors(u);
    out_[u].assign(out.begin(), out.end());
    auto in = g.InNeighbors(u);
    in_[u].assign(in.begin(), in.end());
  }
}

size_t DynamicGraph::NumInEdges() const {
  size_t total = 0;
  for (const std::vector<NodeId>& in : in_) total += in.size();
  return total;
}

Status DynamicGraph::InsertEdge(NodeId from, NodeId to) {
  FSIM_RETURN_NOT_OK(ValidateEndpoints(NumNodes(), from, to));
  if (!SortedInsert(out_[from], to)) {
    return Status::AlreadyExists(
        StrFormat("edge (%u, %u) already present", from, to));
  }
  SortedInsert(in_[to], from);
  ++num_edges_;
  FSIM_DCHECK(std::is_sorted(out_[from].begin(), out_[from].end()));
  FSIM_DCHECK(std::binary_search(in_[to].begin(), in_[to].end(), from));
  return Status::OK();
}

Status DynamicGraph::RemoveEdge(NodeId from, NodeId to) {
  FSIM_RETURN_NOT_OK(ValidateEndpoints(NumNodes(), from, to));
  if (!SortedErase(out_[from], to)) {
    return Status::NotFound(StrFormat("edge (%u, %u) not present", from, to));
  }
  SortedErase(in_[to], from);
  --num_edges_;
  FSIM_DCHECK(!std::binary_search(out_[from].begin(), out_[from].end(), to));
  FSIM_DCHECK(!std::binary_search(in_[to].begin(), in_[to].end(), from));
  return Status::OK();
}

Status DynamicGraph::ValidateAdjacency() const {
  ValidatorCounters::Bump("DynamicGraph::ValidateAdjacency");
  const size_t n = NumNodes();
  if (out_.size() != n || in_.size() != n) {
    return Status::Internal(StrFormat(
        "adjacency arrays sized %zu/%zu for %zu labeled nodes", out_.size(),
        in_.size(), n));
  }
  size_t out_total = 0;
  size_t in_total = 0;
  for (NodeId u = 0; u < n; ++u) {
    const auto check_list = [&](const std::vector<NodeId>& list,
                                const char* kind) -> Status {
      for (size_t k = 0; k < list.size(); ++k) {
        if (list[k] >= n) {
          return Status::Internal(StrFormat(
              "%s list of node %u targets out-of-range node %u", kind, u,
              list[k]));
        }
        if (k > 0 && list[k] <= list[k - 1]) {
          return Status::Internal(StrFormat(
              "%s list of node %u not strictly ascending at position %zu",
              kind, u, k));
        }
      }
      return Status::OK();
    };
    FSIM_RETURN_NOT_OK(check_list(out_[u], "out"));
    FSIM_RETURN_NOT_OK(check_list(in_[u], "in"));
    out_total += out_[u].size();
    in_total += in_[u].size();
    // Mirror consistency: every out-edge must be readable back through the
    // in-direction (and the totals below force the converse).
    for (NodeId v : out_[u]) {
      if (!std::binary_search(in_[v].begin(), in_[v].end(), u)) {
        return Status::Internal(StrFormat(
            "edge (%u, %u) present in out[%u] but missing from in[%u]", u, v,
            u, v));
      }
    }
  }
  if (out_total != num_edges_ || in_total != num_edges_) {
    return Status::Internal(StrFormat(
        "edge accounting: num_edges=%zu but Σ|out|=%zu, Σ|in|=%zu",
        num_edges_, out_total, in_total));
  }
  return Status::OK();
}

bool DynamicGraph::HasEdge(NodeId u, NodeId v) const {
  FSIM_DCHECK(u < NumNodes());
  return std::binary_search(out_[u].begin(), out_[u].end(), v);
}

Graph DynamicGraph::ToGraph() const {
  GraphBuilder b(dict_);
  b.ReserveNodes(NumNodes());
  b.ReserveEdges(num_edges_);
  for (NodeId u = 0; u < NumNodes(); ++u) {
    b.AddNodeWithLabelId(labels_[u]);
  }
  for (NodeId u = 0; u < NumNodes(); ++u) {
    for (NodeId w : out_[u]) b.AddEdge(u, w);
  }
  return std::move(b).BuildOrDie();
}

}  // namespace fsim
