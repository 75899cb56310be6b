#include "core/grouped_adjacency.h"

#include <algorithm>
#include <numeric>

namespace fsim {

GroupedAdjacency GroupedAdjacency::Build(const Graph& g, bool out) {
  GroupedAdjacency adj;
  const size_t n = g.NumNodes();
  adj.node_offsets_.resize(n + 1);
  adj.node_offsets_[0] = 0;
  for (NodeId u = 0; u < n; ++u) {
    adj.node_offsets_[u + 1] =
        adj.node_offsets_[u] + (out ? g.OutDegree(u) : g.InDegree(u));
  }
  adj.nodes_.resize(adj.node_offsets_[n]);
  adj.pos_.resize(adj.node_offsets_[n]);
  adj.group_offsets_.resize(n + 1);
  adj.group_offsets_[0] = 0;

  std::vector<uint32_t> order;
  for (NodeId u = 0; u < n; ++u) {
    const std::span<const NodeId> nbrs =
        out ? g.OutNeighbors(u) : g.InNeighbors(u);
    const uint32_t deg = static_cast<uint32_t>(nbrs.size());
    order.resize(deg);
    std::iota(order.begin(), order.end(), 0u);
    // Neighbor lists are id-sorted; a stable sort by class alone keeps ids
    // (and hence original positions) ascending within each class run.
    std::stable_sort(order.begin(), order.end(),
                     [&](uint32_t a, uint32_t b) {
                       return g.Label(nbrs[a]) < g.Label(nbrs[b]);
                     });
    NodeId* nodes = adj.nodes_.data() + adj.node_offsets_[u];
    uint32_t* pos = adj.pos_.data() + adj.node_offsets_[u];
    for (uint32_t k = 0; k < deg; ++k) {
      nodes[k] = nbrs[order[k]];
      pos[k] = order[k];
    }
    for (uint32_t k = 0; k < deg;) {
      const LabelId label = g.Label(nodes[k]);
      uint32_t end = k + 1;
      while (end < deg && g.Label(nodes[end]) == label) ++end;
      adj.groups_.push_back(ClassGroup{label, k, end});
      k = end;
    }
    adj.group_offsets_[u + 1] = adj.groups_.size();
  }
  // At most one run per edge; drop the growth slack so MemoryBytes stays
  // within EstimateBytes.
  adj.groups_.shrink_to_fit();
  return adj;
}

}  // namespace fsim
