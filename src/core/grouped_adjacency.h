// Label-class-grouped neighbor lists: each node's out- or in-neighbor
// list re-sorted by (label class, node id), with one run per class.
// PairStore::Build walks g2's runs to visit only the label-compatible
// candidate pairs of a neighbor-index span.
#ifndef FSIM_CORE_GROUPED_ADJACENCY_H_
#define FSIM_CORE_GROUPED_ADJACENCY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace fsim {

/// One same-label-class run inside a label-class-grouped neighbor list:
/// [begin, end) index the grouped node/position arrays of the owning
/// GroupedNeighborhood. Runs are ordered by ascending class id; within a
/// run, nodes keep ascending node-id (hence ascending original-position)
/// order.
struct ClassGroup {
  LabelId label;
  uint32_t begin;
  uint32_t end;
};

/// A label-class-grouped view of one neighbor set S = N±(u): nodes[k] is
/// the k-th neighbor in (class, id) order and pos[k] its position in the
/// original id-sorted neighbor list, so a reader can walk S1 rows and
/// reduce S2 columns in the nested loops' ascending-position order. `size`
/// is |S|.
struct GroupedNeighborhood {
  std::span<const ClassGroup> groups;
  const NodeId* nodes = nullptr;
  const uint32_t* pos = nullptr;
  size_t size = 0;
};

/// One direction's adjacency of one graph, re-sorted per node by
/// (label class, node id) with class-run offsets. Within a run node ids —
/// and therefore original neighbor-list positions — stay ascending.
class GroupedAdjacency {
 public:
  /// Builds the grouped view of N+(·) (`out` = true) or N-(·).
  static GroupedAdjacency Build(const Graph& g, bool out);

  /// The grouped view of node u's neighbor set.
  GroupedNeighborhood Neighborhood(NodeId u) const {
    const uint64_t begin = node_offsets_[u];
    return GroupedNeighborhood{
        {groups_.data() + group_offsets_[u],
         groups_.data() + group_offsets_[u + 1]},
        nodes_.data() + begin,
        pos_.data() + begin,
        static_cast<size_t>(node_offsets_[u + 1] - begin)};
  }

  size_t MemoryBytes() const {
    return nodes_.capacity() * sizeof(NodeId) +
           pos_.capacity() * sizeof(uint32_t) +
           groups_.capacity() * sizeof(ClassGroup) +
           node_offsets_.capacity() * sizeof(uint64_t) +
           group_offsets_.capacity() * sizeof(uint64_t);
  }

 private:
  std::vector<uint64_t> node_offsets_;   // |V|+1, into nodes_/pos_
  std::vector<uint64_t> group_offsets_;  // |V|+1, into groups_
  std::vector<NodeId> nodes_;            // neighbors in (class, id) order
  std::vector<uint32_t> pos_;            // original position of nodes_[k]
  std::vector<ClassGroup> groups_;       // class runs, begin/end local to node
};

}  // namespace fsim

#endif  // FSIM_CORE_GROUPED_ADJACENCY_H_
