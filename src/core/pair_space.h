// The candidate-pair space of Algorithm 1 (the paper's Hc/Hp key set): the
// u-major maintained pair keys and the hash-free function from a node pair
// to its slot among them — the one owner of that decision. Score
// containers share an immutable space (std::shared_ptr<const PairSpace>),
// so a snapshot copies only its values.
#ifndef FSIM_CORE_PAIR_SPACE_H_
#define FSIM_CORE_PAIR_SPACE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/hash.h"  // PairKey / PairFirst / PairSecond
#include "common/result.h"
#include "core/fsim_config.h"
#include "core/operators.h"
#include "graph/graph.h"
#include "label/label_similarity.h"

namespace fsim {

class ThreadPool;

/// The θ-candidate set in label-class form (Remark 2). For each g1 label a,
/// M_a is the ascending list of g2 nodes whose label is θ-compatible with
/// a, and candidate row u is exactly M_label(u). Candidate (u, v) has the
/// id row_offsets[u] + rank of v in M_label(u); ids run u-major, so before
/// pruning they are the keys' slots. At θ <= 0 every M is all of g2, so the
/// rank is v itself and no label table exists. Otherwise
///
///   id = row_offsets[u] + rank[Block(label(u), label(v)) + pos2[v]]
///
/// where pos2[v] is v's rank in its g2 label group and rank holds ranks in
/// M_a. Each g1 label a has the ascending list of its compatible g2 labels,
/// each with its rank base (the start of its group's ranks in a's rank
/// range); Block binary-searches that list and returns kIncompatible for a
/// label the θ filter rejects. Every table is sized by the dictionary, the
/// nodes or the compatible label and node pairs, never by |Σ|² or
/// |V1|·|V2|. After upper-bound pruning a candidate -> ref array maps each
/// id to its maintained slot, or to a ref of kNeighborRefPrunedTag or more
/// for a dropped pair.
class PairSpace {
 public:
  /// Find's answer for a pair outside the space.
  static constexpr uint32_t kNotFound = ~0u;
  /// Block's answer for a label pair the θ filter rejects.
  static constexpr uint32_t kIncompatible = ~0u;

  /// The g2 labels compatible with one g1 label, ascending, with their
  /// rank bases.
  struct Compatible {
    const LabelId* labels_begin;
    const LabelId* labels_end;
    const uint32_t* blocks;

    /// Rank base of g2 label b, or kIncompatible. A one-label list
    /// (every list at θ = 1) costs one compare; longer ones a branch-free
    /// binary search.
    uint32_t Block(LabelId b) const {
      const LabelId* first = labels_begin;
      size_t len = static_cast<size_t>(labels_end - labels_begin);
      if (len == 1) return *first == b ? blocks[0] : kIncompatible;
      if (len == 0) return kIncompatible;
      while (len > 1) {
        const size_t half = len / 2;
        first = first[half] <= b ? first + half : first;
        len -= half;
      }
      return *first == b ? blocks[first - labels_begin] : kIncompatible;
    }
  };

  /// The empty space: no rows, every Find misses.
  PairSpace() = default;

  /// Enumerates the θ-candidates of g1 x g2, writing the keys u-major in
  /// place (no sort); with `rows`, only rows u with (*rows)[u] set are
  /// filled. InvalidArgument when the count exceeds config.pair_limit
  /// (checked before any count-sized allocation) or the 32-bit slot range.
  /// `pool` parallelizes the key fill; nullptr fills serially.
  static Result<PairSpace> Build(const Graph& g1, const Graph& g2,
                                 const FSimConfig& config,
                                 const LabelSimilarityCache& lsim,
                                 ThreadPool* pool = nullptr,
                                 const std::vector<bool>* rows = nullptr);

  /// The shared, unpruned θ-candidate space of (g1, g2, config): what a
  /// score file for these graphs must fit. Validates config first.
  static Result<std::shared_ptr<const PairSpace>> Of(const Graph& g1,
                                                     const Graph& g2,
                                                     const FSimConfig& config);

  /// A shared empty space (default-constructed score containers).
  static const std::shared_ptr<const PairSpace>& Empty();

  /// Upper-bound pruning: `refs` holds one ref per candidate id, its slot
  /// among the kept ones or kNeighborRefPrunedTag or more when dropped.
  void Prune(std::vector<uint32_t> refs);

  /// The maintained pairs' keys, ascending: u-major, then v.
  size_t size() const { return keys_.size(); }
  const std::vector<uint64_t>& keys() const { return keys_; }
  /// |V1|: Row and Find answer rows below it.
  size_t num_rows() const { return n1_; }

  /// Slot of (u, v), or kNotFound when u or v is out of range, the label
  /// pair is θ-incompatible, the row is empty or the pair was pruned.
  uint32_t Find(NodeId u, NodeId v) const {
    if (u >= n1_ || v >= n2_) return kNotFound;
    const uint64_t begin = row_offsets_[u];
    if (begin == row_offsets_[u + 1]) return kNotFound;
    uint64_t id = begin + v;
    if (!all_compatible_) {
      const uint32_t block = CompatibleWith(label1_[u]).Block(label2_[v]);
      if (block == kIncompatible) return kNotFound;
      id = begin + rank_[block + pos2_[v]];
    }
    if (refs_.empty()) return static_cast<uint32_t>(id);
    const uint32_t ref = refs_[id];
    return ref < kNeighborRefPrunedTag ? ref : kNotFound;
  }

  /// [first, last) slots of row u; empty for u out of range.
  std::pair<size_t, size_t> Row(NodeId u) const {
    if (u >= n1_) return {0, 0};
    const std::vector<uint64_t>& offsets =
        refs_.empty() ? row_offsets_ : slot_offsets_;
    return {offsets[u], offsets[u + 1]};
  }

  // The candidate-id function, which the neighbor-index build walks label
  // run by label run instead of calling Find per pair.

  /// θ <= 0: every label pair is compatible and the rank of y is y.
  bool all_compatible() const { return all_compatible_; }
  /// Candidate id of row x's first pair, for x <= |V1|; row x is empty
  /// (θ-incompatible with all of g2, or left unfilled by Build's `rows`)
  /// when RowBegin(x + 1) equals it.
  uint64_t RowBegin(NodeId x) const { return row_offsets_[x]; }
  /// The compatible g2 labels of g1 label a (θ > 0 only).
  Compatible CompatibleWith(LabelId a) const {
    return Compatible{labels_.data() + compatible_begin_[a],
                      labels_.data() + compatible_begin_[a + 1],
                      blocks_.data() + compatible_begin_[a]};
  }
  /// Rank of y in M_a, given its label's rank base in a's list.
  uint32_t Rank(uint32_t block, NodeId y) const {
    return rank_[block + pos2_[y]];
  }
  /// The neighbor-index ref of candidate id: the id itself without
  /// pruning, else its slot or its dropped-pair ref.
  uint32_t RefOf(uint64_t id) const {
    return refs_.empty() ? static_cast<uint32_t>(id) : refs_[id];
  }

 private:
  /// Build's label work for θ > 0: fills the compatible-label lists, pos2,
  /// rank and the node labels, writes each g1 label a's M into `merged` at
  /// [m_begin[a], m_begin[a + 1]), and sets `total` to the candidate count
  /// over the filled rows. Fails like Build when the count is over
  /// config.pair_limit; past the limit it only counts, so nothing it
  /// allocates outgrows the limit.
  Status BuildLabelTables(const Graph& g1, const Graph& g2,
                          const FSimConfig& config,
                          const LabelSimilarityCache& lsim,
                          const std::vector<bool>* rows,
                          std::vector<uint32_t>* m_begin,
                          std::vector<NodeId>* merged, uint64_t* total);

  size_t n1_ = 0;
  size_t n2_ = 0;
  bool all_compatible_ = false;
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> row_offsets_;  // |V1| + 1 candidate-id offsets
  // Per dictionary label + 1: label a's compatible g2 labels and their
  // rank bases are [compatible_begin_[a], compatible_begin_[a + 1]) of
  // labels_ and blocks_ (empty for labels absent from the filled rows).
  std::vector<uint32_t> compatible_begin_;
  std::vector<LabelId> labels_;
  std::vector<uint32_t> blocks_;
  std::vector<uint32_t> rank_;    // rank in M_a, per block and pos2
  std::vector<uint32_t> pos2_;    // per g2 node: rank inside its label group
  std::vector<LabelId> label1_;   // per g1 node (θ > 0)
  std::vector<LabelId> label2_;   // per g2 node (θ > 0)
  // After pruning (else empty, and ids are slots): every candidate id's
  // ref, and the |V1| + 1 slot offsets of the kept rows.
  std::vector<uint32_t> refs_;
  std::vector<uint64_t> slot_offsets_;
};

}  // namespace fsim

#endif  // FSIM_CORE_PAIR_SPACE_H_
