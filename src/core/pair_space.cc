#include "core/pair_space.h"

#include <algorithm>
#include <numeric>
#include <span>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/fsim_engine.h"

namespace fsim {

namespace {

/// Rows per parallel chunk of the key fill.
constexpr size_t kEnumerateRowGrain = 64;

/// Fails a candidate count over config.pair_limit or the 32-bit slot range
/// (slots and neighbor refs are 32-bit).
Status CheckCandidateCount(uint64_t total, const FSimConfig& config) {
  if (total > config.pair_limit) {
    return Status::InvalidArgument(StrFormat(
        config.theta <= 0.0
            ? "candidate pairs %llu exceed pair_limit %llu (theta=0 "
              "enumerates |V1|x|V2|)"
            : "candidate pairs %llu exceed pair_limit %llu",
        static_cast<unsigned long long>(total),
        static_cast<unsigned long long>(config.pair_limit)));
  }
  if (total >= PairSpace::kNotFound) {
    return Status::InvalidArgument(StrFormat(
        "candidate pairs %llu exceed the 32-bit pair-slot range",
        static_cast<unsigned long long>(total)));
  }
  return Status::OK();
}

}  // namespace

Result<PairSpace> PairSpace::Build(const Graph& g1, const Graph& g2,
                                   const FSimConfig& config,
                                   const LabelSimilarityCache& lsim,
                                   ThreadPool* pool,
                                   const std::vector<bool>* rows) {
  const size_t n1 = g1.NumNodes();
  const size_t n2 = g2.NumNodes();
  auto filled = [rows](NodeId u) { return rows == nullptr || (*rows)[u]; };
  PairSpace space;
  space.n1_ = n1;
  space.n2_ = n2;

  // Row u is M_label(u). At θ <= 0 every M is all of g2; otherwise
  // `merged` holds the labels' M back to back, label a's at
  // [m_begin[a], m_begin[a + 1]).
  std::vector<uint32_t> m_begin;
  std::vector<NodeId> merged;
  uint64_t total = 0;
  if (config.theta <= 0.0) {
    // Every pair of a filled row is a candidate: the count is known before
    // any label work.
    const uint64_t filled_rows =
        rows == nullptr ? n1 : std::count(rows->begin(), rows->end(), true);
    total = filled_rows * n2;
    FSIM_RETURN_NOT_OK(CheckCandidateCount(total, config));
    space.all_compatible_ = true;
    merged.resize(n2);
    std::iota(merged.begin(), merged.end(), NodeId{0});
  } else {
    FSIM_RETURN_NOT_OK(space.BuildLabelTables(g1, g2, config, lsim, rows,
                                              &m_begin, &merged, &total));
  }
  auto m_of = [&](NodeId u) -> std::span<const NodeId> {
    if (!filled(u)) return {};
    if (space.all_compatible_) return merged;
    const LabelId a = g1.Label(u);
    return {merged.data() + m_begin[a], merged.data() + m_begin[a + 1]};
  };

  // Row u of the keys is M_label(u), written in place: the keys come out
  // u-major and v-ascending with no sort.
  space.row_offsets_.assign(n1 + 1, 0);
  for (NodeId u = 0; u < n1; ++u) {
    space.row_offsets_[u + 1] = space.row_offsets_[u] + m_of(u).size();
  }
  space.keys_.resize(total);
  ThreadPool serial_pool(1);
  if (pool == nullptr) pool = &serial_pool;
  pool->ParallelForChunked(n1, kEnumerateRowGrain,
                           [&](int, size_t begin, size_t end) {
    for (size_t u = begin; u < end; ++u) {
      const std::span<const NodeId> m = m_of(static_cast<NodeId>(u));
      uint64_t* row = space.keys_.data() + space.row_offsets_[u];
      for (size_t k = 0; k < m.size(); ++k) {
        row[k] = PairKey(static_cast<NodeId>(u), m[k]);
      }
    }
  });
  return space;
}

Result<std::shared_ptr<const PairSpace>> PairSpace::Of(
    const Graph& g1, const Graph& g2, const FSimConfig& config) {
  FSIM_RETURN_NOT_OK(ValidateFSimConfig(g1, g2, config));
  const LabelSimilarityCache lsim(*g1.dict(), config.label_sim);
  FSIM_ASSIGN_OR_RETURN(PairSpace space, Build(g1, g2, config, lsim));
  return std::make_shared<const PairSpace>(std::move(space));
}

const std::shared_ptr<const PairSpace>& PairSpace::Empty() {
  static const std::shared_ptr<const PairSpace> empty =
      std::make_shared<const PairSpace>();
  return empty;
}

void PairSpace::Prune(std::vector<uint32_t> refs) {
  FSIM_CHECK_EQ(refs.size(), keys_.size());
  slot_offsets_.assign(n1_ + 1, 0);
  size_t kept = 0;
  for (size_t u = 0; u < n1_; ++u) {
    for (uint64_t id = row_offsets_[u]; id < row_offsets_[u + 1]; ++id) {
      if (refs[id] >= kNeighborRefPrunedTag) continue;
      FSIM_DCHECK(refs[id] == kept);
      keys_[kept++] = keys_[id];
    }
    slot_offsets_[u + 1] = kept;
  }
  keys_.resize(kept);
  refs_ = std::move(refs);
}

Status PairSpace::BuildLabelTables(const Graph& g1, const Graph& g2,
                                   const FSimConfig& config,
                                   const LabelSimilarityCache& lsim,
                                   const std::vector<bool>* rows,
                                   std::vector<uint32_t>* m_begin,
                                   std::vector<NodeId>* merged,
                                   uint64_t* total) {
  const size_t n1 = g1.NumNodes();
  const size_t n2 = g2.NumNodes();
  const size_t dict_size = g1.dict()->size();

  // g2's label groups: each node's rank inside its group, the group sizes,
  // and the nodes in (label, id) order.
  std::vector<uint32_t> group_size(dict_size, 0);
  pos2_.resize(n2);
  label2_.resize(n2);
  for (NodeId v = 0; v < n2; ++v) {
    label2_[v] = g2.Label(v);
    pos2_[v] = group_size[label2_[v]]++;
  }
  std::vector<uint32_t> group_begin(dict_size + 1, 0);
  for (LabelId b = 0; b < dict_size; ++b) {
    group_begin[b + 1] = group_begin[b] + group_size[b];
  }
  std::vector<NodeId> by_label2(n2);
  for (NodeId v = 0; v < n2; ++v) {
    by_label2[group_begin[label2_[v]] + pos2_[v]] = v;
  }
  std::vector<LabelId> labels2;  // the labels present in g2, ascending
  for (LabelId b = 0; b < dict_size; ++b) {
    if (group_size[b] != 0) labels2.push_back(b);
  }
  // The filled rows per g1 label.
  std::vector<uint32_t> count1(dict_size, 0);
  label1_.resize(n1);
  for (NodeId u = 0; u < n1; ++u) {
    label1_[u] = g1.Label(u);
    if (rows == nullptr || (*rows)[u]) ++count1[label1_[u]];
  }

  // Each g1 label's compatible g2 labels and |M|. Past the pair limit the
  // loop only counts, for the error message, so the label lists never
  // outgrow the limit. L_I(a, b) is 1 only for b = a, so an indicator
  // label's one candidate label is its own; other kinds test every label
  // present in g2.
  compatible_begin_.assign(dict_size + 1, 0);
  m_begin->assign(dict_size + 1, 0);
  const bool indicator = lsim.kind() == LabelSimKind::kIndicator;
  *total = 0;
  for (LabelId a = 0; a < dict_size; ++a) {
    const bool keep = *total <= config.pair_limit;
    uint64_t size = 0;
    auto take = [&](LabelId b) {
      size += group_size[b];
      if (keep) labels_.push_back(b);
    };
    if (count1[a] != 0) {
      if (indicator) {
        if (group_size[a] != 0 && lsim.Compatible(a, a, config.theta)) {
          take(a);
        }
      } else {
        for (LabelId b : labels2) {
          if (lsim.Compatible(a, b, config.theta)) take(b);
        }
      }
    }
    *total += count1[a] * size;
    compatible_begin_[a + 1] = static_cast<uint32_t>(labels_.size());
    (*m_begin)[a + 1] = (*m_begin)[a] + static_cast<uint32_t>(size);
  }
  FSIM_RETURN_NOT_OK(CheckCandidateCount(*total, config));

  // Each label's M and rank range. Within label a's range, compatible
  // label b's block holds the ranks of b's group in pos2 order.
  merged->resize(m_begin->back());
  rank_.resize(m_begin->back());
  blocks_.resize(labels_.size());
  std::vector<uint32_t> block_of_label(dict_size);  // scratch per label
  for (LabelId a = 0; a < dict_size; ++a) {
    const uint32_t begin = (*m_begin)[a];
    NodeId* m = merged->data() + begin;
    uint32_t block = begin;
    for (uint32_t j = compatible_begin_[a]; j < compatible_begin_[a + 1];
         ++j) {
      const LabelId b = labels_[j];
      blocks_[j] = block;
      block_of_label[b] = block;
      std::copy(by_label2.begin() + group_begin[b],
                by_label2.begin() + group_begin[b + 1], m + (block - begin));
      block += group_size[b];
    }
    const uint32_t size = (*m_begin)[a + 1] - begin;
    if (compatible_begin_[a + 1] - compatible_begin_[a] > 1) {
      std::sort(m, m + size);
    }
    for (uint32_t k = 0; k < size; ++k) {
      const NodeId y = m[k];
      rank_[block_of_label[label2_[y]] + pos2_[y]] = k;
    }
  }
  return Status::OK();
}

}  // namespace fsim
