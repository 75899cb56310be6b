// Precomputed SoA candidate panels for the tile row pass
// (core/simd/kernels.h), the dense engine's only iterate path. The engine
// evaluates a fixed S1 row set against a tile of right neighborhoods
// s2s[t]; the grouped views of g2 are iteration-invariant, so
// ComputeFSimDense builds one TilePanelSet per direction up front and every
// (row, tile) evaluation reduces to walking a per-class work list of masked
// 4-slot gathers — at every SIMD level, the scalar one included.
//
// Layout per tile panel:
//  * slot space — tile entries concatenated, each entry's candidates in
//    the grouped (class, id) order, padded to a multiple of 4 slots so an
//    entry never shares a work-item nibble with its neighbor and each
//    nibble's 4 doubles in a 64-byte-aligned scratch panel are one aligned
//    32-byte vector. Pad slots carry id 0 (a safe gather target) and never
//    appear in any work-item mask.
//  * ids[slot] — the candidate's g2 node id (int32; the pair_limit keeps
//    n2 < 2^31), i.e. the gather index into a previous-score row.
//  * inv[entry_off[t] + j] — the slot holding entry t's candidate at
//    position j of v's original id-sorted neighbor list (the inverse of
//    the grouped permutation). The both-sides finalize reads the column
//    maxima through inv to reproduce the nested loops' position-ascending
//    summation order without a scatter (only built when with_inv).
//  * WorkList(a) — for S1 row class a, the compacted PanelWorkItem list
//    covering exactly the nibbles with >= 1 θ-compatible candidate, in
//    ascending slot (hence ascending entry) order. The 64-at-a-time
//    compatibility test against the LabelClassTable bitsets happens here,
//    once per run, instead of per row in the iterate loop.
#ifndef FSIM_CORE_SIMD_TILE_PANEL_H_
#define FSIM_CORE_SIMD_TILE_PANEL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/aligned.h"
#include "core/dense_index.h"
#include "core/simd/kernels.h"

namespace fsim {
namespace simd {

/// One v-tile's candidate panel. See the file comment for the layout.
struct TilePanel {
  uint32_t vb = 0;       // first g2 node of the tile
  uint32_t entries = 0;  // tile entries (nodes vb .. vb + entries - 1)

  AlignedVector<int32_t> ids;
  AlignedVector<uint32_t> inv;
  /// Per entry t: first slot, always a multiple of 4; entry_off[entries]
  /// is the panel's slot count (the scratch colmax panel length).
  std::vector<uint32_t> entry_off;
  /// Per entry t: real candidate count |N±(vb + t)| (slots beyond
  /// entry_off[t] + sizes[t] are padding).
  std::vector<uint32_t> sizes;

  AlignedVector<PanelWorkItem> items;
  std::vector<size_t> class_off;  // per class: item range in `items`

  std::span<const PanelWorkItem> WorkList(LabelId a) const {
    return {items.data() + class_off[a], class_off[a + 1] - class_off[a]};
  }
  uint32_t SlotCount() const { return entry_off[entries]; }

  size_t MemoryBytes() const;
};

/// All tiles of one direction, plus the scratch sizing shared by them.
struct TilePanelSet {
  std::vector<TilePanel> tiles;
  uint32_t max_slots = 0;  // max SlotCount() over tiles (colmax scratch)

  size_t MemoryBytes() const;
};

/// Builds the panels for g2 nodes [0, n2) in tiles of `tile_width`.
/// `neighborhood(v)` returns the direction's grouped view of N±(v) (the
/// DenseIndex GroupedAdjacency lookup); `with_inv` materializes the inv
/// panel (needed only by the both-sides operator). Work lists are built
/// for classes [0, num_classes) against `compat`. Every buffer is sized
/// exactly, so MemoryBytes() stays within TilePanelSetBytesBound.
TilePanelSet BuildTilePanelSet(
    size_t n2, size_t tile_width, size_t num_classes,
    const ClassCompatView& compat, bool with_inv,
    const std::function<GroupedNeighborhood(NodeId)>& neighborhood);

/// What TilePanelSetBytesBound needs to know of one tile entry v: its
/// candidate count |N±(v)|, and the number of (row class a, candidate y)
/// pairs with a compatible with ℓ(y), a in [0, num_classes).
struct PanelEntryShape {
  uint32_t size = 0;
  uint64_t compatible_pairs = 0;
};

/// Upper bound on MemoryBytes() of the set BuildTilePanelSet returns for
/// the same n2, tile_width, num_classes and with_inv, computed from the
/// entries' shapes without building anything (the engine's budget check).
/// Class a's work list holds at most one item per nibble of entry v that
/// has a compatible candidate, so v adds at most
/// min(num_classes · ⌈size/4⌉, compatible_pairs) items; when every class
/// pair is compatible (θ = 0) the bound is exact.
uint64_t TilePanelSetBytesBound(
    size_t n2, size_t tile_width, size_t num_classes, bool with_inv,
    const std::function<PanelEntryShape(NodeId)>& shape);

}  // namespace simd
}  // namespace fsim

#endif  // FSIM_CORE_SIMD_TILE_PANEL_H_
