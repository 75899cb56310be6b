// Precomputed SoA candidate panels for the tile row pass
// (core/simd/kernels.h), the iterate path of ComputeFSim's θ = 0 max-family
// runs (core/panel_engine.h). At θ = 0 every pair is a candidate, so a
// row x of S1 = N±(u) pairs with every node of each right neighborhood
// s2s[t] = N±(v). The neighbor lists are iteration-invariant, so the engine
// builds one TilePanelSet per direction up front and every (row, tile)
// evaluation reduces to walking the tile's work list of 4-slot gathers —
// at every SIMD level, the scalar one included.
//
// Layout per tile panel:
//  * slot space — tile entries concatenated, each entry's candidates in
//    the id-sorted order of v's neighbor list (so slot order within an
//    entry is position order), padded to a multiple of 4 slots so an
//    entry never shares a work-item nibble with its neighbor and each
//    nibble's 4 doubles in a 64-byte-aligned scratch panel are one aligned
//    32-byte vector. Pad slots carry id 0 (a safe gather target) and never
//    appear in any work-item mask.
//  * ids[slot] — the candidate's g2 node id (int32; the pair_limit keeps
//    n2 < 2^31), i.e. the gather index into a previous-score row.
//  * items — one PanelWorkItem per nibble holding at least one candidate,
//    in ascending slot (hence ascending entry) order; every S1 row walks
//    the same list.
#ifndef FSIM_CORE_SIMD_TILE_PANEL_H_
#define FSIM_CORE_SIMD_TILE_PANEL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/aligned.h"
#include "core/simd/kernels.h"
#include "graph/graph.h"

namespace fsim {
namespace simd {

/// One v-tile's candidate panel. See the file comment for the layout.
struct TilePanel {
  uint32_t entries = 0;  // tile entries (the tile's g2 nodes)

  AlignedVector<int32_t> ids;
  /// Per entry t: first slot, always a multiple of 4; entry_off[entries]
  /// is the panel's slot count (the scratch colmax panel length).
  std::vector<uint32_t> entry_off;
  /// Per entry t: candidate count |N±(v)| of its node v (slots beyond
  /// entry_off[t] + sizes[t] are padding).
  std::vector<uint32_t> sizes;
  AlignedVector<PanelWorkItem> items;

  uint32_t SlotCount() const { return entry_off[entries]; }

  size_t MemoryBytes() const;
};

/// All tiles of one direction, plus the scratch sizing shared by them.
struct TilePanelSet {
  std::vector<TilePanel> tiles;
  uint32_t max_slots = 0;  // max SlotCount() over tiles (colmax scratch)

  size_t MemoryBytes() const;
};

/// Builds the panels for g2 nodes [0, n2) in tiles of `tile_width`
/// (at most 65536, the PanelWorkItem entry range). `neighbors(v)` returns
/// the direction's id-sorted N±(v). Every buffer is sized exactly, so
/// MemoryBytes() equals TilePanelSetBytes for the same arguments.
TilePanelSet BuildTilePanelSet(
    size_t n2, size_t tile_width,
    const std::function<std::span<const NodeId>(NodeId)>& neighbors);

/// MemoryBytes() of the set BuildTilePanelSet returns for the same
/// arguments, computed from the neighbor-list sizes without building
/// anything (the engine's budget check).
uint64_t TilePanelSetBytes(
    size_t n2, size_t tile_width,
    const std::function<std::span<const NodeId>(NodeId)>& neighbors);

}  // namespace simd
}  // namespace fsim

#endif  // FSIM_CORE_SIMD_TILE_PANEL_H_
