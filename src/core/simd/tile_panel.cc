#include "core/simd/tile_panel.h"

#include <algorithm>

#include "common/check.h"

namespace fsim {
namespace simd {

namespace {

/// An entry's slot count: its candidates padded to a whole nibble.
uint32_t PaddedSlots(size_t size) {
  return static_cast<uint32_t>((size + 3) & ~size_t{3});
}

template <typename Vec>
size_t CapacityBytes(const Vec& v) {
  return v.capacity() * sizeof(typename Vec::value_type);
}

}  // namespace

size_t TilePanel::MemoryBytes() const {
  return CapacityBytes(ids) + CapacityBytes(entry_off) +
         CapacityBytes(sizes) + CapacityBytes(items);
}

size_t TilePanelSet::MemoryBytes() const {
  size_t total = tiles.capacity() * sizeof(TilePanel);
  for (const TilePanel& t : tiles) total += t.MemoryBytes();
  return total;
}

TilePanelSet BuildTilePanelSet(
    size_t n2, size_t tile_width,
    const std::function<std::span<const NodeId>(NodeId)>& neighbors) {
  FSIM_CHECK(tile_width > 0 && tile_width <= 0x10000);
  TilePanelSet set;
  set.tiles.reserve((n2 + tile_width - 1) / tile_width);
  for (size_t vb = 0; vb < n2; vb += tile_width) {
    const size_t v_hi = std::min(n2, vb + tile_width);
    TilePanel panel;
    panel.entries = static_cast<uint32_t>(v_hi - vb);
    panel.entry_off.resize(panel.entries + 1);
    panel.sizes.resize(panel.entries);
    uint32_t slots = 0;
    for (size_t v = vb; v < v_hi; ++v) {
      slots += PaddedSlots(neighbors(static_cast<NodeId>(v)).size());
    }
    // Pad ids stay 0 (safe to gather, never in a mask).
    panel.ids.assign(slots, 0);
    panel.items.resize(slots / 4);
    uint32_t slot = 0;
    for (size_t v = vb; v < v_hi; ++v) {
      const uint16_t entry = static_cast<uint16_t>(v - vb);
      const std::span<const NodeId> s2 = neighbors(static_cast<NodeId>(v));
      panel.entry_off[entry] = slot;
      panel.sizes[entry] = static_cast<uint32_t>(s2.size());
      for (size_t k = 0; k < s2.size(); ++k) {
        panel.ids[slot + k] = static_cast<int32_t>(s2[k]);
      }
      // Each entry is padded to a nibble boundary so no work item
      // straddles two entries; only the last nibble can be partial.
      const uint32_t next = slot + PaddedSlots(s2.size());
      for (uint32_t nib = slot; nib < next; nib += 4) {
        const uint32_t live = std::min<uint32_t>(
            4, slot + static_cast<uint32_t>(s2.size()) - nib);
        panel.items[nib / 4] = {nib, entry,
                                static_cast<uint8_t>((1u << live) - 1u), 0};
      }
      slot = next;
    }
    panel.entry_off[panel.entries] = slot;
    set.max_slots = std::max(set.max_slots, slot);
    set.tiles.push_back(std::move(panel));
  }
  return set;
}

uint64_t TilePanelSetBytes(
    size_t n2, size_t tile_width,
    const std::function<std::span<const NodeId>(NodeId)>& neighbors) {
  FSIM_CHECK(tile_width > 0);
  const uint64_t tiles = (n2 + tile_width - 1) / tile_width;
  // Per tile: the struct and entry_off's closing slot.
  uint64_t bytes = tiles * (sizeof(TilePanel) + sizeof(uint32_t));
  for (size_t v = 0; v < n2; ++v) {
    const uint64_t slots =
        PaddedSlots(neighbors(static_cast<NodeId>(v)).size());
    bytes += slots * sizeof(int32_t) +           // ids
             2 * sizeof(uint32_t) +              // entry_off, sizes
             slots / 4 * sizeof(PanelWorkItem);  // one item per nibble
  }
  return bytes;
}

}  // namespace simd
}  // namespace fsim
