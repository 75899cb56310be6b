#include "core/simd/tile_panel.h"

#include <algorithm>

#include "common/check.h"

namespace fsim {
namespace simd {

namespace {

/// A class-contiguous candidate run in slot space, recorded at panel-fill
/// time so the per-class work lists can be derived without re-walking the
/// neighborhoods. Runs are recorded in ascending slot order.
struct SlotRun {
  LabelId label;
  uint32_t slot_begin;
  uint32_t slot_end;
  uint16_t entry;
};

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
  return CapacityBytes(ids) + CapacityBytes(inv) + CapacityBytes(entry_off) +
         CapacityBytes(sizes) + CapacityBytes(items) +
         CapacityBytes(class_off);
}

size_t TilePanelSet::MemoryBytes() const {
  size_t total = tiles.capacity() * sizeof(TilePanel);
  for (const TilePanel& t : tiles) total += t.MemoryBytes();
  return total;
}

TilePanelSet BuildTilePanelSet(
    size_t n2, size_t tile_width, size_t num_classes,
    const ClassCompatView& compat, bool with_inv,
    const std::function<GroupedNeighborhood(NodeId)>& neighborhood) {
  FSIM_CHECK(tile_width > 0);
  TilePanelSet set;
  set.tiles.reserve((n2 + tile_width - 1) / tile_width);
  std::vector<SlotRun> runs;
  std::vector<PanelWorkItem> items;  // one tile's work lists, then copied
  for (size_t vb = 0; vb < n2; vb += tile_width) {
    const size_t v_hi = std::min(n2, vb + tile_width);
    TilePanel panel;
    panel.vb = static_cast<uint32_t>(vb);
    panel.entries = static_cast<uint32_t>(v_hi - vb);
    panel.entry_off.resize(panel.entries + 1);
    panel.sizes.resize(panel.entries);
    uint32_t slots = 0;
    for (size_t v = vb; v < v_hi; ++v) {
      slots += PaddedSlots(neighborhood(static_cast<NodeId>(v)).size);
    }
    // Pad ids stay 0 (safe to gather, never in a mask).
    panel.ids.assign(slots, 0);
    if (with_inv) panel.inv.resize(slots);
    runs.clear();
    uint32_t slot = 0;
    for (size_t v = vb; v < v_hi; ++v) {
      const uint16_t entry = static_cast<uint16_t>(v - vb);
      panel.entry_off[entry] = slot;
      const GroupedNeighborhood s2 = neighborhood(static_cast<NodeId>(v));
      panel.sizes[entry] = static_cast<uint32_t>(s2.size);
      for (const ClassGroup& g : s2.groups) {
        runs.push_back({g.label, slot + g.begin, slot + g.end, entry});
      }
      for (size_t k = 0; k < s2.size; ++k) {
        panel.ids[slot + k] = static_cast<int32_t>(s2.nodes[k]);
      }
      // Each entry is padded to a nibble boundary so no work item
      // straddles two entries.
      const uint32_t next = slot + PaddedSlots(s2.size);
      if (with_inv) {
        // Inverse of the grouped permutation: the candidate at original
        // position j lives at slot inv[entry_off + j]. Pads map to
        // themselves (never read; kept in-range for the debug asserts).
        for (size_t k = 0; k < s2.size; ++k) {
          panel.inv[slot + s2.pos[k]] = slot + static_cast<uint32_t>(k);
        }
        for (uint32_t j = slot + static_cast<uint32_t>(s2.size); j < next;
             ++j) {
          panel.inv[j] = j;
        }
      }
      slot = next;
    }
    panel.entry_off[panel.entries] = slot;
    set.max_slots = std::max(set.max_slots, slot);

    // Per-class work lists: every nibble of every θ-compatible run, with
    // the nibble's candidate bits merged across runs (runs of one entry can
    // share a boundary nibble; entries cannot, thanks to the padding).
    items.clear();
    panel.class_off.resize(num_classes + 1);
    for (size_t a = 0; a < num_classes; ++a) {
      panel.class_off[a] = items.size();
      for (const SlotRun& run : runs) {
        if (run.slot_begin == run.slot_end) continue;
        if (!compat.Compatible(static_cast<LabelId>(a), run.label)) continue;
        for (uint32_t nib = run.slot_begin & ~3u; nib < run.slot_end;
             nib += 4) {
          const uint32_t lo = std::max(nib, run.slot_begin) - nib;
          const uint32_t hi = std::min(nib + 4, run.slot_end) - nib;
          const uint8_t bits =
              static_cast<uint8_t>(((1u << hi) - 1u) & ~((1u << lo) - 1u));
          if (items.size() > panel.class_off[a] && items.back().slot == nib) {
            items.back().mask |= bits;
          } else {
            items.push_back({nib, run.entry, bits, 0});
          }
        }
      }
    }
    panel.class_off[num_classes] = items.size();
    panel.items.assign(items.begin(), items.end());
    set.tiles.push_back(std::move(panel));
  }
  return set;
}

uint64_t TilePanelSetBytesBound(
    size_t n2, size_t tile_width, size_t num_classes, bool with_inv,
    const std::function<PanelEntryShape(NodeId)>& shape) {
  FSIM_CHECK(tile_width > 0);
  const uint64_t tiles = (n2 + tile_width - 1) / tile_width;
  uint64_t bytes = tiles * (sizeof(TilePanel) +
                            (num_classes + 1) * sizeof(size_t) +  // class_off
                            sizeof(uint32_t));  // entry_off's closing slot
  for (size_t v = 0; v < n2; ++v) {
    const PanelEntryShape entry = shape(static_cast<NodeId>(v));
    const uint64_t slots = PaddedSlots(entry.size);
    const uint64_t items =
        std::min<uint64_t>(num_classes * (slots / 4), entry.compatible_pairs);
    bytes += slots * (sizeof(int32_t) + (with_inv ? sizeof(uint32_t) : 0)) +
             2 * sizeof(uint32_t) +  // entry_off, sizes
             items * sizeof(PanelWorkItem);
  }
  return bytes;
}

}  // namespace simd
}  // namespace fsim
