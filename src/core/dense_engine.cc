#include "core/dense_engine.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "common/aligned.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/dense_index.h"
#include "core/fsim_engine.h"
#include "core/init_value.h"
#include "core/operators.h"
#include "core/simd/dispatch.h"
#include "core/simd/tile_panel.h"
#include "obs/trace.h"

namespace fsim {

namespace {

struct alignas(64) WorkerDelta {
  double value = 0.0;
};

/// Rows per parallel chunk. A chunk is also the tiling unit: all rows of a
/// chunk walk one v-tile before advancing, so the tile's N±(v) column sets
/// stay cache-hot across the chunk's u's.
constexpr size_t kDenseRowGrain = 8;

/// v-tile width of the iterate loop. 256 columns x 8 rows of `curr` plus
/// the tile's prev-row slices fit comfortably in L2 while keeping the tile
/// loop overhead negligible.
constexpr size_t kDenseVTile = 256;

/// The Table 3 name of a mapping, for the rejection message.
const char* MappingName(MappingKind kind) {
  switch (kind) {
    case MappingKind::kMaxPerRow: return "max-per-row (s)";
    case MappingKind::kInjectiveRow: return "injective-row (dp)";
    case MappingKind::kMaxBothSides: return "max-both-sides (b)";
    case MappingKind::kInjectiveSym: return "injective-sym (bj)";
    case MappingKind::kProduct: return "product (SimRank)";
  }
  return "unknown";
}

// The normalize kernel (core/simd/kernels.h NormalizeTileFn) receives
// OmegaKind as its integer value; pin the mapping it documents.
static_assert(static_cast<uint32_t>(OmegaKind::kSizeS1) == 0 &&
              static_cast<uint32_t>(OmegaKind::kSumSizes) == 1 &&
              static_cast<uint32_t>(OmegaKind::kGeoMean) == 2 &&
              static_cast<uint32_t>(OmegaKind::kMaxSize) == 3 &&
              static_cast<uint32_t>(OmegaKind::kProduct) == 4);

}  // namespace

std::vector<std::pair<NodeId, double>> DenseFSimScores::TopK(NodeId u,
                                                             size_t k) const {
  FSIM_DCHECK(u < n1_);
  std::vector<std::pair<NodeId, double>> row;
  row.reserve(n2_);
  const double* base = values_.data() + static_cast<size_t>(u) * n2_;
  for (NodeId v = 0; v < n2_; ++v) row.emplace_back(v, base[v]);
  const size_t take = std::min(k, row.size());
  std::partial_sort(row.begin(), row.begin() + take, row.end(),
                    [](const auto& a, const auto& b) {
                      if (a.second != b.second) return a.second > b.second;
                      return a.first < b.first;
                    });
  row.resize(take);
  return row;
}

Result<DenseFSimScores> ComputeFSimDense(const Graph& g1, const Graph& g2,
                                         const FSimConfig& config) {
  FSIM_RETURN_NOT_OK(ValidateFSimConfig(g1, g2, config));
  const OperatorConfig op = config.operators();
  if (op.mapping != MappingKind::kMaxPerRow &&
      op.mapping != MappingKind::kMaxBothSides) {
    return Status::InvalidArgument(StrFormat(
        "dense mode evaluates only the max-per-row (s) and max-both-sides "
        "(b) mappings, not %s; use ComputeFSim",
        MappingName(op.mapping)));
  }
  if (config.upper_bound) {
    return Status::InvalidArgument(
        "dense mode does not support upper-bound updating (it is the "
        "unpruned ablation baseline); use ComputeFSim");
  }
  const size_t n1 = g1.NumNodes();
  const size_t n2 = g2.NumNodes();
  const uint64_t total = static_cast<uint64_t>(n1) * n2;
  if (total > config.pair_limit) {
    return Status::InvalidArgument(
        StrFormat("dense matrix of %llu pairs exceeds pair_limit %llu",
                  static_cast<unsigned long long>(total),
                  static_cast<unsigned long long>(config.pair_limit)));
  }

  Timer build_timer;
  LabelSimilarityCache lsim(*g1.dict(), config.label_sim);
  const bool both_sides = op.mapping == MappingKind::kMaxBothSides;
  const bool use_out = config.w_out > 0.0;
  const bool use_in = config.w_in > 0.0;
  const size_t num_classes = g1.dict()->size();

  // The label-class index (core/dense_index.h) and the tile panels
  // (core/simd/tile_panel.h) are bounded together against the budget
  // before either is built. compatible_rows[b] counts the row classes a
  // panel work list may pair with a class-b candidate.
  {
    std::vector<uint32_t> compatible_rows(num_classes, 0);
    for (LabelId a = 0; a < num_classes; ++a) {
      for (LabelId b = 0; b < num_classes; ++b) {
        if (lsim.Compatible(a, b, config.theta)) ++compatible_rows[b];
      }
    }
    auto panel_bound = [&](bool out) -> uint64_t {
      return simd::TilePanelSetBytesBound(
          n2, kDenseVTile, num_classes, both_sides, [&](NodeId v) {
            const std::span<const NodeId> nbrs =
                out ? g2.OutNeighbors(v) : g2.InNeighbors(v);
            simd::PanelEntryShape shape;
            shape.size = static_cast<uint32_t>(nbrs.size());
            for (NodeId y : nbrs) {
              shape.compatible_pairs += compatible_rows[g2.Label(y)];
            }
            return shape;
          });
    };
    const uint64_t index_bytes = DenseIndex::EstimateBytes(g1, g2, config);
    const uint64_t panel_bytes = (use_out ? panel_bound(/*out=*/true) : 0) +
                                 (use_in ? panel_bound(/*out=*/false) : 0);
    if (index_bytes + panel_bytes > config.neighbor_index_budget_bytes) {
      return Status::ResourceExhausted(StrFormat(
          "dense engine needs up to %llu bytes (label-class index %llu, "
          "tile panels %llu), over neighbor_index_budget_bytes %llu",
          static_cast<unsigned long long>(index_bytes + panel_bytes),
          static_cast<unsigned long long>(index_bytes),
          static_cast<unsigned long long>(panel_bytes),
          static_cast<unsigned long long>(
              config.neighbor_index_budget_bytes)));
    }
  }

  ThreadPool pool(config.num_threads);
  const DenseIndex index = DenseIndex::Build(g1, g2, config, lsim);
  const LabelClassTable& table = index.table();

  // Kernel level for this run (docs/performance.md "Vectorized tile
  // kernels"). Every level runs the same panel loop and is bit-identical
  // to the scalar kernels, so the knob never changes results.
  const simd::SimdLevel simd_level = simd::ResolveSimdLevel(config.simd);
  const simd::SimdKernels& kern = simd::KernelsFor(simd_level);

  const uint32_t max_iters = FSimIterationBound(config);
  const uint32_t num_threads = static_cast<uint32_t>(config.num_threads);

  // g2's label row as gather indices, shared by the kLabelSim seeding and
  // the combine kernel's label-term gather.
  AlignedVector<int32_t> labels2(n2);
  for (size_t v = 0; v < n2; ++v) {
    labels2[v] = static_cast<int32_t>(g2.Label(static_cast<NodeId>(v)));
  }

  // SoA candidate panels. The grouped views of g2 are iteration-invariant,
  // so they are flattened once per run and direction.
  simd::TilePanelSet out_panels;
  simd::TilePanelSet in_panels;
  FSimStats stats;
  if (use_out) {
    out_panels = simd::BuildTilePanelSet(
        n2, kDenseVTile, num_classes, table.view(), both_sides,
        [&](NodeId v) { return index.Out2(v); });
    stats.simd_panel_bytes += out_panels.MemoryBytes();
  }
  if (use_in) {
    in_panels = simd::BuildTilePanelSet(
        n2, kDenseVTile, num_classes, table.view(), both_sides,
        [&](NodeId v) { return index.In2(v); });
    stats.simd_panel_bytes += in_panels.MemoryBytes();
  }

  AlignedVector<double> prev(total);
  AlignedVector<double> curr(total);
  FSIM_DCHECK(IsSimdAligned(prev.data()) && IsSimdAligned(curr.data()));
  // FSim^0 seeding is O(n1 * n2) and embarrassingly parallel; chunk it over
  // the same pool the iterate loop uses instead of leaving it serial. Each
  // InitKind maps onto one flat row kernel (fill / gather / degree-ratio)
  // with values identical to InitValue at every SIMD level.
  std::vector<double> seed_d2;
  if (config.init == InitKind::kDegreeRatio) {
    seed_d2.resize(n2);
    for (size_t v = 0; v < n2; ++v) {
      seed_d2[v] = static_cast<double>(g2.OutDegree(static_cast<NodeId>(v)));
    }
  }
  std::vector<std::vector<double>> seed_sim_rows(num_threads);
  pool.ParallelForChunked(
      n1, kDenseRowGrain, [&](int worker, size_t begin, size_t end) {
        for (size_t u_index = begin; u_index < end; ++u_index) {
          const NodeId u = static_cast<NodeId>(u_index);
          double* row = prev.data() + u_index * n2;
          switch (config.init) {
            case InitKind::kLabelSim: {
              // L(ℓ(u), ·) per class, then one gather through g2's labels.
              auto& sim_row = seed_sim_rows[worker];
              sim_row.resize(num_classes);
              const LabelId lu = g1.Label(u);
              for (size_t c = 0; c < num_classes; ++c) {
                sim_row[c] = lsim.Sim(lu, static_cast<LabelId>(c));
              }
              kern.gather_row(sim_row.data(), labels2.data(), n2, row);
              break;
            }
            case InitKind::kIndicatorDiagonal:
              kern.fill(row, n2, 0.0);
              if (u_index < n2) row[u_index] = 1.0;
              break;
            case InitKind::kDegreeRatio:
              kern.degree_ratio_row(static_cast<double>(g1.OutDegree(u)),
                                    seed_d2.data(), n2, row);
              break;
            case InitKind::kOnes:
              kern.fill(row, n2, 1.0);
              break;
          }
        }
      });

  stats.theta_candidates = total;
  stats.maintained_pairs = total;
  stats.neighbor_index_bytes = index.MemoryBytes();
  stats.simd_level = static_cast<uint32_t>(simd_level);
  stats.build_seconds = build_timer.Seconds();

  Timer iterate_timer;
  std::vector<WorkerDelta> worker_delta(num_threads);
  // Per-worker panel-loop scratch: S1's position-ascending row maps, one
  // running accumulator per tile entry, the slot-space column-maximum
  // panel of the both-sides operator with the pre-normalize sums its
  // finalize hands to the normalize kernel, and one tile of each
  // direction's scores.
  struct PanelScratch {
    std::vector<uint32_t> row_class;
    std::vector<NodeId> row_node;
    std::vector<double> acc;
    AlignedVector<double> colmax;
    AlignedVector<double> sums;
    std::vector<double> out_scores;
    std::vector<double> in_scores;
  };
  std::vector<PanelScratch> panel_scratch(num_threads);
  if (both_sides) {
    const uint32_t max_slots =
        std::max(out_panels.max_slots, in_panels.max_slots);
    for (auto& ps : panel_scratch) {
      ps.colmax.resize(max_slots);
      ps.sums.resize(kDenseVTile);
      FSIM_DCHECK(IsSimdAligned(ps.colmax.data()));
    }
  }

  // One chunk: rows [begin, end) x all v, tiled over v so the tile's panels
  // and prev-row slices are reused across the chunk's rows. Per (row p,
  // panel) the kernel walks only the precomputed work list of p's label
  // class — masked 4-slot gathers of the previous-score row with a running
  // per-entry maximum (plus the slot-space column maxima for the
  // both-sides operator). Values equal the nested loops of Equation 3 bit
  // for bit: maxima are exact and order-free, rows are summed in ascending
  // position order, and a skipped zero `best` equals `acc[t] += 0.0`.
  auto evaluate_chunk = [&]<bool kBothSides>(int worker, size_t begin,
                                             size_t end) {
    PanelScratch& ps = panel_scratch[worker];
    const double* prev_data = prev.data();
    double chunk_delta = 0.0;

    auto eval_panel = [&](const simd::TilePanel& panel,
                          const GroupedNeighborhood& s1, double* out) {
      const size_t entries = panel.entries;
      const size_t m1 = s1.size;
      if (m1 == 0) {
        // Empty-S1 conventions (core/operators.h): max-per-row is
        // vacuously perfect; both-sides is 1 only when S2 is empty too,
        // otherwise the all-zero column sum flows through Ωχ.
        for (size_t t = 0; t < entries; ++t) {
          if constexpr (!kBothSides) {
            out[t] = 1.0;
          } else {
            const uint32_t n2t = panel.sizes[t];
            if (n2t == 0) {
              out[t] = 1.0;
              continue;
            }
            const double omega = OmegaValue(op.omega, 0, n2t);
            FSIM_DCHECK(omega > 0.0);
            out[t] = 0.0 / omega;
          }
        }
        return;
      }
      // Position-ascending S1 row maps.
      ps.row_class.resize(m1);
      ps.row_node.resize(m1);
      for (const ClassGroup& ga : s1.groups) {
        for (uint32_t i = ga.begin; i < ga.end; ++i) {
          ps.row_class[s1.pos[i]] = ga.label;
          ps.row_node[s1.pos[i]] = s1.nodes[i];
        }
      }
      ps.acc.assign(entries, 0.0);
      if constexpr (kBothSides) {
        // One bulk zero of the whole slot range. Pad slots get max-written
        // by the kernel but are never read back (inv points only at real
        // candidates), so zeroing them too is harmless — and much cheaper
        // than a kernel call per entry.
        kern.fill(ps.colmax.data(), panel.SlotCount(), 0.0);
      }
      for (size_t p = 0; p < m1; ++p) {
        const std::span<const simd::PanelWorkItem> items =
            panel.WorkList(static_cast<LabelId>(ps.row_class[p]));
        const double* prow =
            prev_data + static_cast<size_t>(ps.row_node[p]) * n2;
        if constexpr (kBothSides) {
          kern.tile_row_pass_colmax(items.data(), items.size(),
                                    panel.ids.data(), prow, ps.acc.data(),
                                    ps.colmax.data());
        } else {
          kern.tile_row_pass(items.data(), items.size(), panel.ids.data(),
                             prow, ps.acc.data());
        }
      }
      // Finalize. The per-entry Ωχ switch and division run in the
      // normalize kernel (bit-identical to OmegaValue + divide — kernels.h
      // contract). The both-sides column sum reads the slot-space maxima
      // through the panel's inverse permutation, in ascending original
      // position order.
      const double m1d = static_cast<double>(m1);
      const uint32_t omega_kind = static_cast<uint32_t>(op.omega);
      if constexpr (kBothSides) {
        const double* colmax = ps.colmax.data();
        double* sums = ps.sums.data();
        for (size_t t = 0; t < entries; ++t) {
          double sum = ps.acc[t];
          const uint32_t sb = panel.entry_off[t];
          const uint32_t n2t = panel.sizes[t];
          for (uint32_t j = 0; j < n2t; ++j) {
            sum += colmax[panel.inv[sb + j]];
          }
          sums[t] = sum;
        }
        kern.normalize_tile(sums, panel.sizes.data(), entries, omega_kind,
                            m1d, out);
      } else {
        kern.normalize_tile(ps.acc.data(), panel.sizes.data(), entries,
                            omega_kind, m1d, out);
      }
    };

    size_t tile_index = 0;
    for (size_t vb = 0; vb < n2; vb += kDenseVTile, ++tile_index) {
      const NodeId v_hi = static_cast<NodeId>(std::min(vb + kDenseVTile, n2));
      const size_t tile = v_hi - vb;
      ps.out_scores.resize(tile);
      ps.in_scores.resize(tile);
      for (size_t u_index = begin; u_index < end; ++u_index) {
        const NodeId u = static_cast<NodeId>(u_index);
        const LabelId lu = g1.Label(u);
        if (use_out) {
          eval_panel(out_panels.tiles[tile_index], index.Out1(u),
                     ps.out_scores.data());
        }
        if (use_in) {
          eval_panel(in_panels.tiles[tile_index], index.In1(u),
                     ps.in_scores.data());
        }
        // Combine + max-delta over the tile segment. A pin_diagonal row
        // takes the scalar branch (the pin is a per-element exception the
        // flat kernel has no lane for); everything else runs the combine
        // kernel, whose association matches the scalar expression exactly.
        double* out_row = curr.data() + u_index * n2 + vb;
        const double* prev_row = prev_data + u_index * n2 + vb;
        if (config.pin_diagonal && u_index >= vb && u < v_hi) {
          for (NodeId v = static_cast<NodeId>(vb); v < v_hi; ++v) {
            double value;
            if (u == v) {
              value = 1.0;
            } else {
              value = (use_out ? config.w_out * ps.out_scores[v - vb] : 0.0) +
                      (use_in ? config.w_in * ps.in_scores[v - vb] : 0.0) +
                      table.WeightedLabelTerm(lu, g2.Label(v));
            }
            out_row[v - vb] = value;
            chunk_delta =
                std::max(chunk_delta, std::abs(value - prev_row[v - vb]));
          }
        } else {
          kern.combine_row(use_out ? ps.out_scores.data() : nullptr,
                           use_in ? ps.in_scores.data() : nullptr,
                           config.w_out, config.w_in,
                           table.WeightedLabelTermRow(lu),
                           labels2.data() + vb, prev_row, out_row, tile,
                           &chunk_delta);
        }
      }
    }
    if (chunk_delta > worker_delta[worker].value) {
      worker_delta[worker].value = chunk_delta;
    }
  };

  // Pre-reserve so the per-iteration push never reallocates mid-loop.
  if (config.record_delta_history) stats.delta_history.reserve(max_iters);

  for (uint32_t iter = 1; iter <= max_iters; ++iter) {
    FSIM_TRACE_SPAN_ARG("dense.iter", iter);
    for (auto& d : worker_delta) d.value = 0.0;
    // Chunks of u-rows: rows are independent under double buffering, and
    // row granularity amortizes the scheduling cost that per-pair items
    // would pay on the dense matrix.
    pool.ParallelForChunked(
        n1, kDenseRowGrain, [&](int worker, size_t begin, size_t end) {
          if (both_sides) {
            evaluate_chunk.template operator()<true>(worker, begin, end);
          } else {
            evaluate_chunk.template operator()<false>(worker, begin, end);
          }
        });
    double max_delta = 0.0;
    for (const auto& d : worker_delta) max_delta = std::max(max_delta, d.value);
    prev.swap(curr);
    stats.iterations = iter;
    stats.final_delta = max_delta;
    if (config.record_delta_history) stats.delta_history.push_back(max_delta);
    if (max_delta < config.epsilon) {
      stats.converged = true;
      break;
    }
  }
  stats.iterate_seconds = iterate_timer.Seconds();

  return DenseFSimScores(n1, n2, std::move(prev), std::move(stats));
}

}  // namespace fsim
