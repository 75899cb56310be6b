#include "core/dense_engine.h"

#include <algorithm>
#include <cmath>
#include <optional>

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

/// v-tile width of the indexed iterate loop. 256 columns x 8 rows of
/// `curr` plus the tile's prev-row slices fit comfortably in L2 while
/// keeping the tile loop overhead negligible.
constexpr size_t kDenseVTile = 256;

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
  ThreadPool pool(config.num_threads);

  // Label-class index (core/dense_index.h): compatibility bitsets, hoisted
  // label terms and class-grouped adjacency, under the budget ceiling.
  FSIM_ASSIGN_OR_RETURN(const DenseIndex index,
                        DenseIndex::Build(g1, g2, config, lsim));

  // Vectorized kernel level for this run (docs/performance.md "Vectorized
  // tile kernels"). Every level is value-equivalent: the max-family tile
  // path and the combine/seeding kernels are bit-identical to scalar, so
  // the knob never changes results.
  const simd::SimdLevel simd_level = simd::ResolveSimdLevel(config.simd);
  const simd::SimdKernels& kern = simd::KernelsFor(simd_level);

  const OperatorConfig op = config.operators();
  const uint32_t max_iters = FSimIterationBound(config);
  const uint32_t num_threads = static_cast<uint32_t>(config.num_threads);
  const bool use_out = config.w_out > 0.0;
  const bool use_in = config.w_in > 0.0;

  // g2's label row as gather indices, shared by the kLabelSim seeding and
  // the combine kernel's label-term gather.
  AlignedVector<int32_t> labels2(n2);
  for (size_t v = 0; v < n2; ++v) {
    labels2[v] = static_cast<int32_t>(g2.Label(static_cast<NodeId>(v)));
  }

  // SoA candidate panels for the vectorized max-family tile path
  // (core/simd/tile_panel.h). The grouped views of g2 are
  // iteration-invariant, so they are flattened once per run and direction;
  // the injective and product operators keep their scalar tile paths (the
  // per-pair matching/sum work dominates there), as does FSIM_SIMD=off —
  // which therefore stays the exact pre-panel code path the equivalence
  // tests diff against.
  const bool simd_tiles = simd_level != simd::SimdLevel::kScalar &&
                          (op.mapping == MappingKind::kMaxPerRow ||
                           op.mapping == MappingKind::kMaxBothSides);
  std::optional<simd::TilePanelSet> out_panels;
  std::optional<simd::TilePanelSet> in_panels;
  uint32_t panel_max_slots = 0;
  FSimStats stats;
  if (simd_tiles) {
    const ClassCompatView compat = index.table().view();
    const size_t classes = index.table().num_classes();
    const bool with_inv = op.mapping == MappingKind::kMaxBothSides;
    if (use_out) {
      out_panels = simd::BuildTilePanelSet(
          n2, kDenseVTile, classes, compat, with_inv,
          [&](NodeId v) { return index.Out2(v); });
      panel_max_slots = std::max(panel_max_slots, out_panels->max_slots);
      stats.simd_panel_bytes += out_panels->MemoryBytes();
    }
    if (use_in) {
      in_panels = simd::BuildTilePanelSet(
          n2, kDenseVTile, classes, compat, with_inv,
          [&](NodeId v) { return index.In2(v); });
      panel_max_slots = std::max(panel_max_slots, in_panels->max_slots);
      stats.simd_panel_bytes += in_panels->MemoryBytes();
    }
  }

  AlignedVector<double> prev(total);
  AlignedVector<double> curr(total);
  FSIM_DCHECK(IsSimdAligned(prev.data()) && IsSimdAligned(curr.data()));
  // FSim^0 seeding is O(n1 * n2) and embarrassingly parallel; chunk it over
  // the same pool the iterate loop uses instead of leaving it serial. Each
  // InitKind maps onto one flat row kernel (fill / gather / degree-ratio)
  // with values identical to InitValue at every SIMD level.
  const size_t num_label_classes = g1.dict()->size();
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
              sim_row.resize(num_label_classes);
              const LabelId lu = g1.Label(u);
              for (size_t c = 0; c < num_label_classes; ++c) {
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
  std::vector<MatchingScratch> scratch(num_threads);
  std::vector<WorkerDelta> worker_delta(num_threads);
  // Per-worker cache of the v-tile's grouped views, built once per
  // (chunk, tile) and reused by every u-row of the chunk.
  struct VTileViews {
    std::vector<GroupedNeighborhood> out;
    std::vector<GroupedNeighborhood> in;
    std::vector<double> out_scores;
    std::vector<double> in_scores;
  };
  std::vector<VTileViews> tile_views(num_threads);
  // Per-worker panel-path scratch: the slot-space column-maximum panel of
  // the both-sides operator, and the pre-normalize per-entry sums its
  // finalize hands to the normalize kernel.
  struct PanelScratch {
    AlignedVector<double> colmax;
    AlignedVector<double> sums;
  };
  std::vector<PanelScratch> panel_scratch(num_threads);
  if (simd_tiles && op.mapping == MappingKind::kMaxBothSides) {
    for (auto& ps : panel_scratch) {
      ps.colmax.resize(panel_max_slots);
      ps.sums.resize(kDenseVTile);
      FSIM_DCHECK(IsSimdAligned(ps.colmax.data()));
    }
  }

  // The iterate loop's per-row combine + max-delta over one v-tile segment,
  // shared by the indexed and panel chunk bodies. A pin_diagonal row takes
  // the scalar branch (the pin is a per-element exception the flat kernel
  // has no lane for); everything else runs the combine kernel, whose
  // association matches the scalar expression exactly.
  auto combine_tile = [&](const LabelClassTable& table, NodeId u, LabelId lu,
                          size_t vb, NodeId v_hi, size_t tile,
                          const double* out_scores, const double* in_scores,
                          double* chunk_delta) {
    const size_t u_index = u;
    double* out_row = curr.data() + u_index * n2 + vb;
    const double* prev_row = prev.data() + u_index * n2 + vb;
    if (config.pin_diagonal && u_index >= vb && u < v_hi) {
      double delta = *chunk_delta;
      for (NodeId v = static_cast<NodeId>(vb); v < v_hi; ++v) {
        double value;
        if (u == v) {
          value = 1.0;
        } else {
          value = (use_out ? config.w_out * out_scores[v - vb] : 0.0) +
                  (use_in ? config.w_in * in_scores[v - vb] : 0.0) +
                  table.WeightedLabelTerm(lu, g2.Label(v));
        }
        out_row[v - vb] = value;
        delta = std::max(delta, std::abs(value - prev_row[v - vb]));
      }
      *chunk_delta = delta;
    } else {
      kern.combine_row(use_out ? out_scores : nullptr,
                       use_in ? in_scores : nullptr, config.w_out, config.w_in,
                       table.WeightedLabelTermRow(lu), labels2.data() + vb,
                       prev_row, out_row, tile, chunk_delta);
    }
  };

  // Indexed chunk body: rows [begin, end) x all v, tiled over v so the
  // tile's N±(v) structures and prev-row slices are reused across the
  // chunk's rows. Visit order per pair is identical either way; only the
  // (u, v) evaluation order changes, which the Jacobi sweep is invariant
  // to. Templated on the mapping kind (dispatched once per chunk) so the
  // per-pair operator inlines switch-free into the tile loop.
  auto evaluate_chunk_indexed = [&]<MappingKind M>(int worker, size_t begin,
                                                   size_t end) {
    const DenseIndex& di = index;
    const LabelClassTable& table = di.table();
    const ClassCompatView compat = table.view();
    MatchingScratch* worker_scratch = &scratch[worker];
    const double* prev_data = prev.data();
    auto score = [prev_data, n2](NodeId x, NodeId y) -> double {
      return prev_data[static_cast<size_t>(x) * n2 + y];
    };
    double chunk_delta = 0.0;
    VTileViews& views = tile_views[worker];
    for (size_t vb = 0; vb < n2; vb += kDenseVTile) {
      const NodeId v_hi = static_cast<NodeId>(std::min(vb + kDenseVTile, n2));
      const size_t tile = v_hi - vb;
      if (use_out) {
        views.out.resize(tile);
        for (size_t t = 0; t < tile; ++t) {
          views.out[t] = di.Out2(static_cast<NodeId>(vb + t));
        }
      }
      if (use_in) {
        views.in.resize(tile);
        for (size_t t = 0; t < tile; ++t) {
          views.in[t] = di.In2(static_cast<NodeId>(vb + t));
        }
      }
      views.out_scores.resize(tile);
      views.in_scores.resize(tile);
      for (size_t u_index = begin; u_index < end; ++u_index) {
        const NodeId u = static_cast<NodeId>(u_index);
        const LabelId lu = g1.Label(u);
        // One tile-granularity operator call per direction: S1-side state
        // hoists across the tile's v's.
        if (use_out) {
          DirectionScoreGroupedTile<M>(op.omega, config.matching, di.Out1(u),
                                       {views.out.data(), tile}, compat,
                                       score, worker_scratch,
                                       views.out_scores.data());
        }
        if (use_in) {
          DirectionScoreGroupedTile<M>(op.omega, config.matching, di.In1(u),
                                       {views.in.data(), tile}, compat, score,
                                       worker_scratch,
                                       views.in_scores.data());
        }
        combine_tile(table, u, lu, vb, v_hi, tile, views.out_scores.data(),
                     views.in_scores.data(), &chunk_delta);
      }
    }
    if (chunk_delta > worker_delta[worker].value) {
      worker_delta[worker].value = chunk_delta;
    }
  };

  // Panel chunk body: the vectorized max-family tile path. Per (row p,
  // panel) the kernel walks only the precomputed work list of p's label
  // class — masked 4-slot gathers of the previous-score row with a running
  // per-entry maximum (plus the slot-space column maxima for the
  // both-sides operator) — instead of re-intersecting class runs per
  // (p, v). Values are bit-identical to DirectionScoreGroupedTile: maxima
  // are exact and order-free, rows are walked in the same ascending
  // position order, and a skipped zero `best` equals the scalar
  // `acc[t] += 0.0`.
  auto evaluate_chunk_panel = [&]<MappingKind M>(int worker, size_t begin,
                                                 size_t end) {
    static_assert(M == MappingKind::kMaxPerRow ||
                  M == MappingKind::kMaxBothSides);
    constexpr bool kBothSides = M == MappingKind::kMaxBothSides;
    const DenseIndex& di = index;
    const LabelClassTable& table = di.table();
    MatchingScratch* worker_scratch = &scratch[worker];
    PanelScratch& ps = panel_scratch[worker];
    const double* prev_data = prev.data();
    double chunk_delta = 0.0;
    VTileViews& views = tile_views[worker];

    auto eval_panel = [&](const simd::TilePanel& panel,
                          const GroupedNeighborhood& s1, double* out) {
      const size_t entries = panel.entries;
      const size_t m1 = s1.size;
      if (m1 == 0) {
        // Empty-S1 conventions of DirectionScoreGroupedT<M>: max-per-row
        // is vacuously perfect; both-sides is 1 only when S2 is empty too,
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
      // Position-ascending S1 row maps, as in the scalar tile path.
      auto& row_class = worker_scratch->row_class;
      auto& row_node = worker_scratch->row_node;
      row_class.resize(m1);
      row_node.resize(m1);
      for (const ClassGroup& ga : s1.groups) {
        for (uint32_t i = ga.begin; i < ga.end; ++i) {
          row_class[s1.pos[i]] = ga.label;
          row_node[s1.pos[i]] = s1.nodes[i];
        }
      }
      auto& acc = worker_scratch->tile_acc;
      acc.assign(entries, 0.0);
      if constexpr (kBothSides) {
        // One bulk zero of the whole slot range. Pad slots get max-written
        // by the kernel but are never read back (inv points only at real
        // candidates), so zeroing them too is harmless — and much cheaper
        // than a kernel call per entry.
        kern.fill(ps.colmax.data(), panel.SlotCount(), 0.0);
      }
      for (size_t p = 0; p < m1; ++p) {
        const std::span<const simd::PanelWorkItem> items =
            panel.WorkList(static_cast<LabelId>(row_class[p]));
        const double* prow =
            prev_data + static_cast<size_t>(row_node[p]) * n2;
        if constexpr (kBothSides) {
          kern.tile_row_pass_colmax(items.data(), items.size(),
                                    panel.ids.data(), prow, acc.data(),
                                    ps.colmax.data());
        } else {
          kern.tile_row_pass(items.data(), items.size(), panel.ids.data(),
                             prow, acc.data());
        }
      }
      // Finalize. The per-entry Ωχ switch and division run vectorized in
      // the normalize kernel (bit-identical to the scalar OmegaValue +
      // divide — kernels.h contract). The both-sides column sum reads the
      // slot-space maxima through the panel's inverse permutation, which
      // is exactly the scalar path's position-ascending summation order.
      const double m1d = static_cast<double>(m1);
      const uint32_t omega_kind = static_cast<uint32_t>(op.omega);
      if constexpr (kBothSides) {
        const double* colmax = ps.colmax.data();
        double* sums = ps.sums.data();
        for (size_t t = 0; t < entries; ++t) {
          double sum = acc[t];
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
        kern.normalize_tile(acc.data(), panel.sizes.data(), entries,
                            omega_kind, m1d, out);
      }
    };

    size_t tile_index = 0;
    for (size_t vb = 0; vb < n2; vb += kDenseVTile, ++tile_index) {
      const NodeId v_hi = static_cast<NodeId>(std::min(vb + kDenseVTile, n2));
      const size_t tile = v_hi - vb;
      views.out_scores.resize(tile);
      views.in_scores.resize(tile);
      for (size_t u_index = begin; u_index < end; ++u_index) {
        const NodeId u = static_cast<NodeId>(u_index);
        const LabelId lu = g1.Label(u);
        if (use_out) {
          eval_panel(out_panels->tiles[tile_index], di.Out1(u),
                     views.out_scores.data());
        }
        if (use_in) {
          eval_panel(in_panels->tiles[tile_index], di.In1(u),
                     views.in_scores.data());
        }
        combine_tile(table, u, lu, vb, v_hi, tile, views.out_scores.data(),
                     views.in_scores.data(), &chunk_delta);
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
          switch (op.mapping) {
            case MappingKind::kMaxPerRow:
              if (simd_tiles) {
                evaluate_chunk_panel
                    .template operator()<MappingKind::kMaxPerRow>(worker,
                                                                  begin, end);
              } else {
                evaluate_chunk_indexed
                    .template operator()<MappingKind::kMaxPerRow>(worker,
                                                                  begin, end);
              }
              break;
            case MappingKind::kInjectiveRow:
              evaluate_chunk_indexed
                  .template operator()<MappingKind::kInjectiveRow>(worker,
                                                                   begin, end);
              break;
            case MappingKind::kMaxBothSides:
              if (simd_tiles) {
                evaluate_chunk_panel
                    .template operator()<MappingKind::kMaxBothSides>(
                        worker, begin, end);
              } else {
                evaluate_chunk_indexed
                    .template operator()<MappingKind::kMaxBothSides>(
                        worker, begin, end);
              }
              break;
            case MappingKind::kInjectiveSym:
              evaluate_chunk_indexed
                  .template operator()<MappingKind::kInjectiveSym>(worker,
                                                                   begin, end);
              break;
            case MappingKind::kProduct:
              evaluate_chunk_indexed
                  .template operator()<MappingKind::kProduct>(worker, begin,
                                                              end);
              break;
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
