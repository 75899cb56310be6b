#include "core/panel_engine.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "common/string_util.h"
#include "core/init_value.h"
#include "core/operators.h"
#include "core/simd/dispatch.h"
#include "obs/trace.h"

namespace fsim {

namespace {

/// Rows per parallel chunk. A chunk is also the tiling unit: all rows of a
/// chunk walk one v-tile before advancing, so the tile's N±(v) column sets
/// stay cache-hot across the chunk's u's.
constexpr size_t kRowGrain = 8;

/// v-tile width of the iterate loop. 256 columns x 8 rows of `curr` plus
/// the tile's prev-row slices fit comfortably in L2 while keeping the tile
/// loop overhead negligible.
constexpr size_t kVTile = 256;

// The normalize kernel (core/simd/kernels.h NormalizeTileFn) receives
// OmegaKind as its integer value; pin the mapping it documents.
static_assert(static_cast<uint32_t>(OmegaKind::kSizeS1) == 0 &&
              static_cast<uint32_t>(OmegaKind::kSumSizes) == 1 &&
              static_cast<uint32_t>(OmegaKind::kGeoMean) == 2 &&
              static_cast<uint32_t>(OmegaKind::kMaxSize) == 3 &&
              static_cast<uint32_t>(OmegaKind::kProduct) == 4);

/// Numbers the distinct labels of g in first-seen order: (*classes)[v] is
/// v's label's number, and the returned list maps numbers back to labels.
std::vector<LabelId> NumberLabels(const Graph& g,
                                  std::vector<int32_t>* classes) {
  std::vector<uint32_t> number(g.dict()->size(), ~0u);
  std::vector<LabelId> labels;
  classes->resize(g.NumNodes());
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    uint32_t& c = number[g.Label(v)];
    if (c == ~0u) {
      c = static_cast<uint32_t>(labels.size());
      labels.push_back(g.Label(v));
    }
    (*classes)[v] = static_cast<int32_t>(c);
  }
  return labels;
}

}  // namespace

bool RunsOnTilePanels(const FSimConfig& config) {
  const MappingKind mapping = config.operators().mapping;
  return config.theta == 0.0 && !config.upper_bound &&
         (mapping == MappingKind::kMaxPerRow ||
          mapping == MappingKind::kMaxBothSides);
}

Result<TilePanelEngine> TilePanelEngine::Build(
    const Graph& g1, const Graph& g2, const FSimConfig& config,
    const LabelSimilarityCache& lsim, ThreadPool& pool, FSimStats* stats) {
  FSIM_DCHECK(RunsOnTilePanels(config));
  TilePanelEngine engine;
  engine.g1_ = &g1;
  engine.g2_ = &g2;
  engine.config_ = &config;
  engine.pool_ = &pool;
  {
    FSIM_TRACE_SPAN("engine.build.enumerate");
    FSIM_ASSIGN_OR_RETURN(PairSpace space,
                          PairSpace::Build(g1, g2, config, lsim, &pool));
    engine.space_ = std::make_shared<const PairSpace>(std::move(space));
  }
  const size_t n1 = g1.NumNodes();
  const size_t n2 = g2.NumNodes();
  const bool use_out = config.w_out > 0.0;
  const bool use_in = config.w_in > 0.0;

  // The label-term table spans only the labels that occur, so it is
  // bounded by |V1|·|V2| doubles whatever the dictionary's size.
  const std::vector<LabelId> labels1 = NumberLabels(g1, &engine.class1_);
  const std::vector<LabelId> labels2 = NumberLabels(g2, &engine.class2_);
  engine.num_classes2_ = labels2.size();
  const double label_weight = 1.0 - config.w_out - config.w_in;
  const bool need_label_term =
      label_weight != 0.0 && config.label_term != LabelTermKind::kZero;

  // The label-term table and the panels are bounded together against the
  // budget before either is built.
  auto out2 = [&](NodeId v) { return g2.OutNeighbors(v); };
  auto in2 = [&](NodeId v) { return g2.InNeighbors(v); };
  const uint64_t term_bytes =
      need_label_term ? uint64_t{labels1.size()} * labels2.size() *
                            sizeof(double)
                      : 0;
  const uint64_t panel_bytes =
      (use_out ? simd::TilePanelSetBytes(n2, kVTile, out2) : 0) +
      (use_in ? simd::TilePanelSetBytes(n2, kVTile, in2) : 0);
  if (term_bytes + panel_bytes > config.neighbor_index_budget_bytes) {
    return Status::ResourceExhausted(StrFormat(
        "tile-panel index needs up to %llu bytes (label-term table %llu, "
        "panels %llu), over neighbor_index_budget_bytes %llu",
        static_cast<unsigned long long>(term_bytes + panel_bytes),
        static_cast<unsigned long long>(term_bytes),
        static_cast<unsigned long long>(panel_bytes),
        static_cast<unsigned long long>(config.neighbor_index_budget_bytes)));
  }
  {
    FSIM_TRACE_SPAN("engine.build.index");
    if (need_label_term) {
      engine.term_.resize(labels1.size() * labels2.size());
      double* term = engine.term_.data();
      for (LabelId a : labels1) {
        for (LabelId b : labels2) {
          *term++ = label_weight * LabelTermValue(config, lsim, a, b);
        }
      }
    }
    if (use_out) engine.out_panels_ = simd::BuildTilePanelSet(n2, kVTile, out2);
    if (use_in) engine.in_panels_ = simd::BuildTilePanelSet(n2, kVTile, in2);
  }

  // Kernel level for this run (docs/performance.md "Vectorized tile
  // kernels"). Every level runs the same panel loop and is bit-identical
  // to the scalar kernels, so the knob never changes results.
  const simd::SimdLevel simd_level = simd::ResolveSimdLevel(config.simd);
  engine.kern_ = &simd::KernelsFor(simd_level);
  const simd::SimdKernels& kern = *engine.kern_;

  {
    // FSim^0 seeding, chunked over the pool. Each InitKind maps onto one
    // flat row kernel (fill / gather / degree-ratio) with values identical
    // to InitValue at every SIMD level.
    FSIM_TRACE_SPAN("engine.build.init");
    engine.prev_.resize(n1 * n2);
    engine.curr_.resize(n1 * n2);
    std::vector<double> seed_d2;
    if (config.init == InitKind::kDegreeRatio) {
      seed_d2.resize(n2);
      for (NodeId v = 0; v < n2; ++v) {
        seed_d2[v] = static_cast<double>(g2.OutDegree(v));
      }
    }
    std::vector<std::vector<double>> seed_sim_rows(
        static_cast<size_t>(pool.num_threads()));
    pool.ParallelForChunked(
        n1, kRowGrain, [&](int worker, size_t begin, size_t end) {
          for (size_t u_index = begin; u_index < end; ++u_index) {
            const NodeId u = static_cast<NodeId>(u_index);
            double* row = engine.prev_.data() + u_index * n2;
            switch (config.init) {
              case InitKind::kLabelSim: {
                // L(ℓ(u), ·) per g2 label, then one gather through g2's
                // label numbers.
                std::vector<double>& sim_row = seed_sim_rows[worker];
                sim_row.resize(labels2.size());
                for (size_t c = 0; c < labels2.size(); ++c) {
                  sim_row[c] = lsim.Sim(g1.Label(u), labels2[c]);
                }
                kern.gather_row(sim_row.data(), engine.class2_.data(), n2,
                                row);
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
  }

  stats->theta_candidates = n1 * n2;
  stats->maintained_pairs = n1 * n2;
  stats->neighbor_index_bytes = engine.term_.capacity() * sizeof(double) +
                                engine.out_panels_.MemoryBytes() +
                                engine.in_panels_.MemoryBytes();
  stats->simd_panel_bytes =
      engine.out_panels_.MemoryBytes() + engine.in_panels_.MemoryBytes();
  stats->simd_level = static_cast<uint32_t>(simd_level);

  engine.scratch_.resize(static_cast<size_t>(pool.num_threads()));
  if (config.operators().mapping == MappingKind::kMaxBothSides) {
    const uint32_t max_slots = std::max(engine.out_panels_.max_slots,
                                        engine.in_panels_.max_slots);
    for (WorkerScratch& ps : engine.scratch_) {
      ps.colmax.resize(max_slots);
      FSIM_DCHECK(IsSimdAligned(ps.colmax.data()));
    }
  }
  return engine;
}

double TilePanelEngine::Step() {
  const Graph& g1 = *g1_;
  const FSimConfig& config = *config_;
  const simd::SimdKernels& kern = *kern_;
  const OperatorConfig op = config.operators();
  const bool both_sides = op.mapping == MappingKind::kMaxBothSides;
  const bool use_out = config.w_out > 0.0;
  const bool use_in = config.w_in > 0.0;
  const size_t n1 = g1.NumNodes();
  const size_t n2 = g2_->NumNodes();

  // One chunk: rows [begin, end) x all v, tiled over v so the tile's panels
  // and prev-row slices are reused across the chunk's rows. Per (row x,
  // panel) the kernel walks the tile's work list — masked 4-slot gathers
  // of x's previous-score row with a running per-entry maximum (plus the
  // slot-space column maxima for the both-sides operator). Values equal
  // the nested loops of Equation 3 bit for bit: maxima are exact and
  // order-free, rows are summed and columns reduced in ascending position
  // order, and a skipped zero `best` equals `acc[t] += 0.0`.
  auto evaluate_chunk = [&]<bool kBothSides>(int worker, size_t begin,
                                             size_t end) {
    WorkerScratch& ps = scratch_[static_cast<size_t>(worker)];
    const double* prev_data = prev_.data();
    double chunk_delta = 0.0;

    auto eval_panel = [&](const simd::TilePanel& panel,
                          std::span<const NodeId> s1, double* out) {
      const size_t entries = panel.entries;
      if (s1.empty()) {
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
      ps.acc.assign(entries, 0.0);
      if constexpr (kBothSides) {
        // One bulk zero of the whole slot range. Pad slots get max-written
        // by the kernel but are never read back, so zeroing them too is
        // harmless — and much cheaper than a kernel call per entry.
        kern.fill(ps.colmax.data(), panel.SlotCount(), 0.0);
      }
      for (NodeId x : s1) {
        const double* prow = prev_data + static_cast<size_t>(x) * n2;
        if constexpr (kBothSides) {
          kern.tile_row_pass_colmax(panel.items.data(), panel.items.size(),
                                    panel.ids.data(), prow, ps.acc.data(),
                                    ps.colmax.data());
        } else {
          kern.tile_row_pass(panel.items.data(), panel.items.size(),
                             panel.ids.data(), prow, ps.acc.data());
        }
      }
      // Finalize. The per-entry Ωχ switch and division run in the
      // normalize kernel (bit-identical to OmegaValue + divide — kernels.h
      // contract). The both-sides column sum adds each entry's slots to its
      // row sum in position order.
      if constexpr (kBothSides) {
        for (size_t t = 0; t < entries; ++t) {
          const double* col = ps.colmax.data() + panel.entry_off[t];
          for (uint32_t j = 0; j < panel.sizes[t]; ++j) ps.acc[t] += col[j];
        }
      }
      kern.normalize_tile(ps.acc.data(), panel.sizes.data(), entries,
                          static_cast<uint32_t>(op.omega),
                          static_cast<double>(s1.size()), out);
    };

    size_t tile_index = 0;
    for (size_t vb = 0; vb < n2; vb += kVTile, ++tile_index) {
      const NodeId v_hi = static_cast<NodeId>(std::min(vb + kVTile, n2));
      const size_t tile = v_hi - vb;
      ps.out_scores.resize(tile);
      ps.in_scores.resize(tile);
      for (size_t u_index = begin; u_index < end; ++u_index) {
        const NodeId u = static_cast<NodeId>(u_index);
        if (use_out) {
          eval_panel(out_panels_.tiles[tile_index], g1.OutNeighbors(u),
                     ps.out_scores.data());
        }
        if (use_in) {
          eval_panel(in_panels_.tiles[tile_index], g1.InNeighbors(u),
                     ps.in_scores.data());
        }
        // Combine + max-delta over the tile segment. A pin_diagonal row
        // takes the scalar branch (the pin is a per-element exception the
        // flat kernel has no lane for); everything else runs the combine
        // kernel, whose association matches the scalar expression exactly.
        double* out_row = curr_.data() + u_index * n2 + vb;
        const double* prev_row = prev_data + u_index * n2 + vb;
        const double* term_row = LabelTermRow(u);
        if (config.pin_diagonal && u_index >= vb && u < v_hi) {
          for (NodeId v = static_cast<NodeId>(vb); v < v_hi; ++v) {
            double value;
            if (u == v) {
              value = 1.0;
            } else {
              value = (use_out ? config.w_out * ps.out_scores[v - vb] : 0.0) +
                      (use_in ? config.w_in * ps.in_scores[v - vb] : 0.0) +
                      (term_row ? term_row[class2_[v]] : 0.0);
            }
            out_row[v - vb] = value;
            chunk_delta =
                std::max(chunk_delta, std::abs(value - prev_row[v - vb]));
          }
        } else {
          kern.combine_row(use_out ? ps.out_scores.data() : nullptr,
                           use_in ? ps.in_scores.data() : nullptr,
                           config.w_out, config.w_in, term_row,
                           class2_.data() + vb, prev_row, out_row, tile,
                           &chunk_delta);
        }
      }
    }
    ps.delta = std::max(ps.delta, chunk_delta);
  };

  for (WorkerScratch& ps : scratch_) ps.delta = 0.0;
  // Chunks of u-rows: rows are independent under double buffering, and
  // row granularity amortizes the scheduling cost that per-pair items
  // would pay on the full matrix.
  pool_->ParallelForChunked(
      n1, kRowGrain, [&](int worker, size_t begin, size_t end) {
        if (both_sides) {
          evaluate_chunk.template operator()<true>(worker, begin, end);
        } else {
          evaluate_chunk.template operator()<false>(worker, begin, end);
        }
      });
  double max_delta = 0.0;
  for (const WorkerScratch& ps : scratch_) {
    max_delta = std::max(max_delta, ps.delta);
  }
  prev_.swap(curr_);
  return max_delta;
}

}  // namespace fsim
