#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/hash.h"
#include "core/simd/dispatch.h"
#include "datasets/dataset_registry.h"
#include "graph/graph_builder.h"

namespace perfbench {

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

void Report::Wrong(const std::string& why) {
  wrong_.push_back(why);
  std::printf("WRONG: %s\n", why.c_str());
}

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    char value[64];
    // %.17g keeps every digit; non-finite values are not JSON.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : -1.0);
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

void Report::PrintNotes() const {
  for (const Metric& m : metrics_) {
    std::printf("  %-24s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  operations attempted=%llu failed=%llu correct=%s\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              correct() ? "true" : "false");
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

// ----------------------------------------------------------------- tracing --

namespace {
// Bounds a long traced run's memory; later spans are counted, not kept.
constexpr size_t kMaxSpansPerLog = size_t{1} << 20;
}  // namespace

SpanLog::SpanLog() { records_.reserve(4096); }

int32_t SpanLog::Open(const char* name, uint64_t request, int32_t parent) {
  if (records_.size() >= kMaxSpansPerLog) {
    ++dropped_;
    return -1;
  }
  records_.push_back(Record{name, request, parent, NowNs(), 0});
  return static_cast<int32_t>(records_.size() - 1);
}

void SpanLog::Close(int32_t index) {
  records_[static_cast<size_t>(index)].end_ns = NowNs();
}

std::vector<double> SpanLog::Seconds(const char* name) const {
  std::vector<double> out;
  const std::string wanted(name);
  for (const Record& r : records_) {
    if (r.end_ns != 0 && wanted == r.name) {
      out.push_back(static_cast<double>(r.end_ns - r.start_ns) * 1e-9);
    }
  }
  return out;
}

void PrintSelfTimes(const std::vector<const SpanLog*>& logs) {
  struct Totals {
    uint64_t spans = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, Totals> by_name;
  uint64_t dropped = 0;
  for (const SpanLog* log : logs) {
    const auto& records = log->records();
    std::vector<uint64_t> child_ns(records.size(), 0);
    for (const SpanLog::Record& r : records) {
      if (r.parent >= 0 && r.end_ns != 0) {
        child_ns[static_cast<size_t>(r.parent)] += r.end_ns - r.start_ns;
      }
    }
    for (size_t i = 0; i < records.size(); ++i) {
      const SpanLog::Record& r = records[i];
      if (r.end_ns == 0) continue;
      const uint64_t dur = r.end_ns - r.start_ns;
      Totals& t = by_name[r.name];
      ++t.spans;
      t.total_s += static_cast<double>(dur) * 1e-9;
      t.self_s +=
          static_cast<double>(dur - std::min(dur, child_ns[i])) * 1e-9;
    }
    dropped += log->dropped();
  }
  std::printf("layer self times (benchmark spans; self = span minus its "
              "child spans):\n");
  std::printf("  %-22s %10s %12s %12s\n", "span", "count", "total_s",
              "self_s");
  for (const auto& [name, t] : by_name) {
    std::printf("  %-22s %10llu %12.6f %12.6f\n", name.c_str(),
                static_cast<unsigned long long>(t.spans), t.total_s,
                t.self_s);
  }
  if (dropped > 0) {
    std::printf("  (%llu spans over the per-thread cap were not kept)\n",
                static_cast<unsigned long long>(dropped));
  }
}

bool WriteSpanTrace(const std::string& path,
                    const std::vector<const SpanLog*>& logs,
                    uint64_t epoch_ns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [");
  bool first = true;
  for (size_t tid = 0; tid < logs.size(); ++tid) {
    for (const SpanLog::Record& r : logs[tid]->records()) {
      if (r.end_ns == 0 || r.start_ns < epoch_ns) continue;
      std::fprintf(f,
                   "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"request\": %llu, \"parent\": %d}}",
                   first ? "" : ",", r.name, tid,
                   static_cast<double>(r.start_ns - epoch_ns) * 1e-3,
                   static_cast<double>(r.end_ns - r.start_ns) * 1e-3,
                   static_cast<unsigned long long>(r.request), r.parent);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// ------------------------------------------------------- latency samples --

LatencyHistogram::LatencyHistogram() : dense_(kDenseLimit, 0) {}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < dense_.size(); ++i) dense_[i] += other.dense_[i];
  overflow_.insert(overflow_.end(), other.overflow_.begin(),
                   other.overflow_.end());
  count_ += other.count_;
}

double LatencyHistogram::QuantileNs(double q) const {
  if (count_ == 0) return 0.0;
  std::vector<uint64_t> tail = overflow_;
  std::sort(tail.begin(), tail.end());
  // Value of the sample at 0-based rank k.
  const auto at_rank = [&](uint64_t k) -> double {
    uint64_t seen = 0;
    for (size_t bin = 0; bin < dense_.size(); ++bin) {
      const uint64_t c = dense_[bin];
      if (k < seen + c) {
        return static_cast<double>(bin) +
               (static_cast<double>(k - seen) + 0.5) / static_cast<double>(c);
      }
      seen += c;
    }
    return static_cast<double>(tail[k - seen]);
  };
  const double pos = q * static_cast<double>(count_ - 1);
  const uint64_t lo = static_cast<uint64_t>(std::floor(pos));
  const uint64_t hi = std::min<uint64_t>(lo + 1, count_ - 1);
  const double lo_value = at_rank(lo);
  return lo_value + (at_rank(hi) - lo_value) * (pos - static_cast<double>(lo));
}

// ------------------------------------------------------- seeded inputs --

SeededGraph MakeSeededGraph(const char* name, double scale, uint64_t seed) {
  fsim::Result<fsim::DatasetSpec> found = fsim::DatasetSpecByName(name);
  fsim::DatasetSpec spec = *found;
  spec.nodes = static_cast<uint32_t>(std::lround(spec.nodes * scale));
  spec.edges = static_cast<uint64_t>(
      std::llround(static_cast<double>(spec.edges) * scale));
  SeededGraph out;
  out.base = fsim::MakeDataset(spec);
  const fsim::Graph& base = out.base;
  const size_t n = base.NumNodes();
  std::vector<NodeId> graph_to_base(n);
  for (size_t i = 0; i < n; ++i) graph_to_base[i] = static_cast<NodeId>(i);
  fsim::Rng rng(seed ^ 0x9E3779B97F4A7C15ULL);
  rng.Shuffle(&graph_to_base);
  out.base_to.resize(n);
  fsim::GraphBuilder builder(base.dict());
  builder.ReserveNodes(n);
  builder.ReserveEdges(base.NumEdges());
  for (size_t i = 0; i < n; ++i) {
    out.base_to[graph_to_base[i]] = static_cast<NodeId>(i);
    builder.AddNodeWithLabelId(base.Label(graph_to_base[i]));
  }
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : base.OutNeighbors(u)) {
      builder.AddEdge(out.base_to[u], out.base_to[v]);
    }
  }
  out.graph = std::move(builder).BuildOrDie();
  return out;
}

fsim::FSimConfig BaseConfig(fsim::SimVariant variant, double epsilon,
                            int threads) {
  fsim::FSimConfig config;
  config.variant = variant;
  config.w_out = 0.4;
  config.w_in = 0.4;
  config.label_sim = fsim::LabelSimKind::kJaroWinkler;
  config.theta = 1.0;
  config.epsilon = epsilon;
  config.num_threads = threads;
  return config;
}

EditStream::EditStream(const SeededGraph& input)
    : input_(input), rng_(0xED17) {
  for (NodeId u = 0; u < input.base.NumNodes(); ++u) {
    for (NodeId v : input.base.OutNeighbors(u)) {
      if (u != v) edges_.emplace_back(u, v);
    }
  }
}

std::vector<fsim::EditOp> EditStream::NextBurst() {
  std::vector<fsim::EditOp> burst;
  if (bursts_++ % 2 == 1) {
    // Undo the previous burst: the graphs return to the generated ones.
    for (auto it = last_.rbegin(); it != last_.rend(); ++it) {
      fsim::EditOp op = *it;
      op.insert = !op.insert;
      burst.push_back(op);
    }
    return burst;
  }
  const fsim::Graph& base = input_.base;
  const NodeId n = static_cast<NodeId>(base.NumNodes());
  std::set<uint64_t> used[2];
  for (size_t e = 0; e < kBurst; ++e) {
    fsim::EditOp op;
    op.graph_index = static_cast<int>(e % 2) + 1;
    op.insert = (e / 2) % 2 == 1;
    std::set<uint64_t>& taken = used[e % 2];
    for (;;) {
      if (op.insert) {
        op.from = static_cast<NodeId>(rng_.NextBounded(n));
        op.to = static_cast<NodeId>(rng_.NextBounded(n));
        if (op.from == op.to || base.HasEdge(op.from, op.to)) continue;
      } else {
        const auto& edge = edges_[rng_.NextBounded(edges_.size())];
        op.from = edge.first;
        op.to = edge.second;
      }
      if (taken.insert(fsim::PairKey(op.from, op.to)).second) break;
    }
    op.from = input_.base_to[op.from];
    op.to = input_.base_to[op.to];
    burst.push_back(op);
  }
  last_ = burst;
  return burst;
}

std::vector<fsim::Query> MakeReadMix(const fsim::FSimSnapshot& snapshot,
                                     size_t num_nodes, uint64_t seed,
                                     size_t count) {
  const std::vector<uint64_t>& keys = snapshot.scores().keys();
  fsim::Rng rng(seed ^ 0x5E7E5E7EULL);
  std::vector<fsim::Query> mix(count);
  for (fsim::Query& q : mix) {
    const uint64_t kind = rng.NextBounded(16);
    q.u = static_cast<NodeId>(rng.NextBounded(num_nodes));
    if (kind < 14) {
      q.kind = fsim::Query::Kind::kPair;
      if (rng.NextBounded(4) < 3 && !keys.empty()) {
        const uint64_t key = keys[rng.NextBounded(keys.size())];
        q.u = fsim::PairFirst(key);
        q.v = fsim::PairSecond(key);
      } else {
        q.v = static_cast<NodeId>(rng.NextBounded(num_nodes));
      }
    } else if (kind == 14) {
      q.kind = fsim::Query::Kind::kTopK;
      q.k = 10;
    } else {
      q.kind = fsim::Query::Kind::kThreshold;
      q.tau = 0.8;
    }
  }
  return mix;
}

namespace {

bool SortedDescending(const std::vector<std::pair<NodeId, double>>& rows) {
  for (size_t i = 1; i < rows.size(); ++i) {
    const auto& a = rows[i - 1];
    const auto& b = rows[i];
    if (a.second < b.second || (a.second == b.second && a.first > b.first)) {
      return false;
    }
  }
  return true;
}

}  // namespace

void RunReader(const fsim::QueryEngine& engine,
               const fsim::SnapshotStore& store,
               const std::vector<fsim::Query>& mix,
               const std::atomic<bool>& stop, uint64_t reader_id,
               SpanLog* log, ReaderStats* out) {
  size_t next = 0;
  for (uint64_t call = 0; !stop.load(std::memory_order_relaxed); ++call) {
    const fsim::Query& q = mix[next];
    if (++next == mix.size()) next = 0;
    Span span(call % 64 == 0 ? log : nullptr, "query.run",
              (reader_id << 40) | call);
    const uint64_t start = NowNs();
    fsim::Result<fsim::QueryResult> result = engine.Run(q);
    out->latency.Add(NowNs() - start);
    span.End();
    ++out->attempted;
    if (!result.ok() || result->degraded) {
      ++out->failed;
      continue;
    }
    if (q.kind != fsim::Query::Kind::kPair) {
      if (!SortedDescending(result->entries)) ++out->unsorted;
    } else if (call % 256 == 0) {
      // Compare with the table the answer came from (skipped when a
      // publish slipped in between).
      const fsim::SnapshotPtr snapshot = store.Acquire();
      if (snapshot != nullptr &&
          snapshot->meta().version == result->version) {
        ++out->checked;
        if (snapshot->scores().Score(q.u, q.v) != result->score) {
          ++out->mismatched;
        }
      }
    }
  }
}

void AccountReader(const ReaderStats& stats, Report* report) {
  report->Attempt(stats.attempted);
  report->OpFailed(stats.failed);
  if (stats.mismatched > 0) {
    report->Wrong(std::to_string(stats.mismatched) +
                  " PAIR answers differ from FSimScores::Score");
  }
  if (stats.unsorted > 0) {
    report->Wrong(std::to_string(stats.unsorted) +
                  " TOPK/THRESH answers not sorted descending");
  }
  if (stats.checked == 0) {
    report->Wrong("no PAIR answer could be cross-checked");
  }
}

void PrintHostFingerprint() {
  std::string cpu = "unknown";
  double l3_mib = 0.0;
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    cpu = brand;
    cpu.erase(0, cpu.find_first_not_of(' '));
  }
  // Deterministic cache parameters: leaf 4 (Intel) or 0x8000001D (AMD).
  for (unsigned int leaf : {4u, 0x8000001Du}) {
    if (leaf == 0x8000001Du && max_ext < leaf) break;
    if (leaf == 4u && __get_cpuid_max(0, nullptr) < 4u) continue;
    for (unsigned int sub = 0; sub < 16; ++sub) {
      unsigned int a = 0, b = 0, c = 0, d = 0;
      __cpuid_count(leaf, sub, a, b, c, d);
      if ((a & 0x1f) == 0) break;
      if (((a >> 5) & 0x7) == 3) {
        const double bytes = static_cast<double>((b >> 22) + 1) *
                             static_cast<double>(((b >> 12) & 0x3ff) + 1) *
                             static_cast<double>((b & 0xfff) + 1) *
                             static_cast<double>(c + 1);
        l3_mib = bytes / (1024.0 * 1024.0);
      }
    }
    if (l3_mib > 0.0) break;
  }
#endif
  const fsim::simd::SimdLevel simd =
      fsim::simd::ResolveSimdLevel(fsim::SimdMode::kAuto);
#if defined(__clang__)
  const char* compiler = "clang";
#else
  const char* compiler = "gcc";
#endif
  std::printf(
      "host: nproc=%u cpu=\"%s\" l3=%.0fMiB simd=%s compiler=\"%s %s\"\n",
      std::thread::hardware_concurrency(), cpu.c_str(), l3_mib,
      fsim::simd::SimdLevelName(simd), compiler, __VERSION__);
}

}  // namespace perfbench
