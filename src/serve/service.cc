#include "serve/service.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <vector>

#include "common/string_util.h"
#include "core/scores_io.h"
#include "core/simd/dispatch.h"
#include "obs/metrics.h"

namespace fsim {

namespace {

/// Largest accepted BATCH size (memory safety valve for the request
/// parser; each sub-query still answers against one shared snapshot).
constexpr size_t kMaxBatch = 100'000;

bool ParseU32(std::string_view token, uint32_t* out) {
  const std::string s(token);
  char* end = nullptr;
  errno = 0;
  const unsigned long value = std::strtoul(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size() || s.empty() ||
      value > 0xFFFFFFFFUL) {
    return false;
  }
  *out = static_cast<uint32_t>(value);
  return true;
}

/// Parses a number through the shared ParseDouble; false on anything it
/// rejects.
bool ParseNumber(std::string_view token, double* out) {
  const Result<double> value = ParseDouble(token);
  if (!value.ok()) return false;
  *out = *value;
  return true;
}

/// Parses a query budget in milliseconds: a number QueryEngine accepts
/// (finite and >= 0).
bool ParseBudget(std::string_view token, double* out) {
  return ParseNumber(token, out) && QueryEngine::ValidBudget(*out);
}

/// Parses a PAIR/TOPK/THRESH request; writes an error message otherwise.
bool ParseQuery(const std::vector<std::string_view>& tokens, Query* query,
                std::string* error) {
  if (tokens.empty()) {
    *error = "empty request";
    return false;
  }
  const std::string_view verb = tokens[0];
  if (verb == "PAIR") {
    if (tokens.size() != 3 || !ParseU32(tokens[1], &query->u) ||
        !ParseU32(tokens[2], &query->v)) {
      *error = "usage: PAIR <u> <v>";
      return false;
    }
    query->kind = Query::Kind::kPair;
    return true;
  }
  if (verb == "TOPK") {
    uint32_t k = 0;
    double budget_ms = 0.0;
    if (tokens.size() < 3 || tokens.size() > 4 ||
        !ParseU32(tokens[1], &query->u) || !ParseU32(tokens[2], &k) ||
        (tokens.size() == 4 && !ParseBudget(tokens[3], &budget_ms))) {
      *error = "usage: TOPK <u> <k> [budget_ms]";
      return false;
    }
    query->kind = Query::Kind::kTopK;
    query->k = k;
    query->budget_ms = budget_ms;
    return true;
  }
  if (verb == "THRESH") {
    double budget_ms = 0.0;
    if (tokens.size() < 3 || tokens.size() > 4 ||
        !ParseU32(tokens[1], &query->u) ||
        !ParseNumber(tokens[2], &query->tau) ||
        (tokens.size() == 4 && !ParseBudget(tokens[3], &budget_ms))) {
      *error = "usage: THRESH <u> <tau> [budget_ms]";
      return false;
    }
    query->kind = Query::Kind::kThreshold;
    query->budget_ms = budget_ms;
    return true;
  }
  *error = StrFormat("unknown request '%.*s'", static_cast<int>(verb.size()),
                     verb.data());
  return false;
}

void PrintResult(const QueryResult& result, std::ostream& out) {
  switch (result.kind) {
    case Query::Kind::kPair:
      out << StrFormat("SCORE %.6f v%llu\n", result.score,
                       static_cast<unsigned long long>(result.version));
      break;
    case Query::Kind::kTopK:
    case Query::Kind::kThreshold:
      out << StrFormat("%s %zu v%llu%s\n",
                       result.kind == Query::Kind::kTopK ? "TOPK" : "THRESH",
                       result.entries.size(),
                       static_cast<unsigned long long>(result.version),
                       result.degraded ? " degraded" : "");
      for (const auto& [v, score] : result.entries) {
        out << StrFormat("%u %.6f\n", v, score);
      }
      break;
  }
}

/// Bounded line reader: reads up to `max_bytes` of one line through a
/// fixed stack buffer, so a hostile arbitrarily-long line never grows a
/// string to match. On overflow the stored prefix is discarded but the
/// whole line is still consumed, and *overflowed reports it. Returns false
/// at end of stream.
bool ReadLineCapped(std::istream& in, std::string* line, size_t max_bytes,
                    bool* overflowed) {
  line->clear();
  *overflowed = false;
  char buf[1024];
  while (true) {
    in.getline(buf, sizeof(buf));
    const std::streamsize got = in.gcount();
    if (in.bad()) return false;
    const bool stopped_by_capacity =
        in.fail() && !in.eof() &&
        got == static_cast<std::streamsize>(sizeof(buf)) - 1;
    if (in.fail() && !stopped_by_capacity) {
      // End of stream (or a zero-length final read): deliver whatever a
      // previous iteration accumulated.
      return !line->empty() || *overflowed;
    }
    // gcount includes the consumed-but-discarded delimiter when one was hit.
    size_t stored = static_cast<size_t>(got);
    if (!in.fail() && !in.eof() && stored > 0) stored -= 1;
    if (!*overflowed) {
      if (line->size() + stored > max_bytes) {
        *overflowed = true;
        line->clear();  // do not hold hostile content
      } else {
        line->append(buf, stored);
      }
    }
    if (!in.fail()) return true;  // delimiter reached
    if (in.eof()) return true;    // final line without newline
    in.clear();  // capacity stop: keep consuming the same line
  }
}

}  // namespace

FSimService::FSimService() : queries_(&store_) {}

FSimService::~FSimService() = default;

Result<std::unique_ptr<FSimService>> FSimService::Create(Graph g1, Graph g2,
                                                         FSimConfig config,
                                                         ServeOptions options) {
  // The constructor is private, so make_unique cannot reach it; this IS the
  // factory.
  // fsim-lint: allow(naked-new)
  std::unique_ptr<FSimService> service(new FSimService());
  if (config.num_threads > 1) {
    service->batch_pool_ = std::make_unique<ThreadPool>(config.num_threads);
    service->queries_ =
        QueryEngine(&service->store_, service->batch_pool_.get());
  }

  if (!options.durability.dir.empty()) {
    // Crash recovery first: the recovered snapshot's scores, when they fit
    // the candidate space, become both the immediately-served warm snapshot
    // and the solve's warm seed (EnableDurability publishes them); the WAL
    // tail replays inside the driver's Init.
    FSIM_ASSIGN_OR_RETURN(RecoveredState recovered,
                          RecoverServeState(options.durability.dir,
                                            std::move(g1), std::move(g2)));
    service->driver_ = std::make_unique<RefreshDriver>(
        std::move(recovered.g1), std::move(recovered.g2), std::move(config),
        options.incremental, options.policy, &service->store_);
    FSIM_RETURN_NOT_OK(service->driver_->EnableDurability(
        options.durability, std::move(recovered)));
  } else {
    if (!options.warm_scores_path.empty()) {
      // The file must fit the candidate space of the graphs and config
      // served, so every PAIR answer comes from a real candidate slot.
      FSIM_ASSIGN_OR_RETURN(std::shared_ptr<const PairSpace> space,
                            PairSpace::Of(g1, g2, config));
      FSIM_ASSIGN_OR_RETURN(
          FSimScores scores,
          LoadScoresFromFile(options.warm_scores_path, std::move(space)));
      SnapshotMeta meta;
      meta.version = service->store_.NextVersion();
      meta.warm_start = true;
      service->store_.Publish(std::make_shared<const FSimSnapshot>(
          FreezeScores(std::move(scores)), options.policy.topk_cache_k,
          meta));
    }
    service->driver_ = std::make_unique<RefreshDriver>(
        std::move(g1), std::move(g2), std::move(config), options.incremental,
        options.policy, &service->store_);
  }

  if (options.background_refresh) {
    service->driver_->Start();
  } else {
    FSIM_RETURN_NOT_OK(service->driver_->Init());
  }
  return service;
}

Status FSimService::ServeLoop(std::istream& in, std::ostream& out) {
  std::string line;
  bool overflowed = false;
  while (ReadLineCapped(in, &line, kMaxLineBytes, &overflowed)) {
    bool keep_going = true;
    if (overflowed) {
      out << StrFormat("ERR line exceeds %zu bytes\n", kMaxLineBytes);
    } else if (line.find('\0') != std::string::npos) {
      out << "ERR embedded NUL byte in request\n";
    } else {
      const std::string_view trimmed = Trim(line);
      if (trimmed.empty() || trimmed[0] == '#') continue;
      keep_going = HandleLine(trimmed, in, out);
    }
    out.flush();
    if (!out) {
      // The peer is gone (closed pipe/socket); stop reading requests.
      return Status::IOError("response stream failed");
    }
    if (!keep_going) break;
  }
  return Status::OK();
}

bool FSimService::HandleLine(std::string_view line, std::istream& in,
                             std::ostream& out) {
  const std::vector<std::string_view> tokens = SplitWhitespace(line);
  const std::string_view verb = tokens.empty() ? std::string_view() : tokens[0];

  if (verb == "QUIT") {
    out << "BYE\n";
    return false;
  }
  if (verb == "PAIR" || verb == "TOPK" || verb == "THRESH") {
    Query query;
    std::string error;
    if (!ParseQuery(tokens, &query, &error)) {
      out << "ERR " << error << "\n";
      return true;
    }
    auto result = queries_.Run(query);
    if (!result.ok()) {
      out << "ERR " << result.status().message() << "\n";
      return true;
    }
    PrintResult(*result, out);
    return true;
  }
  if (verb == "BATCH") {
    uint32_t n = 0;
    double budget_ms = 0.0;
    if (tokens.size() < 2 || tokens.size() > 3 || !ParseU32(tokens[1], &n) ||
        n > kMaxBatch ||
        (tokens.size() == 3 && !ParseBudget(tokens[2], &budget_ms))) {
      out << StrFormat("ERR usage: BATCH <n> [budget_ms] (n <= %zu)\n",
                       kMaxBatch);
      return true;
    }
    HandleBatch(n, budget_ms, in, out);
    return true;
  }
  if (verb == "EDIT") {
    EditOp op;
    uint32_t graph_index = 0;
    const bool insert = tokens.size() == 5 && tokens[1] == "INSERT";
    const bool remove = tokens.size() == 5 && tokens[1] == "REMOVE";
    if (!(insert || remove) || !ParseU32(tokens[2], &graph_index) ||
        (graph_index != 1 && graph_index != 2) ||
        !ParseU32(tokens[3], &op.from) || !ParseU32(tokens[4], &op.to)) {
      out << "ERR usage: EDIT INSERT|REMOVE <graph 1|2> <from> <to>\n";
      return true;
    }
    op.graph_index = static_cast<int>(graph_index);
    op.insert = insert;
    const Status submitted = driver_->Submit(op);
    if (submitted.IsResourceExhausted()) {
      out << "ERR shed: " << submitted.message() << "\n";
    } else if (!submitted.ok()) {
      out << "ERR " << submitted.message() << "\n";
    } else if (driver_->durable()) {
      out << "OK logged\n";
    } else {
      out << "OK queued\n";
    }
    return true;
  }
  if (verb == "FLUSH") {
    Status status = driver_->Flush();
    if (!status.ok()) {
      out << "ERR " << status.message() << "\n";
    } else {
      out << StrFormat("OK version %llu\n",
                       static_cast<unsigned long long>(store_.version()));
    }
    return true;
  }
  if (verb == "STATS") {
    // `STATS` stays one deterministic line (golden-transcript pinned);
    // `STATS FULL` appends timing-dependent histogram quantile lines,
    // terminated by END.
    const bool full = tokens.size() == 2 && tokens[1] == "FULL";
    if (tokens.size() > 1 && !full) {
      out << "ERR usage: STATS [FULL]\n";
      return true;
    }
    // Every snapshot field, the version included, comes from this one
    // read, so a concurrent publish cannot tear the line.
    const SnapshotStore::ReadGuard snapshot(store_);
    const RefreshDriver::Stats stats = driver_->stats();
    out << StrFormat(
        "STATS version=%llu pairs=%zu pending=%zu capacity=%zu "
        "applied=%llu coalesced=%llu failed=%llu shed=%llu replayed=%llu "
        "publishes=%llu persists=%llu snapshot_bytes=%llu wal_durable=%llu "
        "wal_applied=%llu wal_pending=%llu stale_edits=%llu stale_s=%llu "
        "publish_age_s=%llu ready=%s converged=%s warm=%s simd=%s\n",
        static_cast<unsigned long long>(snapshot ? snapshot->meta().version
                                                 : 0),
        snapshot ? snapshot->scores().NumPairs() : 0,
        driver_->pending_edits(), driver_->policy().queue_capacity,
        static_cast<unsigned long long>(stats.edits_applied),
        static_cast<unsigned long long>(stats.edits_coalesced),
        static_cast<unsigned long long>(stats.edits_failed),
        static_cast<unsigned long long>(stats.edits_shed),
        static_cast<unsigned long long>(stats.edits_replayed),
        static_cast<unsigned long long>(stats.publishes),
        static_cast<unsigned long long>(stats.snapshot_persists),
        static_cast<unsigned long long>(stats.last_snapshot_bytes),
        static_cast<unsigned long long>(stats.durable_lsn),
        static_cast<unsigned long long>(stats.applied_lsn),
        static_cast<unsigned long long>(stats.wal_pending),
        static_cast<unsigned long long>(stats.edits_behind),
        static_cast<unsigned long long>(
            stats.seconds_behind < 0.0 ? 0.0 : stats.seconds_behind),
        static_cast<unsigned long long>(stats.publish_age_seconds < 0.0
                                            ? 0.0
                                            : stats.publish_age_seconds),
        driver_->ready() ? "yes" : "no",
        snapshot && snapshot->meta().converged ? "yes" : "no",
        snapshot && snapshot->meta().warm_start ? "yes" : "no",
        // Resolving here also refreshes the fsim_simd_level gauge for
        // METRICS readers that never ran a θ = 0 tile-panel solve.
        simd::SimdLevelName(simd::ResolveSimdLevel(SimdMode::kAuto)));
    if (full) {
      for (const obs::HistogramEntry& entry :
           obs::Registry::Default().HistogramEntries()) {
        const obs::HistogramSnapshot& s = entry.snapshot;
        if (s.count == 0) continue;
        // Nanosecond histograms quote microseconds (readable at serve
        // latencies); count histograms quote raw values.
        const bool ns = entry.unit == obs::Histogram::Unit::kNanoseconds;
        const double scale = ns ? 1e-3 : 1.0;
        const char* suffix = ns ? "_us" : "";
        const std::string label =
            entry.key.label_key.empty()
                ? std::string()
                : StrFormat("{%s=\"%s\"}", entry.key.label_key.c_str(),
                            entry.key.label_value.c_str());
        out << StrFormat(
            "HIST %s%s count=%llu p50%s=%.3f p90%s=%.3f p99%s=%.3f "
            "max%s=%.3f\n",
            entry.key.family.c_str(), label.c_str(),
            static_cast<unsigned long long>(s.count), suffix,
            s.Quantile(0.5) * scale, suffix, s.Quantile(0.9) * scale, suffix,
            s.Quantile(0.99) * scale, suffix,
            static_cast<double>(s.max) * scale);
      }
      out << "END\n";
    }
    return true;
  }
  if (verb == "METRICS") {
    // Count-prefixed framing so line-oriented clients know where the
    // exposition payload ends without sentinel parsing.
    const std::string payload = obs::Registry::Default().RenderPrometheus();
    const size_t nlines = static_cast<size_t>(
        std::count(payload.begin(), payload.end(), '\n'));
    out << StrFormat("METRICS %zu\n", nlines) << payload;
    return true;
  }
  out << StrFormat("ERR unknown request '%.*s'\n",
                   static_cast<int>(verb.size()), verb.data());
  return true;
}

void FSimService::HandleBatch(size_t n, double budget_ms, std::istream& in,
                              std::ostream& out) {
  // Same histogram as QueryEngine::RunBatch; covers parse + answer + write
  // (the full protocol-visible latency).
  obs::ScopedLatencyTimer timer(queries_.batch_latency());
  // Consume all n lines before answering, so a malformed entry cannot
  // desynchronize the stream. The same line cap and NUL rejection as the
  // outer loop apply per entry, as in-band per-entry errors.
  std::vector<Query> queries(n);
  std::vector<std::string> errors(n);
  std::string line;
  bool overflowed = false;
  for (size_t i = 0; i < n; ++i) {
    if (!ReadLineCapped(in, &line, kMaxLineBytes, &overflowed)) {
      errors[i] = "unexpected end of stream inside BATCH";
      for (size_t j = i + 1; j < n; ++j) errors[j] = errors[i];
      break;
    }
    if (overflowed) {
      errors[i] = StrFormat("line exceeds %zu bytes", kMaxLineBytes);
      continue;
    }
    if (line.find('\0') != std::string::npos) {
      errors[i] = "embedded NUL byte in request";
      continue;
    }
    const auto tokens = SplitWhitespace(Trim(line));
    ParseQuery(tokens, &queries[i], &errors[i]);
  }

  const SnapshotStore::ReadGuard snapshot(store_);
  if (!snapshot) {
    out << "ERR no snapshot published yet\n";
    return;
  }
  const QueryEngine::Clock::time_point deadline =
      QueryEngine::DeadlineFor(budget_ms);
  out << StrFormat("BATCH %zu v%llu\n", n,
                   static_cast<unsigned long long>(
                       snapshot->meta().version));
  for (size_t i = 0; i < n; ++i) {
    if (!errors[i].empty()) {
      out << "ERR " << errors[i] << "\n";
      continue;
    }
    PrintResult(QueryEngine::Answer(*snapshot, queries[i], deadline), out);
  }
}

}  // namespace fsim
