// Tests for the observability layer (src/obs/): log2 histogram bucket
// placement at power-of-two boundaries, cross-thread shard merging against
// single-thread ground truth, quantile error bounds (within the containing
// bucket, clamped to the observed max), snapshot-during-concurrent-record
// (exercised under TSan in CI), registry identity/callback-gauge ownership
// semantics, Prometheus exposition structure, and trace-span capture with
// a well-formedness check over the Chrome trace JSON (complete "X" events,
// timestamps sorted per tid).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/fsim_config.h"
#include "core/fsim_engine.h"
#include "core/incremental.h"
#include "core/topk_allpairs.h"
#include "core/topk_search.h"
#include "exact/exact_simulation.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tests/test_graphs.h"

namespace fsim {
namespace obs {
namespace {

TEST(HistogramTest, BucketBoundaries) {
  Histogram h(Histogram::Unit::kCount);
  // Exact boundary values: bucket index is bit_width(v), so each power of
  // two opens a new bucket and (2^i - 1) closes the previous one.
  const uint64_t values[] = {0, 1, 2, 3, 4, 7, 8, 1023, 1024};
  for (uint64_t v : values) h.Record(v);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 9u);
  EXPECT_EQ(s.max, 1024u);
  EXPECT_EQ(s.counts[0], 1u);   // 0
  EXPECT_EQ(s.counts[1], 1u);   // 1
  EXPECT_EQ(s.counts[2], 2u);   // 2, 3
  EXPECT_EQ(s.counts[3], 2u);   // 4, 7
  EXPECT_EQ(s.counts[4], 1u);   // 8
  EXPECT_EQ(s.counts[10], 1u);  // 1023
  EXPECT_EQ(s.counts[11], 1u);  // 1024
  uint64_t total = 0;
  for (uint64_t c : s.counts) total += c;
  EXPECT_EQ(total, s.count);

  // BucketUpperBound inverts the placement: a bucket's upper bound lands
  // in that bucket, one more lands in the next.
  for (size_t i = 0; i < 12; ++i) {
    const uint64_t upper = HistogramSnapshot::BucketUpperBound(i);
    EXPECT_EQ(static_cast<size_t>(std::bit_width(upper)), i);
    EXPECT_EQ(static_cast<size_t>(std::bit_width(upper + 1)), i + 1);
  }
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(64), UINT64_MAX);
}

TEST(HistogramTest, CrossThreadMergeEqualsSingleThread) {
  // The same multiset recorded by 8 threads into one sharded histogram and
  // serially into a reference must merge to identical totals.
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 5000;
  Histogram sharded(Histogram::Unit::kCount);
  Histogram reference(Histogram::Unit::kCount);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sharded, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        sharded.Record(static_cast<uint64_t>(t) * kPerThread + i);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (uint64_t v = 0; v < kThreads * kPerThread; ++v) reference.Record(v);

  const HistogramSnapshot a = sharded.Snapshot();
  const HistogramSnapshot b = reference.Snapshot();
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.counts, b.counts);
}

TEST(HistogramTest, QuantileWithinOneBucketWidth) {
  Histogram h(Histogram::Unit::kCount);
  for (int i = 0; i < 1000; ++i) h.Record(100);  // bucket 7: [64, 127]
  const HistogramSnapshot s = h.Snapshot();
  for (double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    const double estimate = s.Quantile(q);
    EXPECT_GE(estimate, 64.0) << q;
    EXPECT_LE(estimate, 100.0) << q;  // clamped to the observed max
  }

  // Mixed distribution: the median must land in the bucket holding the
  // true median, bounding the error to that bucket's width.
  Histogram m(Histogram::Unit::kCount);
  for (int i = 0; i < 600; ++i) m.Record(10);    // bucket 4: [8, 15]
  for (int i = 0; i < 400; ++i) m.Record(5000);  // bucket 13
  const HistogramSnapshot ms = m.Snapshot();
  EXPECT_GE(ms.Quantile(0.5), 8.0);
  EXPECT_LE(ms.Quantile(0.5), 15.0);
  EXPECT_GE(ms.Quantile(0.9), 4096.0);
  EXPECT_LE(ms.Quantile(0.9), 5000.0);
  EXPECT_EQ(HistogramSnapshot().Quantile(0.5), 0.0);  // empty
}

TEST(HistogramTest, DeltaIsolatesAnInterval) {
  Histogram h(Histogram::Unit::kCount);
  h.Record(3);
  h.Record(100);
  const HistogramSnapshot before = h.Snapshot();
  h.Record(7);
  h.Record(7);
  const HistogramSnapshot after = h.Snapshot();
  const HistogramSnapshot delta = HistogramSnapshot::Delta(after, before);
  EXPECT_EQ(delta.count, 2u);
  EXPECT_EQ(delta.sum, 14u);
  EXPECT_EQ(delta.counts[3], 2u);  // both 7s
  EXPECT_EQ(delta.counts[7], 0u);  // the pre-interval 100 subtracted out
  // Shard maxima are cumulative, so the delta conservatively reports the
  // lifetime max.
  EXPECT_EQ(delta.max, 100u);
}

TEST(HistogramTest, SnapshotDuringConcurrentRecord) {
  // Snapshots taken mid-recording must always be internally consistent
  // prefixes: count equals the bucket sum, and both only grow. TSan (CI
  // matrix) checks the memory-order story; this asserts the arithmetic.
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 20000;
  Histogram h(Histogram::Unit::kCount);
  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&h] {
      for (uint64_t i = 0; i < kPerThread; ++i) h.Record(i & 1023);
    });
  }
  uint64_t last_count = 0;
  std::thread reader([&h, &done, &last_count] {
    while (!done.load(std::memory_order_acquire)) {
      const HistogramSnapshot s = h.Snapshot();
      uint64_t total = 0;
      for (uint64_t c : s.counts) total += c;
      EXPECT_EQ(total, s.count);
      EXPECT_GE(s.count, last_count);
      EXPECT_LE(s.max, 1023u);
      last_count = s.count;
    }
  });
  for (auto& th : writers) th.join();
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(h.Snapshot().count, kThreads * kPerThread);
}

TEST(CounterTest, CrossThreadSumAndReset) {
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) c.Inc();
      c.Inc(5);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.Value(), 8u * 10005u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  EXPECT_EQ(g.Value(), 0.0);
  g.Set(2.5);
  EXPECT_EQ(g.Value(), 2.5);
  g.Add(-1.0);
  EXPECT_EQ(g.Value(), 1.5);
}

TEST(RegistryTest, SameKeySameHandle) {
  Registry registry;
  Counter* a = registry.GetCounter("fsim_test_total", "help", "kind", "x");
  Counter* b = registry.GetCounter("fsim_test_total", "help", "kind", "x");
  Counter* other = registry.GetCounter("fsim_test_total", "help", "kind", "y");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, other);
  a->Inc(3);
  other->Inc(4);
  const auto family = registry.CounterFamilySnapshot("fsim_test_total");
  ASSERT_EQ(family.size(), 2u);
  EXPECT_EQ(family[0], (std::pair<std::string, uint64_t>{"x", 3}));
  EXPECT_EQ(family[1], (std::pair<std::string, uint64_t>{"y", 4}));

  Histogram* h = registry.GetHistogram("fsim_test_seconds", "help",
                                       Histogram::Unit::kNanoseconds);
  EXPECT_EQ(registry.FindHistogram("fsim_test_seconds"), h);
  EXPECT_EQ(registry.FindHistogram("fsim_absent_seconds"), nullptr);
}

TEST(RegistryTest, CallbackGaugeOwnership) {
  Registry registry;
  int owner_a = 0, owner_b = 0;
  registry.RegisterCallbackGauge("fsim_depth", "help", &owner_a,
                                 [] { return 1.0; });
  // Re-registration replaces the callback (newest instance wins).
  registry.RegisterCallbackGauge("fsim_depth", "help", &owner_b,
                                 [] { return 2.0; });
  EXPECT_NE(registry.RenderPrometheus().find("fsim_depth 2"),
            std::string::npos);
  // A stale owner cannot tear down the replacement...
  registry.UnregisterCallbackGauge("fsim_depth", &owner_a);
  EXPECT_NE(registry.RenderPrometheus().find("fsim_depth 2"),
            std::string::npos);
  // ...but the current owner can.
  registry.UnregisterCallbackGauge("fsim_depth", &owner_b);
  EXPECT_EQ(registry.RenderPrometheus().find("fsim_depth"),
            std::string::npos);
}

TEST(RegistryTest, PrometheusExpositionStructure) {
  Registry registry;
  Counter* c = registry.GetCounter("fsim_ops_total", "Operations", "kind",
                                   "weird\"label\\with\nchars");
  c->Inc(7);
  registry.GetGauge("fsim_depth", "Depth")->Set(3.5);
  Histogram* h = registry.GetHistogram("fsim_wait_seconds", "Wait",
                                       Histogram::Unit::kNanoseconds);
  h->Record(1'000'000'000);  // 1s
  h->Record(500);            // 500ns
  const std::string text = registry.RenderPrometheus();

  EXPECT_NE(text.find("# HELP fsim_ops_total Operations\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE fsim_ops_total counter\n"), std::string::npos);
  // Label values escape backslash, quote and newline.
  EXPECT_NE(
      text.find("fsim_ops_total{kind=\"weird\\\"label\\\\with\\nchars\"} 7"),
      std::string::npos);
  EXPECT_NE(text.find("# TYPE fsim_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("fsim_depth 3.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE fsim_wait_seconds histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("fsim_wait_seconds_count 2"), std::string::npos);
  EXPECT_NE(text.find("fsim_wait_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  // Nanosecond histograms expose seconds: the sum is ~1.0000005.
  const size_t sum_pos = text.find("fsim_wait_seconds_sum ");
  ASSERT_NE(sum_pos, std::string::npos);
  const double sum = std::stod(text.substr(sum_pos + sizeof("fsim_wait_seconds_sum ") - 1));
  EXPECT_NEAR(sum, 1.0000005, 1e-9);

  // Cumulative bucket counts never decrease and end at the total count.
  uint64_t prev = 0;
  size_t pos = 0;
  while ((pos = text.find("fsim_wait_seconds_bucket{le=\"", pos)) !=
         std::string::npos) {
    const size_t value_at = text.find("} ", pos);
    ASSERT_NE(value_at, std::string::npos);
    const uint64_t cumulative = std::stoull(text.substr(value_at + 2));
    EXPECT_GE(cumulative, prev);
    prev = cumulative;
    pos = value_at;
  }
  EXPECT_EQ(prev, 2u);
}

TEST(ScopedLatencyTimerTest, NullHandleIsSafe) {
  { ScopedLatencyTimer timer(nullptr); }
  Histogram h(Histogram::Unit::kNanoseconds);
  { ScopedLatencyTimer timer(&h); }
  EXPECT_EQ(h.Snapshot().count, 1u);
}

TEST(TraceTest, DisarmedSpansRecordNothing) {
  DisarmTracing();
  const uint64_t before = TraceEventCount();
  {
    FSIM_TRACE_SPAN("test.disarmed");
    FSIM_TRACE_SPAN_ARG("test.disarmed.arg", 42);
  }
  EXPECT_EQ(TraceEventCount(), before);
}

TEST(TraceTest, CapturesSpansAcrossThreads) {
  ArmTracing();
  {
    TraceSpan outer("test.outer");
    { FSIM_TRACE_SPAN_ARG("test.inner", 7); }
    std::thread worker([] { FSIM_TRACE_SPAN("test.worker"); });
    worker.join();
    outer.End();
    outer.End();  // idempotent: must not double-record
  }
  DisarmTracing();

  const std::vector<ThreadTrace> threads = SnapshotTrace();
  size_t outer_count = 0, inner_count = 0, worker_count = 0;
  for (const ThreadTrace& t : threads) {
    uint64_t prev_start = 0;
    for (const TraceEvent& e : t.events) {
      // Sorted per thread; spans nest (inner fully inside outer).
      EXPECT_GE(e.start_ns, prev_start);
      prev_start = e.start_ns;
      const std::string name = e.name;
      if (name == "test.outer") ++outer_count;
      if (name == "test.inner") {
        ++inner_count;
        EXPECT_TRUE(e.has_arg);
        EXPECT_EQ(e.arg, 7u);
      }
      if (name == "test.worker") ++worker_count;
    }
  }
  EXPECT_EQ(outer_count, 1u);
  EXPECT_EQ(inner_count, 1u);
  EXPECT_EQ(worker_count, 1u);
}

TEST(TraceTest, ChromeTraceJsonIsWellFormed) {
  ArmTracing();
  {
    FSIM_TRACE_SPAN("test.json.a");
    FSIM_TRACE_SPAN_ARG("test.json.b", 3);
  }
  DisarmTracing();
  const std::string json = RenderChromeTrace();

  // Structure: one top-level object, a traceEvents array of complete "X"
  // events, balanced braces/brackets (no trailing comma truncation).
  EXPECT_EQ(json.front(), '{');
  const size_t last = json.find_last_not_of(" \n");
  ASSERT_NE(last, std::string::npos);
  EXPECT_EQ(json[last], '}');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test.json.a\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"v\":3}"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  // Every event is a complete-span event; B/E pairs are never emitted.
  size_t events = 0, pos = 0;
  while ((pos = json.find("\"ph\":", pos)) != std::string::npos) {
    EXPECT_EQ(json.substr(pos, sizeof("\"ph\":\"X\"") - 1), "\"ph\":\"X\"");
    pos += 5;
    ++events;
  }
  EXPECT_GE(events, 2u);
}

// Every solve entry point runs the one solver: one engine.init with the
// three build stages nested inside it, then one engine.iter per step. bj
// runs on the neighbor index, s at θ = 0 on the tile panels (IncrementalFSim
// keeps the index for both).
TEST(TraceTest, BuildStagesNestUnderEngineInit) {
  const Graph g = fsim::testing::MakeDenseRandomGraph(3);
  FSimConfig bj;
  bj.num_threads = 1;
  FSimConfig s = bj;
  s.variant = SimVariant::kSimple;
  struct EntryPoint {
    const char* name;
    // Runs one solve and returns its step count.
    std::function<uint32_t(const FSimConfig&)> run;
  };
  const EntryPoint kEntryPoints[] = {
      {"ComputeFSim",
       [&](const FSimConfig& config) {
         return ComputeFSimSelf(g, config).ValueOrDie().stats().iterations;
       }},
      {"TopKSearch",
       [&](const FSimConfig& config) {
         return TopKSearch(g, g, 0, config).ValueOrDie().depth;
       }},
      {"ComputeTopKPairs",
       [&](const FSimConfig& config) {
         return ComputeTopKPairs(g, g, config, TopKPairsOptions{})
             .ValueOrDie()
             .iterations;
       }},
      {"IncrementalFSim::Create",
       [&](const FSimConfig& config) {
         return IncrementalFSim::Create(g, g, config)
             .ValueOrDie()
             .Snapshot()
             .stats()
             .iterations;
       }},
  };
  const char* kStages[] = {"engine.build.enumerate", "engine.build.init",
                           "engine.build.index"};
  for (const FSimConfig& config : {bj, s}) {
    for (const EntryPoint& entry : kEntryPoints) {
      const std::string context =
          std::string(entry.name) + " " + SimVariantName(config.variant);
      ArmTracing();
      const uint32_t steps = entry.run(config);
      DisarmTracing();
      ASSERT_GT(steps, 0u) << context;

      size_t init_count = 0;
      size_t stage_count = 0;
      uint32_t iter_count = 0;
      for (const ThreadTrace& t : SnapshotTrace()) {
        for (const TraceEvent& init : t.events) {
          if (std::string(init.name) == "engine.iter") ++iter_count;
          if (std::string(init.name) != "engine.init") continue;
          ++init_count;
          for (const char* stage : kStages) {
            const auto it = std::find_if(
                t.events.begin(), t.events.end(), [&](const TraceEvent& e) {
                  return std::string(e.name) == stage;
                });
            ASSERT_NE(it, t.events.end()) << context << ": " << stage;
            EXPECT_GE(it->start_ns, init.start_ns) << context << ": " << stage;
            EXPECT_LE(it->start_ns + it->dur_ns, init.start_ns + init.dur_ns)
                << context << ": " << stage;
            ++stage_count;
          }
        }
      }
      EXPECT_EQ(init_count, 1u) << context;
      EXPECT_EQ(stage_count, 3u) << context;
      EXPECT_EQ(iter_count, steps) << context;
    }
  }
}

TEST(TraceTest, ArmResetsPriorEvents) {
  ArmTracing();
  { FSIM_TRACE_SPAN("test.reset.first"); }
  DisarmTracing();
  EXPECT_GE(TraceEventCount(), 1u);
  ArmTracing();
  DisarmTracing();
  EXPECT_EQ(TraceEventCount(), 0u);
}

}  // namespace
}  // namespace obs
}  // namespace fsim
