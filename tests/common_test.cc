// Unit tests for the common substrate: Status/Result, hashing, the flat
// pair map, RNG + samplers, thread pool, string utilities and the table
// printer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace fsim {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
  EXPECT_TRUE(st.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad weights");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(st.message(), "bad weights");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad weights");
}

TEST(StatusTest, CopyAndMovePreserveState) {
  Status st = Status::IOError("disk");
  Status copy = st;
  EXPECT_TRUE(copy.IsIOError());
  EXPECT_EQ(copy.message(), "disk");
  Status moved = std::move(st);
  EXPECT_TRUE(moved.IsIOError());
  Status assigned;
  assigned = moved;
  EXPECT_EQ(assigned.message(), "disk");
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kNotFound), "NotFound");
  EXPECT_EQ(StatusCodeToString(StatusCode::kInternal), "Internal");
  EXPECT_EQ(StatusCodeToString(StatusCode::kNotImplemented),
            "NotImplemented");
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto inner = []() -> Status { return Status::NotFound("x"); };
  auto outer = [&]() -> Status {
    FSIM_RETURN_NOT_OK(inner());
    return Status::OK();
  };
  EXPECT_TRUE(outer().IsNotFound());
}

// ---------------------------------------------------------------- Result --

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto make = [](bool fail) -> Result<int> {
    if (fail) return Status::InvalidArgument("no");
    return 7;
  };
  auto use = [&](bool fail) -> Result<int> {
    FSIM_ASSIGN_OR_RETURN(int v, make(fail));
    return v + 1;
  };
  EXPECT_EQ(*use(false), 8);
  EXPECT_TRUE(use(true).status().IsInvalidArgument());
}

// ------------------------------------------------------------------ Hash --

TEST(HashTest, PairKeyRoundTrips) {
  const uint64_t key = PairKey(123456, 654321);
  EXPECT_EQ(PairFirst(key), 123456u);
  EXPECT_EQ(PairSecond(key), 654321u);
}

TEST(HashTest, PairKeyIsInjective) {
  EXPECT_NE(PairKey(1, 2), PairKey(2, 1));
  EXPECT_NE(PairKey(0, 1), PairKey(1, 0));
}

TEST(HashTest, Mix64SpreadsSequentialKeys) {
  // Adjacent keys should disagree in many bits after mixing.
  int total_diff = 0;
  for (uint64_t i = 0; i < 64; ++i) {
    total_diff += __builtin_popcountll(Mix64(i) ^ Mix64(i + 1));
  }
  EXPECT_GT(total_diff / 64, 20);
}

TEST(HashTest, HashStringDiffersOnContent) {
  EXPECT_NE(HashString("abc"), HashString("abd"));
  EXPECT_EQ(HashString("abc"), HashString("abc"));
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.Next() == b.Next();
  EXPECT_LT(equal, 3);
}

TEST(RngTest, NextBoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextBoundedIsRoughlyUniform) {
  Rng rng(11);
  std::vector<int> counts(8, 0);
  constexpr int kDraws = 80000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextBounded(8)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / 8, kDraws / 8 * 0.1);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all 7 values hit
}

TEST(RngTest, GaussianMomentsAreSane) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.05);
  EXPECT_NEAR(sq / kDraws, 1.0, 0.05);
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng rng(17);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  rng.Shuffle(&v);
  std::vector<int> sorted(v);
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(ZipfSamplerTest, SkewZeroIsUniform) {
  ZipfSampler sampler(4, 0.0);
  Rng rng(19);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 40000; ++i) ++counts[sampler.Sample(&rng)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 1200);
}

TEST(ZipfSamplerTest, PositiveSkewPrefersSmallIndices) {
  ZipfSampler sampler(10, 1.5);
  Rng rng(23);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) ++counts[sampler.Sample(&rng)];
  EXPECT_GT(counts[0], counts[4]);
  EXPECT_GT(counts[0], counts[9]);
}

TEST(PowerLawDegreeSequenceTest, HitsAverageAndCap) {
  Rng rng(29);
  auto degrees = PowerLawDegreeSequence(5000, 6.0, 100, 2.1, &rng);
  double sum = 0.0;
  uint32_t max_deg = 0;
  for (uint32_t d : degrees) {
    EXPECT_GE(d, 1u);
    EXPECT_LE(d, 100u);
    sum += d;
    max_deg = std::max(max_deg, d);
  }
  EXPECT_NEAR(sum / 5000.0, 6.0, 1.2);
  EXPECT_GT(max_deg, 20u);  // a heavy tail exists
}

// ------------------------------------------------------------ ThreadPool --

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  std::vector<int> hits(100, 0);
  pool.ParallelForChunked(100, 8, [&](int worker, size_t begin, size_t end) {
    EXPECT_EQ(worker, 0);
    for (size_t i = begin; i < end; ++i) hits[i]++;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, CoversAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.ParallelForChunked(10000, 312, [&](int, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i]++;
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ReusableAcrossCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> count{0};
    pool.ParallelForChunked(97, 4, [&](int, size_t begin, size_t end) {
      count += static_cast<int>(end - begin);
    });
    EXPECT_EQ(count.load(), 97);
  }
}

TEST(ThreadPoolTest, EmptyRangeIsNoOp) {
  ThreadPool pool(2);
  pool.ParallelForChunked(0, 1, [](int, size_t, size_t) {
    FAIL() << "must not run";
  });
}

TEST(ThreadPoolTest, UnbalancedBodiesStillCoverAllIndices) {
  // Dynamic chunk scheduling must still execute each index exactly once even
  // when one stripe of indices is much more expensive than the rest.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(101);
  pool.ParallelForChunked(101, 3, [&](int, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      if (i % 4 == 0) {
        // Unbalanced work on one residue class.
        volatile double x = 0;
        for (int k = 0; k < 1000; ++k) {
          x = x + std::sqrt(static_cast<double>(k));
        }
      }
      hits[i]++;
    }
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ChunkedCoversAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10007);
  pool.ParallelForChunked(10007, 64, [&](int worker, size_t begin, size_t end) {
    EXPECT_GE(worker, 0);
    EXPECT_LT(worker, 4);
    EXPECT_LE(end, 10007u);
    for (size_t i = begin; i < end; ++i) hits[i]++;
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ChunkedChunksRespectGrain) {
  ThreadPool pool(3);
  std::atomic<int> oversized{0};
  pool.ParallelForChunked(1000, 37, [&](int, size_t begin, size_t end) {
    if (end - begin > 37) oversized++;
  });
  EXPECT_EQ(oversized.load(), 0);
}

TEST(ThreadPoolTest, ChunkedWorkerIdsAreSafeForScratch) {
  // Concurrent chunks must never share a worker id: per-worker counters
  // incremented non-atomically stay consistent iff the ids partition chunks.
  ThreadPool pool(4);
  struct alignas(64) Counter {
    size_t value = 0;
  };
  std::vector<Counter> per_worker(4);
  pool.ParallelForChunked(5000, 16, [&](int worker, size_t begin, size_t end) {
    per_worker[worker].value += end - begin;
  });
  size_t total = 0;
  for (const auto& c : per_worker) total += c.value;
  EXPECT_EQ(total, 5000u);
}

TEST(ThreadPoolTest, ChunkedSmallRangeRunsInlineAsWorkerZero) {
  ThreadPool pool(4);
  std::vector<int> workers;
  pool.ParallelForChunked(5, 8, [&](int worker, size_t begin, size_t end) {
    workers.push_back(worker);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 5u);
  });
  ASSERT_EQ(workers.size(), 1u);
  EXPECT_EQ(workers[0], 0);
}

TEST(ThreadPoolTest, ChunkedEmptyRangeIsNoOp) {
  ThreadPool pool(2);
  pool.ParallelForChunked(0, 8, [](int, size_t, size_t) {
    FAIL() << "must not run";
  });
}

TEST(ThreadPoolTest, ChunkedZeroGrainIsClampedToOne) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelForChunked(100, 0, [&](int, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i]++;
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SpanSlicesAreGrainAlignedRunsOfTheIndexArray) {
  // The frontier sweep relies on each slice being a contiguous run of the
  // ascending index array that starts on a grain boundary, so a slice
  // walks the score arrays upward.
  ThreadPool pool(3);
  constexpr size_t kN = 1000;
  constexpr size_t kGrain = 64;
  std::vector<uint32_t> indices(kN);
  for (size_t i = 0; i < kN; ++i) {
    indices[i] = static_cast<uint32_t>(3 * i + 1);
  }
  std::vector<std::atomic<int>> hits(kN);
  std::atomic<int> misaligned{0};
  pool.ParallelForSpan(indices, kGrain,
                       [&](int, std::span<const uint32_t> ids) {
                         const size_t offset =
                             static_cast<size_t>(ids.data() - indices.data());
                         if (offset % kGrain != 0 ||
                             ids.size() != std::min(kGrain, kN - offset)) {
                           misaligned++;
                         }
                         for (size_t k = 0; k < ids.size(); ++k) {
                           if (ids[k] != indices[offset + k]) misaligned++;
                           hits[offset + k]++;
                         }
                       });
  EXPECT_EQ(misaligned.load(), 0);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SpanEmptyAndShortArraysRunInline) {
  ThreadPool pool(4);
  pool.ParallelForSpan({}, 8, [](int, std::span<const uint32_t>) {
    FAIL() << "must not run";
  });
  const std::vector<uint32_t> indices = {2, 5, 9, 11, 40};
  std::vector<int> workers;
  pool.ParallelForSpan(indices, 8, [&](int worker,
                                       std::span<const uint32_t> ids) {
    workers.push_back(worker);
    EXPECT_EQ(ids.data(), indices.data());
    EXPECT_EQ(ids.size(), indices.size());
  });
  ASSERT_EQ(workers.size(), 1u);
  EXPECT_EQ(workers[0], 0);
}

// ------------------------------------------------------------ StringUtil --

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringUtilTest, SplitWhitespaceDropsRuns) {
  auto parts = SplitWhitespace("  v  12\tlabel \n");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "v");
  EXPECT_EQ(parts[1], "12");
  EXPECT_EQ(parts[2], "label");
}

TEST(StringUtilTest, TrimBothEnds) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t\n"), "");
}

TEST(StringUtilTest, ToLowerAscii) { EXPECT_EQ(ToLower("AbC"), "abc"); }

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("fsim_core", "fsim"));
  EXPECT_FALSE(StartsWith("fs", "fsim"));
}

TEST(StringUtilTest, StrFormatFormats) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 0.5), "0.50");
}

TEST(StringUtilTest, ParseInt64AcceptsValidValues) {
  EXPECT_EQ(ParseInt64("42").ValueOrDie(), 42);
  EXPECT_EQ(ParseInt64("-7").ValueOrDie(), -7);
  EXPECT_EQ(ParseInt64("  19 ").ValueOrDie(), 19);  // surrounding whitespace ok
  EXPECT_EQ(ParseInt64("9223372036854775807").ValueOrDie(), INT64_MAX);
  EXPECT_EQ(ParseInt64("-9223372036854775808").ValueOrDie(), INT64_MIN);
}

TEST(StringUtilTest, ParseInt64RejectsBadInput) {
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("abc").ok());
  EXPECT_FALSE(ParseInt64("12abc").ok());  // trailing garbage (atoi accepts)
  EXPECT_FALSE(ParseInt64("1.5").ok());
  EXPECT_FALSE(ParseInt64("9223372036854775808").ok());   // overflow
  EXPECT_FALSE(ParseInt64("-9223372036854775809").ok());  // underflow
}

TEST(StringUtilTest, ParseUint64AcceptsValidValues) {
  EXPECT_EQ(ParseUint64("0").ValueOrDie(), 0u);
  EXPECT_EQ(ParseUint64("18446744073709551615").ValueOrDie(), UINT64_MAX);
}

TEST(StringUtilTest, ParseUint64RejectsBadInput) {
  EXPECT_FALSE(ParseUint64("").ok());
  // strtoull silently wraps negatives; the parser must reject the sign.
  EXPECT_FALSE(ParseUint64("-1").ok());
  EXPECT_FALSE(ParseUint64("+1").ok());
  EXPECT_FALSE(ParseUint64("18446744073709551616").ok());  // overflow
  EXPECT_FALSE(ParseUint64("10 x").ok());
}

TEST(StringUtilTest, ParseDoubleAcceptsValidValues) {
  EXPECT_DOUBLE_EQ(ParseDouble("0.75").ValueOrDie(), 0.75);
  EXPECT_DOUBLE_EQ(ParseDouble("-2").ValueOrDie(), -2.0);
  EXPECT_DOUBLE_EQ(ParseDouble("1e3").ValueOrDie(), 1000.0);
}

TEST(StringUtilTest, ParseDoubleKeepsUnderflowAndRejectsOverflow) {
  // strtod flags both with ERANGE. An underflow is the nearest double, a
  // subnormal or zero, and is what %.17g writes for a subnormal value.
  const Result<double> tiny = ParseDouble("4.9406564584124654e-324");
  ASSERT_TRUE(tiny.ok()) << tiny.status().ToString();
  EXPECT_EQ(*tiny, std::numeric_limits<double>::denorm_min());
  const Result<double> negative_tiny = ParseDouble("-2.2250738585072e-310");
  ASSERT_TRUE(negative_tiny.ok()) << negative_tiny.status().ToString();
  EXPECT_LT(*negative_tiny, 0.0);
  EXPECT_GT(*negative_tiny, -std::numeric_limits<double>::min());
  const Result<double> zero = ParseDouble("1e-400");
  ASSERT_TRUE(zero.ok()) << zero.status().ToString();
  EXPECT_EQ(*zero, 0.0);
  for (const char* huge : {"1e400", "-1e400"}) {
    const Status st = ParseDouble(huge).status();
    EXPECT_EQ(st.code(), StatusCode::kOutOfRange)
        << huge << ": " << st.ToString();
  }
}

TEST(StringUtilTest, ParseDoubleRejectsBadInput) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("zero").ok());
  EXPECT_FALSE(ParseDouble("0.5theta").ok());  // trailing garbage (atof accepts)
  EXPECT_FALSE(ParseDouble("1e99999").ok());   // overflow
}

// ---------------------------------------------------------- TablePrinter --

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"long-name", "22"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("long-name"), std::string::npos);
  // Header separator exists.
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(TablePrinterTest, HandlesShortRows) {
  TablePrinter t({"a", "b", "c"});
  t.AddRow({"only-one"});
  EXPECT_NE(t.ToString().find("only-one"), std::string::npos);
}

// ----------------------------------------------------------------- Timer --

TEST(TimerTest, MeasuresElapsedTime) {
  Timer timer;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + static_cast<double>(i);
  const double first = timer.Seconds();
  EXPECT_GE(first, 0.0);
  EXPECT_GE(timer.Seconds(), first);  // monotone
  timer.Reset();
  EXPECT_LT(timer.Seconds(), first + 1.0);
}

}  // namespace
}  // namespace fsim
