// Tests for the telemetry subsystem (DESIGN.md §12): histogram bucket math,
// percentile clamping, shard merging, registry semantics, trace spans, and
// the util/timer.h stopwatch the benches were built on. The multi-thread
// cases double as TSan targets (this binary carries the `sanitizer` label).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/telemetry/telemetry.h"
#include "src/util/timer.h"

namespace odnet {
namespace telemetry {
namespace {

// ---------------------------------------------------------------------------
// util/timer.h
// ---------------------------------------------------------------------------

TEST(StopwatchTest, ElapsedIsMonotonicNonNegative) {
  util::Stopwatch watch;
  const double a = watch.ElapsedSeconds();
  EXPECT_GE(a, 0.0);
  // Burn a little time so the second read is strictly later.
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += static_cast<double>(i);
  (void)sink;
  const double b = watch.ElapsedSeconds();
  EXPECT_GE(b, a);
  EXPECT_GT(b, 0.0);
}

TEST(StopwatchTest, UnitsAgree) {
  util::Stopwatch watch;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += static_cast<double>(i);
  (void)sink;
  const double seconds = watch.ElapsedSeconds();
  const double millis = watch.ElapsedMillis();
  const int64_t micros = watch.ElapsedMicros();
  // Reads happen at slightly increasing times, so each larger unit read is
  // a lower bound for the next: s*1e3 <= ms (+slop), ms*1e3 <= us (+slop).
  EXPECT_LE(seconds * 1e3, millis + 1.0);
  EXPECT_LE(millis * 1e3, static_cast<double>(micros) + 1e3);
}

TEST(StopwatchTest, RestartResets) {
  util::Stopwatch watch;
  volatile double sink = 0.0;
  for (int i = 0; i < 1000000; ++i) sink += static_cast<double>(i);
  (void)sink;
  const double before = watch.ElapsedSeconds();
  watch.Restart();
  EXPECT_LT(watch.ElapsedSeconds(), before);
}

// ---------------------------------------------------------------------------
// Histogram bucket math
// ---------------------------------------------------------------------------

TEST(HistogramBucketTest, ExactBelowTwiceSubBuckets) {
  // With 16 sub-buckets per power of two, every value below 32 gets its own
  // bucket: [0, 16) by the dense prefix, [16, 32) because sub-bucket width
  // is still 1 there.
  for (int64_t v = 0; v < 32; ++v) {
    EXPECT_EQ(Histogram::BucketIndex(v), static_cast<int>(v)) << "v=" << v;
    EXPECT_EQ(Histogram::BucketUpperBound(static_cast<int>(v)), v);
  }
}

TEST(HistogramBucketTest, NegativeClampsToZero) {
  EXPECT_EQ(Histogram::BucketIndex(-1), 0);
  EXPECT_EQ(Histogram::BucketIndex(std::numeric_limits<int64_t>::min()), 0);
}

TEST(HistogramBucketTest, PowerOfTwoBoundaries) {
  // Each power of two starts a fresh block of 16 sub-buckets; the value one
  // below it lands in the previous block's last sub-bucket.
  for (int p = 5; p <= Histogram::kMaxLog2; ++p) {
    const int64_t v = int64_t{1} << p;
    const int block_start =
        (p - Histogram::kSubBucketBits + 1) << Histogram::kSubBucketBits;
    EXPECT_EQ(Histogram::BucketIndex(v), block_start) << "p=" << p;
    EXPECT_EQ(Histogram::BucketIndex(v - 1), block_start - 1) << "p=" << p;
  }
}

TEST(HistogramBucketTest, UpperBoundIsTightCover) {
  // For any value: it maps into a bucket whose upper bound is >= the value,
  // the previous bucket's upper bound is < the value, and (above the exact
  // range) the bucket's relative width is at most 1/16.
  std::vector<int64_t> probes;
  for (int p = 0; p <= Histogram::kMaxLog2; ++p) {
    const int64_t base = int64_t{1} << p;
    probes.push_back(base);
    probes.push_back(base + base / 3);
    probes.push_back(base * 2 - 1);
  }
  for (int64_t v : probes) {
    const int b = Histogram::BucketIndex(v);
    const int64_t upper = Histogram::BucketUpperBound(b);
    ASSERT_GE(upper, v) << "v=" << v;
    if (b > 0) {
      ASSERT_LT(Histogram::BucketUpperBound(b - 1), v) << "v=" << v;
    }
    if (v >= Histogram::kSubBuckets) {
      EXPECT_LE(upper - v, v / Histogram::kSubBuckets) << "v=" << v;
    }
  }
}

TEST(HistogramBucketTest, SaturatesAtLastBucket) {
  EXPECT_EQ(Histogram::BucketIndex(int64_t{1} << (Histogram::kMaxLog2 + 1)),
            Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::BucketIndex(std::numeric_limits<int64_t>::max()),
            Histogram::kNumBuckets - 1);
  // The last in-range value also maps to the last bucket — saturation does
  // not skip an index.
  EXPECT_EQ(
      Histogram::BucketIndex((int64_t{1} << (Histogram::kMaxLog2 + 1)) - 1),
      Histogram::kNumBuckets - 1);
}

TEST(HistogramBucketTest, IndicesAreMonotonic) {
  int prev = -1;
  for (int64_t v = 0; v < 4096; ++v) {
    const int b = Histogram::BucketIndex(v);
    EXPECT_GE(b, prev) << "v=" << v;
    prev = b;
  }
}

// ---------------------------------------------------------------------------
// Snapshot and percentiles
// ---------------------------------------------------------------------------

TEST(HistogramTest, EmptySnapshot) {
  Histogram hist;
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 0);
  EXPECT_EQ(snap.sum, 0);
  EXPECT_EQ(snap.min, 0);
  EXPECT_EQ(snap.max, 0);
  EXPECT_EQ(snap.Mean(), 0.0);
  EXPECT_EQ(snap.Percentile(0.5), 0);
  EXPECT_EQ(snap.Percentile(1.0), 0);
}

TEST(HistogramTest, ExactPercentilesInDenseRange) {
  Histogram hist;
  for (int64_t v = 0; v < 16; ++v) hist.Record(v);
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 16);
  EXPECT_EQ(snap.sum, 120);
  EXPECT_EQ(snap.min, 0);
  EXPECT_EQ(snap.max, 15);
  EXPECT_DOUBLE_EQ(snap.Mean(), 7.5);
  // rank = ceil(p * 16): p50 -> 8th smallest = 7; dense buckets are exact.
  EXPECT_EQ(snap.Percentile(0.0), 0);
  EXPECT_EQ(snap.Percentile(0.5), 7);
  EXPECT_EQ(snap.Percentile(1.0), 15);
}

TEST(HistogramTest, PercentileClampsToObservedRange) {
  Histogram hist;
  hist.Record(1000);
  hist.Record(1001);
  const HistogramSnapshot snap = hist.Snapshot();
  // Both samples share a bucket whose upper bound (1023) exceeds the
  // observed max; the percentile clamps into [min, max].
  EXPECT_EQ(snap.Percentile(0.5), 1001);
  EXPECT_EQ(snap.Percentile(1.0), 1001);
  EXPECT_EQ(snap.min, 1000);
  EXPECT_EQ(snap.max, 1001);
}

TEST(HistogramTest, PercentileBoundedRelativeError) {
  Histogram hist;
  for (int64_t v = 1; v <= 100000; ++v) hist.Record(v);
  const HistogramSnapshot snap = hist.Snapshot();
  for (double p : {0.5, 0.9, 0.99, 0.999}) {
    const auto exact =
        static_cast<int64_t>(std::ceil(p * 100000.0));  // values are 1..N
    const int64_t approx = snap.Percentile(p);
    EXPECT_GE(approx, exact) << "p=" << p;
    EXPECT_LE(approx - exact, exact / 16 + 1) << "p=" << p;
  }
}

TEST(HistogramTest, MergesThreadShards) {
  // Each recording thread gets its own shard index, so landing the samples
  // in different shards and snapshotting exercises the merge.
  Histogram hist;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < 100; ++i) hist.Record(t);
    });
  }
  for (std::thread& t : threads) t.join();
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 800);
  EXPECT_EQ(snap.sum, 100 * (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7));
  EXPECT_EQ(snap.min, 0);
  EXPECT_EQ(snap.max, 7);
  for (int64_t v = 0; v < 8; ++v) {
    EXPECT_EQ(snap.buckets[static_cast<size_t>(v)], 100) << "v=" << v;
  }
}

// TSan stress: 8 threads hammer one histogram while a reader snapshots
// concurrently. Correctness checked on the final (quiescent) snapshot;
// the interleaved snapshots only need to be tear-free (count >= 0, etc.).
TEST(HistogramTest, ConcurrentRecordStress) {
  Histogram hist;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::atomic<bool> done{false};
  std::thread reader([&hist, &done] {
    while (!done.load(std::memory_order_relaxed)) {
      const HistogramSnapshot snap = hist.Snapshot();
      ASSERT_GE(snap.count, 0);
      ASSERT_GE(snap.sum, 0);
      ASSERT_GE(snap.max, snap.min);
    }
  });
  std::vector<std::thread> writers;
  int64_t expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.Record((t * kPerThread + i) % 997);
      }
    });
    for (int i = 0; i < kPerThread; ++i) {
      expected_sum += (t * kPerThread + i) % 997;
    }
  }
  for (std::thread& t : writers) t.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, int64_t{kThreads} * kPerThread);
  EXPECT_EQ(snap.sum, expected_sum);
  EXPECT_EQ(snap.min, 0);
  EXPECT_EQ(snap.max, 996);
}

// ---------------------------------------------------------------------------
// Counter and gauge
// ---------------------------------------------------------------------------

TEST(CounterTest, ConcurrentAddsSum) {
  Counter counter;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < 10000; ++i) counter.Add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.Value(), 80000);
}

TEST(GaugeTest, HighWaterIsMonotone) {
  Gauge gauge;
  gauge.Set(5);
  EXPECT_EQ(gauge.Value(), 5);
  EXPECT_EQ(gauge.HighWater(), 5);
  gauge.Add(-2);
  EXPECT_EQ(gauge.Value(), 3);
  EXPECT_EQ(gauge.HighWater(), 5);
  gauge.Add(7);
  EXPECT_EQ(gauge.Value(), 10);
  EXPECT_EQ(gauge.HighWater(), 10);
  gauge.Set(1);
  EXPECT_EQ(gauge.Value(), 1);
  EXPECT_EQ(gauge.HighWater(), 10);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(RegistryTest, StableInstrumentPointers) {
  TelemetryRegistry& reg = TelemetryRegistry::Get();
  Counter* a = reg.GetCounter("test.registry.counter");
  Counter* b = reg.GetCounter("test.registry.counter");
  EXPECT_EQ(a, b);
  EXPECT_NE(reg.GetHistogram("test.registry.hist"),
            static_cast<Histogram*>(nullptr));
  EXPECT_EQ(reg.GetHistogram("test.registry.hist"),
            reg.GetHistogram("test.registry.hist"));
}

TEST(RegistryTest, CounterValueDoesNotCreate) {
  TelemetryRegistry& reg = TelemetryRegistry::Get();
  EXPECT_EQ(reg.CounterValue("test.registry.never_created"), 0);
  const std::string json = reg.SnapshotJson();
  EXPECT_EQ(json.find("test.registry.never_created"), std::string::npos);
}

TEST(RegistryTest, SnapshotJsonHasAllSections) {
  TelemetryRegistry& reg = TelemetryRegistry::Get();
  reg.GetCounter("test.snapshot.counter")->Add(42);
  reg.GetGauge("test.snapshot.gauge")->Set(7);
  reg.GetHistogram("test.snapshot.hist")->Record(123);
  const std::string json = reg.SnapshotJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test.snapshot.counter\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"test.snapshot.gauge\": {\"value\": 7"),
            std::string::npos);
  EXPECT_NE(json.find("\"test.snapshot.hist\": {\"count\": 1"),
            std::string::npos);
  EXPECT_EQ(reg.CounterValue("test.snapshot.counter"), 42);
}

// ---------------------------------------------------------------------------
// Activation flags, spans, op scopes
// ---------------------------------------------------------------------------

TEST(ActivationTest, TraceImpliesEnabled) {
  const bool was_enabled = Enabled();
  const bool was_tracing = TraceEnabled();
  SetTraceEnabled(true);
  EXPECT_TRUE(TraceEnabled());
  EXPECT_TRUE(Enabled());
  SetEnabled(false);  // turning timing off must also stop tracing
  EXPECT_FALSE(Enabled());
  EXPECT_FALSE(TraceEnabled());
  SetEnabled(was_enabled);
  SetTraceEnabled(was_tracing);
}

TEST(ActivationTest, TraceBufferEventsAcceptsOnlyAnIntegerInRange) {
  for (const char* good : {"1", "65536", "1048576"}) {
    util::Result<int64_t> parsed = ParseTraceBufferEvents(good);
    ASSERT_TRUE(parsed.ok()) << good;
    EXPECT_EQ(parsed.value(), std::stoll(good));
  }
  // "1000000000000" is the value whose ring reservation used to throw
  // std::bad_alloc; "12x" used to be taken as 12.
  for (const char* bad : {"", "abc", "0", "-5", "+5", " 12", "12 ", "12x",
                          "0x10", "1048577", "1000000000000",
                          "99999999999999999999"}) {
    util::Result<int64_t> parsed = ParseTraceBufferEvents(bad);
    ASSERT_FALSE(parsed.ok()) << "\"" << bad << "\"";
    EXPECT_EQ(parsed.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find(bad), std::string::npos)
        << parsed.status().message();
  }
}

TEST(SpanTest, SpansRecordOnlyWhenTracing) {
  SetTraceEnabled(false);
  const int64_t before = TraceEventCount();
  { SpanScope off("test.span.off", "test"); }
  EXPECT_EQ(TraceEventCount(), before);

  SetTraceEnabled(true);
  {
    SpanScope outer("test.span.outer", "test");
    SpanScope inner("test.span.inner", "test");
  }
  EXPECT_EQ(TraceEventCount(), before + 2);
  SetEnabled(false);
}

TEST(SpanTest, WriteChromeTraceRoundTrip) {
  SetTraceEnabled(true);
  { SpanScope span("test.span.roundtrip", "test"); }
  SetEnabled(false);
  const std::string path =
      ::testing::TempDir() + "/telemetry_test_trace.json";
  ASSERT_TRUE(WriteChromeTrace(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string trace = buf.str();
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"process_name\""), std::string::npos);
  EXPECT_NE(trace.find("\"test.span.roundtrip\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(OpScopeTest, MaintainsCurrentOpNameWhileDisabled) {
  ASSERT_FALSE(Enabled());
  EXPECT_EQ(CurrentOpName(), nullptr);
  {
    OpScope outer("MatMul", nullptr);
    EXPECT_STREQ(CurrentOpName(), "MatMul");
    {
      OpScope inner("Add", nullptr);
      EXPECT_STREQ(CurrentOpName(), "Add");
    }
    EXPECT_STREQ(CurrentOpName(), "MatMul");
  }
  EXPECT_EQ(CurrentOpName(), nullptr);
}

TEST(OpScopeTest, CountsPerOpPerTierWhenEnabled) {
  TelemetryRegistry& reg = TelemetryRegistry::Get();
  const int64_t before = reg.CounterValue("tensor.op.TestOp.test_tier");
  SetEnabled(true);
  {
    OpScope scope("TestOp", "test_tier");
    EXPECT_STREQ(CurrentOpName(), "TestOp");
  }
  { OpScope scope("TestOp", "test_tier"); }
  SetEnabled(false);
  EXPECT_EQ(reg.CounterValue("tensor.op.TestOp.test_tier"), before + 2);
}

}  // namespace
}  // namespace telemetry
}  // namespace odnet
