#ifndef ODNET_TELEMETRY_TELEMETRY_H_
#define ODNET_TELEMETRY_TELEMETRY_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace odnet {
namespace telemetry {

// Runtime telemetry (DESIGN.md §12): process-wide counters/gauges,
// log-bucketed latency histograms, and scoped trace spans exportable as
// Chrome trace-event JSON (chrome://tracing / Perfetto).
//
// Overhead policy:
//  - Counters and gauges are always live: one relaxed atomic add on a
//    thread-sharded cell, cheap enough for per-op-dispatch call sites.
//  - Anything that needs a clock read (histogram latency samples, queue-wait
//    stamps) is gated on Enabled() — a single relaxed load of a cached flag.
//  - Span recording into the per-thread ring buffers is additionally gated
//    on TraceEnabled().
//
// Activation (read once, at first telemetry use):
//  - ODNET_TRACE=1           enable span recording (implies Enabled()) and
//                            write the trace at process exit.
//  - ODNET_TRACE_FILE=path   trace output path (default odnet_trace.json).
//  - ODNET_METRICS_JSON=path enable timed instrumentation and write the
//                            registry snapshot to `path` at process exit.
//  - ODNET_TRACE_BUFFER_EVENTS=n  spans kept per thread (the most recent
//                            n); see ParseTraceBufferEvents.
// Tests/benches can flip the flags programmatically instead.

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

/// NowNs() at first telemetry use; trace timestamps are relative to this.
int64_t ProcessStartNs();

/// Spans each thread's trace ring keeps by default, and at most (a ring
/// reserves its whole capacity, 32 bytes an event, when its thread first
/// records a span).
inline constexpr int64_t kDefaultTraceBufferEvents = 65536;
inline constexpr int64_t kMaxTraceBufferEvents = int64_t{1} << 20;

/// Parses an ODNET_TRACE_BUFFER_EVENTS value: decimal digits only, in
/// [1, kMaxTraceBufferEvents]. Anything else (blanks, a sign, a suffix, 0,
/// too large) is InvalidArgument; the variable then logs an error and the
/// default stays.
util::Result<int64_t> ParseTraceBufferEvents(const std::string& text);

// ---------------------------------------------------------------------------
// Activation flags
// ---------------------------------------------------------------------------

/// Timed instrumentation active (histogram samples, queue-wait stamps).
bool Enabled();
/// Span recording active. TraceEnabled() implies Enabled().
bool TraceEnabled();

/// Programmatic switches (tests, benches, load generators).
void SetEnabled(bool enabled);
void SetTraceEnabled(bool enabled);

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

namespace internal {
/// Small dense per-thread index used to spread instrument updates across
/// shards; stable for the thread's lifetime.
int ThreadShardIndex();
}  // namespace internal

/// \brief Monotonic event counter, sharded across cache-line-padded atomic
/// cells so concurrent increments from pool workers do not contend.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(int64_t delta = 1) {
    shards_[internal::ThreadShardIndex() & (kShards - 1)].v.fetch_add(
        delta, std::memory_order_relaxed);
  }

  int64_t Value() const {
    int64_t total = 0;
    for (const Shard& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  static constexpr int kShards = 16;
  struct alignas(64) Shard {
    std::atomic<int64_t> v{0};
  };
  Shard shards_[kShards];
};

/// \brief Last-value gauge with a monotone high-water mark.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) {
    value_.store(v, std::memory_order_relaxed);
    RaiseHighWater(v);
  }
  void Add(int64_t delta) {
    RaiseHighWater(value_.fetch_add(delta, std::memory_order_relaxed) + delta);
  }

  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  int64_t HighWater() const {
    return high_water_.load(std::memory_order_relaxed);
  }

 private:
  void RaiseHighWater(int64_t v) {
    int64_t hw = high_water_.load(std::memory_order_relaxed);
    while (v > hw && !high_water_.compare_exchange_weak(
                         hw, v, std::memory_order_relaxed)) {
    }
  }
  std::atomic<int64_t> value_{0};
  std::atomic<int64_t> high_water_{0};
};

/// Merged view of a Histogram at one instant. Percentile() walks the merged
/// bucket counts to the exact rank; the returned value is the bucket's upper
/// bound clamped into [min, max], so the only imprecision is the bucket's
/// ≤ 2^-kSubBucketBits (6.25%) relative width — values below 2^kSubBucketBits
/// are single-value buckets and therefore exact.
struct HistogramSnapshot {
  int64_t count = 0;
  int64_t sum = 0;
  int64_t min = 0;  // 0 when empty
  int64_t max = 0;  // 0 when empty
  std::vector<int64_t> buckets;

  double Mean() const {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
  }
  /// Value at quantile p in [0, 1]; 0 when empty.
  int64_t Percentile(double p) const;
};

/// \brief Lock-free log-bucketed histogram for latency samples (any
/// non-negative integer unit; instrument names say which — `*_ns` here).
///
/// Buckets: 2^kSubBucketBits sub-buckets per power of two ("log-linear"),
/// exact below 2^kSubBucketBits, ~6.25% relative width above, saturating at
/// 2^(kMaxLog2+1). Record() is one relaxed fetch_add on the calling
/// thread's shard; Snapshot() merges the shards (a racing Record may or may
/// not be included — snapshots are eventually consistent, never torn).
class Histogram {
 public:
  static constexpr int kSubBucketBits = 4;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;  // 16
  static constexpr int kMaxLog2 = 42;  // ~1.2 hours in nanoseconds
  static constexpr int kNumBuckets = (kMaxLog2 - kSubBucketBits + 2)
                                     << kSubBucketBits;  // 640

  Histogram();
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Bucket index of `v` (negatives clamp to 0, huge values saturate).
  static int BucketIndex(int64_t v);
  /// Largest value mapping to `bucket` (inclusive).
  static int64_t BucketUpperBound(int bucket);

  void Record(int64_t v);
  HistogramSnapshot Snapshot() const;

 private:
  static constexpr int kShards = 8;
  struct alignas(64) Shard {
    std::atomic<int64_t> count{0};
    std::atomic<int64_t> sum{0};
    std::atomic<int64_t> min{std::numeric_limits<int64_t>::max()};
    std::atomic<int64_t> max{std::numeric_limits<int64_t>::min()};
    std::atomic<int64_t> buckets[kNumBuckets];
  };
  std::unique_ptr<Shard[]> shards_;
};

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// \brief Process-wide registry of named instruments.
///
/// Get*() returns a stable pointer (instruments are never destroyed);
/// repeated calls with the same name return the same instrument, so hot call
/// sites cache the pointer in a function-local static. SnapshotJson()
/// serializes every instrument; WriteMetricsJson() is the ODNET_METRICS_JSON
/// exit hook's body, callable any time.
class TelemetryRegistry {
 public:
  static TelemetryRegistry& Get();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Current value of a counter, 0 when it does not exist (no creation).
  int64_t CounterValue(const std::string& name) const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}} with
  /// deterministic (sorted) key order.
  std::string SnapshotJson() const;
  bool WriteMetricsJson(const std::string& path) const;

 private:
  TelemetryRegistry() = default;
  mutable std::mutex mutex_;
  // std::map: deterministic snapshot order.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// ---------------------------------------------------------------------------
// Trace spans
// ---------------------------------------------------------------------------

/// \brief RAII span: records a Chrome "complete" event (ph "X") covering the
/// scope's lifetime into the calling thread's ring buffer when tracing is
/// enabled. `name` and `category` must be string literals (or otherwise
/// outlive the process) — the ring stores the pointers.
class SpanScope {
 public:
  explicit SpanScope(const char* name, const char* category = "odnet") {
    if (!TraceEnabled()) return;
    name_ = name;
    category_ = category;
    start_ns_ = NowNs();
  }
  ~SpanScope() {
    if (name_ != nullptr) Finish();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  void Finish();
  const char* name_ = nullptr;
  const char* category_ = nullptr;
  int64_t start_ns_ = 0;
};

/// Writes every thread's recorded spans as Chrome trace-event JSON
/// ({"traceEvents": [...]}). Ring buffers keep the most recent events per
/// thread (default 65536, ODNET_TRACE_BUFFER_EVENTS overrides); older spans
/// are dropped oldest-first, which preserves nesting. Returns false when the
/// file cannot be opened. Safe to call while other threads keep recording.
bool WriteChromeTrace(const std::string& path);

/// Events currently buffered across all threads (test hook).
int64_t TraceEventCount();

/// \brief Records a complete span with explicit timestamps onto a named
/// virtual trace lane — a synthetic trace thread for intervals that cross
/// real threads (e.g. the serving router's queue waits: the start is stamped
/// on the submitting thread, the end on the dispatching worker, so neither
/// thread's own timeline can host the span without breaking nesting).
///
/// Spans within one lane are clamped to start no earlier than the previous
/// span's end, keeping the per-tid proper-nesting invariant the trace
/// validator enforces; lane spans are the timeline view, exact durations
/// belong in histograms. `lane`, `name`, and `category` must outlive the
/// process (string literals). No-op unless TraceEnabled().
void RecordLaneSpan(const char* lane, const char* name, const char* category,
                    int64_t start_ns, int64_t end_ns);

// ---------------------------------------------------------------------------
// Tensor-op instrumentation hooks
// ---------------------------------------------------------------------------

/// Name of the tensor op the calling thread is currently dispatching
/// (innermost OpScope), or nullptr. Plan capture reads this to name replay
/// nodes; maintained even when telemetry is disabled.
const char* CurrentOpName();

/// \brief Per-op dispatch scope: maintains CurrentOpName(), bumps the
/// `tensor.op.<name>.<tier>` counter, and records a span when tracing.
///
/// `tier` carries the active CpuCapability name; callers pass nullptr when
/// telemetry is disabled so the disabled path stays two thread-local stores
/// plus one flag load (see the ODNET_OP_SCOPE macro in ops.cc).
class OpScope {
 public:
  OpScope(const char* name, const char* tier);
  ~OpScope();
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  const char* prev_ = nullptr;
  const char* name_ = nullptr;   // non-null only when span timing is on
  int64_t start_ns_ = 0;
};

}  // namespace telemetry
}  // namespace odnet

#endif  // ODNET_TELEMETRY_TELEMETRY_H_
