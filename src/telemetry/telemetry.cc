#include "src/telemetry/telemetry.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <unordered_map>
#include <utility>

#include "src/util/logging.h"

namespace odnet {
namespace telemetry {

namespace {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Its own static rather than an ActivationState field, so a log line
// (which may stamp the time) can be written while that state is built.
int64_t StartNs() {
  static const int64_t start = SteadyNowNs();
  return start;
}

// ---------------------------------------------------------------------------
// Activation: env flags read once, cached in atomics; exit hooks registered
// when the env asked for an export.
// ---------------------------------------------------------------------------

void FlushAtExit();

struct ActivationState {
  std::atomic<bool> enabled{false};
  std::atomic<bool> trace{false};
  std::string trace_file = "odnet_trace.json";
  std::string metrics_file;  // empty: no metrics export at exit
  size_t ring_capacity = kDefaultTraceBufferEvents;

  ActivationState() {
    StartNs();
    const char* trace_env = std::getenv("ODNET_TRACE");
    if (trace_env != nullptr && trace_env[0] != '\0' &&
        std::string(trace_env) != "0") {
      trace.store(true, std::memory_order_relaxed);
      enabled.store(true, std::memory_order_relaxed);
    }
    if (const char* f = std::getenv("ODNET_TRACE_FILE")) {
      if (f[0] != '\0') trace_file = f;
    }
    if (const char* m = std::getenv("ODNET_METRICS_JSON")) {
      if (m[0] != '\0') {
        metrics_file = m;
        enabled.store(true, std::memory_order_relaxed);
      }
    }
    const char* c = std::getenv("ODNET_TRACE_BUFFER_EVENTS");
    if (c != nullptr && c[0] != '\0') {
      util::Result<int64_t> parsed = ParseTraceBufferEvents(c);
      if (parsed.ok()) {
        ring_capacity = static_cast<size_t>(parsed.value());
      } else {
        ODNET_LOG_ERROR << "ODNET_TRACE_BUFFER_EVENTS: "
                        << parsed.status().message() << "; using "
                        << ring_capacity << " events";
      }
    }
    if (trace.load(std::memory_order_relaxed) || !metrics_file.empty()) {
      std::atexit(FlushAtExit);
    }
  }
};

ActivationState& State() {
  // Leaked on purpose: instruments and ring buffers may be touched from
  // worker threads until the very end of the process.
  static ActivationState* state = new ActivationState();
  return *state;
}

void FlushAtExit() {
  ActivationState& s = State();
  if (s.trace.load(std::memory_order_relaxed)) {
    if (WriteChromeTrace(s.trace_file)) {
      std::fprintf(stderr, "odnet telemetry: wrote trace to %s\n",
                   s.trace_file.c_str());
    }
  }
  if (!s.metrics_file.empty()) {
    if (TelemetryRegistry::Get().WriteMetricsJson(s.metrics_file)) {
      std::fprintf(stderr, "odnet telemetry: wrote metrics snapshot to %s\n",
                   s.metrics_file.c_str());
    }
  }
}

}  // namespace

int64_t NowNs() { return SteadyNowNs(); }
int64_t ProcessStartNs() { return StartNs(); }

util::Result<int64_t> ParseTraceBufferEvents(const std::string& text) {
  // Decimal digits only: no blanks, sign or suffix, and few enough that the
  // value cannot overflow before the range check.
  const bool digits =
      !text.empty() && text.size() <= 18 &&
      std::all_of(text.begin(), text.end(), [](char ch) {
        return std::isdigit(static_cast<unsigned char>(ch)) != 0;
      });
  const int64_t value = digits ? std::stoll(text) : 0;
  if (value < 1 || value > kMaxTraceBufferEvents) {
    return util::Status::InvalidArgument(
        "expected an integer in [1, " + std::to_string(kMaxTraceBufferEvents) +
        "], got \"" + text + "\"");
  }
  return value;
}

bool Enabled() { return State().enabled.load(std::memory_order_relaxed); }
bool TraceEnabled() { return State().trace.load(std::memory_order_relaxed); }

void SetEnabled(bool enabled) {
  State().enabled.store(enabled, std::memory_order_relaxed);
  if (!enabled) State().trace.store(false, std::memory_order_relaxed);
}

void SetTraceEnabled(bool enabled) {
  State().trace.store(enabled, std::memory_order_relaxed);
  if (enabled) State().enabled.store(true, std::memory_order_relaxed);
}

namespace internal {

int ThreadShardIndex() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

}  // namespace internal

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram() : shards_(new Shard[kShards]) {}

int Histogram::BucketIndex(int64_t v) {
  if (v < 0) v = 0;
  if (v < kSubBuckets) return static_cast<int>(v);
  const int p = 63 - __builtin_clzll(static_cast<uint64_t>(v));
  if (p > kMaxLog2) return kNumBuckets - 1;
  const int sub =
      static_cast<int>((v >> (p - kSubBucketBits)) & (kSubBuckets - 1));
  return ((p - kSubBucketBits + 1) << kSubBucketBits) + sub;
}

int64_t Histogram::BucketUpperBound(int bucket) {
  if (bucket < kSubBuckets) return bucket;
  const int block = bucket >> kSubBucketBits;       // >= 1
  const int p = block + kSubBucketBits - 1;         // floor(log2) of members
  const int sub = bucket & (kSubBuckets - 1);
  const int64_t width = int64_t{1} << (p - kSubBucketBits);
  return ((int64_t{kSubBuckets} + sub) << (p - kSubBucketBits)) + width - 1;
}

void Histogram::Record(int64_t v) {
  Shard& shard = shards_[internal::ThreadShardIndex() & (kShards - 1)];
  shard.buckets[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(v < 0 ? 0 : v, std::memory_order_relaxed);
  int64_t lo = shard.min.load(std::memory_order_relaxed);
  while (v < lo &&
         !shard.min.compare_exchange_weak(lo, v, std::memory_order_relaxed)) {
  }
  int64_t hi = shard.max.load(std::memory_order_relaxed);
  while (v > hi &&
         !shard.max.compare_exchange_weak(hi, v, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.buckets.assign(kNumBuckets, 0);
  int64_t min = std::numeric_limits<int64_t>::max();
  int64_t max = std::numeric_limits<int64_t>::min();
  for (int s = 0; s < kShards; ++s) {
    const Shard& shard = shards_[s];
    snap.count += shard.count.load(std::memory_order_relaxed);
    snap.sum += shard.sum.load(std::memory_order_relaxed);
    min = std::min(min, shard.min.load(std::memory_order_relaxed));
    max = std::max(max, shard.max.load(std::memory_order_relaxed));
    for (int b = 0; b < kNumBuckets; ++b) {
      snap.buckets[static_cast<size_t>(b)] +=
          shard.buckets[b].load(std::memory_order_relaxed);
    }
  }
  if (snap.count > 0) {
    snap.min = std::max<int64_t>(min, 0);
    snap.max = std::max<int64_t>(max, 0);
  }
  return snap;
}

int64_t HistogramSnapshot::Percentile(double p) const {
  if (count <= 0) return 0;
  p = std::min(std::max(p, 0.0), 1.0);
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(p * static_cast<double>(count))));
  int64_t seen = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    seen += buckets[b];
    if (seen >= rank) {
      const int64_t upper = Histogram::BucketUpperBound(static_cast<int>(b));
      return std::min(std::max(upper, min), max);
    }
  }
  return max;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TelemetryRegistry& TelemetryRegistry::Get() {
  static TelemetryRegistry* registry = new TelemetryRegistry();
  return *registry;
}

Counter* TelemetryRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* TelemetryRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* TelemetryRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

int64_t TelemetryRegistry::CounterValue(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->Value();
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

std::string TelemetryRegistry::SnapshotJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string json = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    json += first ? "\n" : ",\n";
    first = false;
    json += "    \"" + name + "\": " + std::to_string(counter->Value());
  }
  json += first ? "},\n" : "\n  },\n";
  json += "  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    json += first ? "\n" : ",\n";
    first = false;
    json += "    \"" + name + "\": {\"value\": " +
            std::to_string(gauge->Value()) +
            ", \"high_water\": " + std::to_string(gauge->HighWater()) + "}";
  }
  json += first ? "},\n" : "\n  },\n";
  json += "  \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : histograms_) {
    const HistogramSnapshot snap = hist->Snapshot();
    json += first ? "\n" : ",\n";
    first = false;
    json += "    \"" + name + "\": {\"count\": " + std::to_string(snap.count) +
            ", \"sum\": " + std::to_string(snap.sum) +
            ", \"min\": " + std::to_string(snap.min) +
            ", \"max\": " + std::to_string(snap.max) +
            ", \"mean\": " + JsonNumber(snap.Mean()) +
            ", \"p50\": " + std::to_string(snap.Percentile(0.50)) +
            ", \"p90\": " + std::to_string(snap.Percentile(0.90)) +
            ", \"p99\": " + std::to_string(snap.Percentile(0.99)) +
            ", \"p999\": " + std::to_string(snap.Percentile(0.999)) + "}";
  }
  json += first ? "}\n" : "\n  }\n";
  json += "}\n";
  return json;
}

bool TelemetryRegistry::WriteMetricsJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out.is_open()) return false;
  out << SnapshotJson();
  return out.good();
}

// ---------------------------------------------------------------------------
// Trace ring buffers
// ---------------------------------------------------------------------------

namespace {

struct TraceEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  int64_t start_ns = 0;  // relative to ProcessStartNs()
  int64_t dur_ns = 0;
};

class TraceBuffer {
 public:
  explicit TraceBuffer(int tid) : tid_(tid) {
    ring_.reserve(State().ring_capacity);
  }

  void Record(const TraceEvent& ev) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (ring_.size() < State().ring_capacity) {
      ring_.push_back(ev);
    } else {
      ring_[next_] = ev;
      next_ = (next_ + 1) % ring_.size();
    }
    ++total_;
  }

  /// Buffered events in recording order (oldest first).
  void Collect(std::vector<std::pair<int, TraceEvent>>* out) const {
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t i = 0; i < ring_.size(); ++i) {
      out->emplace_back(tid_, ring_[(next_ + i) % ring_.size()]);
    }
  }

  int64_t Size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<int64_t>(ring_.size());
  }

 private:
  mutable std::mutex mutex_;
  std::vector<TraceEvent> ring_;
  size_t next_ = 0;   // overwrite cursor once full == oldest element
  int64_t total_ = 0;
  int tid_;
};

struct TraceBufferList {
  std::mutex mutex;
  std::vector<TraceBuffer*> buffers;  // leaked: threads may outlive exit hooks
};

TraceBufferList& Buffers() {
  static TraceBufferList* list = new TraceBufferList();
  return *list;
}

TraceBuffer* ThreadTraceBuffer() {
  thread_local TraceBuffer* buffer = [] {
    TraceBufferList& list = Buffers();
    std::lock_guard<std::mutex> lock(list.mutex);
    auto* b = new TraceBuffer(static_cast<int>(list.buffers.size() + 1));
    list.buffers.push_back(b);
    return b;
  }();
  return buffer;
}

}  // namespace

void SpanScope::Finish() {
  TraceEvent ev;
  ev.name = name_;
  ev.category = category_;
  ev.start_ns = start_ns_ - ProcessStartNs();
  ev.dur_ns = NowNs() - start_ns_;
  ThreadTraceBuffer()->Record(ev);
}

namespace {

struct Lane {
  TraceBuffer* buffer = nullptr;
  int64_t last_end_ns = 0;  // relative; lane spans never start before this
};

struct LaneMap {
  std::mutex mutex;
  std::unordered_map<std::string, Lane> lanes;
};

LaneMap& Lanes() {
  static LaneMap* map = new LaneMap();
  return *map;
}

}  // namespace

void RecordLaneSpan(const char* lane, const char* name, const char* category,
                    int64_t start_ns, int64_t end_ns) {
  if (!TraceEnabled() || end_ns < start_ns) return;
  LaneMap& map = Lanes();
  std::lock_guard<std::mutex> lock(map.mutex);
  Lane& slot = map.lanes[lane];
  if (slot.buffer == nullptr) {
    TraceBufferList& list = Buffers();
    std::lock_guard<std::mutex> list_lock(list.mutex);
    slot.buffer = new TraceBuffer(static_cast<int>(list.buffers.size() + 1));
    list.buffers.push_back(slot.buffer);
  }
  TraceEvent ev;
  ev.name = name;
  ev.category = category;
  ev.start_ns = std::max(start_ns - ProcessStartNs(), slot.last_end_ns);
  ev.dur_ns = std::max<int64_t>(end_ns - ProcessStartNs() - ev.start_ns, 0);
  slot.last_end_ns = ev.start_ns + ev.dur_ns;
  slot.buffer->Record(ev);
}

int64_t TraceEventCount() {
  TraceBufferList& list = Buffers();
  std::lock_guard<std::mutex> lock(list.mutex);
  int64_t total = 0;
  for (const TraceBuffer* b : list.buffers) total += b->Size();
  return total;
}

bool WriteChromeTrace(const std::string& path) {
  std::vector<std::pair<int, TraceEvent>> events;
  {
    TraceBufferList& list = Buffers();
    std::lock_guard<std::mutex> lock(list.mutex);
    for (const TraceBuffer* b : list.buffers) b->Collect(&events);
  }
  std::ofstream out(path);
  if (!out.is_open()) return false;
  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  out << "{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": \"process_name\", "
         "\"args\": {\"name\": \"odnet\"}}";
  char buf[256];
  for (const auto& [tid, ev] : events) {
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f}",
                  ev.name, ev.category, tid,
                  static_cast<double>(ev.start_ns) / 1000.0,
                  static_cast<double>(ev.dur_ns) / 1000.0);
    out << buf;
  }
  out << "\n]}\n";
  return out.good();
}

// ---------------------------------------------------------------------------
// Tensor-op instrumentation
// ---------------------------------------------------------------------------

namespace {

thread_local const char* t_current_op = nullptr;

// Per-thread cache of (op name literal, tier name literal) -> counter, so
// the enabled hot path pays one hash probe instead of a registry lock.
Counter* OpCounter(const char* name, const char* tier) {
  struct PairHash {
    size_t operator()(const std::pair<const char*, const char*>& k) const {
      return std::hash<const void*>()(k.first) * 31 +
             std::hash<const void*>()(k.second);
    }
  };
  thread_local std::unordered_map<std::pair<const char*, const char*>,
                                  Counter*, PairHash>
      cache;
  auto [it, inserted] = cache.emplace(std::make_pair(name, tier), nullptr);
  if (inserted) {
    it->second = TelemetryRegistry::Get().GetCounter(
        std::string("tensor.op.") + name + "." + tier);
  }
  return it->second;
}

}  // namespace

const char* CurrentOpName() { return t_current_op; }

OpScope::OpScope(const char* name, const char* tier) : prev_(t_current_op) {
  t_current_op = name;
  if (tier == nullptr) return;  // telemetry disabled: nothing else to do
  OpCounter(name, tier)->Add(1);
  if (TraceEnabled()) {
    name_ = name;
    start_ns_ = NowNs();
  }
}

OpScope::~OpScope() {
  t_current_op = prev_;
  if (name_ == nullptr) return;
  TraceEvent ev;
  ev.name = name_;
  ev.category = "tensor";
  ev.start_ns = start_ns_ - ProcessStartNs();
  ev.dur_ns = NowNs() - start_ns_;
  ThreadTraceBuffer()->Record(ev);
}

}  // namespace telemetry
}  // namespace odnet
