// In-memory spans for the benchmark's traced run, written out at the end as
// a Chrome trace. Spans are recorded from the benchmark's own code around
// calls into the library's public functions; the library is not modified.
#ifndef ODBENCH_SPANS_H_
#define ODBENCH_SPANS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace odbench {

/// Monotonic clock shared by every timestamp the benchmark takes.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;   // index of the enclosing span, -1 for a root
  int64_t request = -1;  // request or step id shared by one operation's spans
  int lane = 0;          // trace row ("tid"); spans on one lane must nest
};

/// Thread-safe span store. Disabled recorders drop every span, so the
/// untraced runs pay one branch per call site.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }

  /// Records a finished span and returns its id (-1 when disabled).
  int64_t Add(std::string name, int64_t start_ns, int64_t end_ns,
              int64_t parent = -1, int64_t request = -1, int lane = 0) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{std::move(name), start_ns, std::max(start_ns, end_ns),
                          parent, request, lane});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  /// Records a span whose end is not known yet; Close() sets it. Lets a
  /// parent's id be handed to children recorded before the parent ends.
  int64_t Open(std::string name, int64_t start_ns, int64_t parent = -1,
               int64_t request = -1, int lane = 0) {
    return Add(std::move(name), start_ns, start_ns, parent, request, lane);
  }
  void Close(int64_t id, int64_t end_ns) {
    if (id < 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    Span& s = spans_[static_cast<size_t>(id)];
    s.end_ns = std::max(s.start_ns, end_ns);
  }

  int64_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int64_t>(spans_.size());
  }

  /// Self time of every span (duration minus the part of its interval that
  /// its children cover), summed per span name, in nanoseconds.
  std::map<std::string, double> SelfTimeByName() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0 && s.parent < static_cast<int64_t>(spans_.size())) {
        kids[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
      }
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::vector<std::pair<int64_t, int64_t>>& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      int64_t covered = 0;
      int64_t cursor = s.start_ns;
      for (auto [a, b] : iv) {
        a = std::max(a, cursor);
        b = std::min(b, s.end_ns);
        if (b > a) {
          covered += b - a;
          cursor = b;
        }
      }
      out[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered);
    }
    return out;
  }

  /// Writes the spans as Chrome trace "complete" events (ts/dur in us,
  /// relative to the earliest span). Returns false on an I/O error.
  bool WriteChromeTrace(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    int64_t origin = 0;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (i == 0 || spans_[i].start_ns < origin) origin = spans_[i].start_ns;
    }
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"odbench\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%zu,\"parent\":%lld,\"request\":%lld}}",
                   i == 0 ? "" : ",", s.name.c_str(), s.lane,
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.request));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Greedy lane assignment for overlapping operations (open-loop requests):
/// returns the lowest lane in [base, base + n) whose previous span has
/// ended, opening a new lane when all are busy. Spans of one lane then never
/// overlap, which keeps each trace row properly nested.
class LaneAllocator {
 public:
  explicit LaneAllocator(int base) : base_(base) {}
  int Take(int64_t start_ns, int64_t end_ns) {
    for (size_t i = 0; i < lane_end_.size(); ++i) {
      if (lane_end_[i] <= start_ns) {
        lane_end_[i] = end_ns;
        return base_ + static_cast<int>(i);
      }
    }
    lane_end_.push_back(end_ns);
    return base_ + static_cast<int>(lane_end_.size()) - 1;
  }

 private:
  int base_;
  std::vector<int64_t> lane_end_;
};

}  // namespace odbench

#endif  // ODBENCH_SPANS_H_
