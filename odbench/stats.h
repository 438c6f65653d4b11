// Sample statistics and arrival schedules for the ODNET benchmark.
// Header-only so odnet_bench and its tests share one definition.
#ifndef ODBENCH_STATS_H_
#define ODBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "src/util/rng.h"

namespace odbench {

/// Samples beyond a percentile that a reported percentile must have.
inline constexpr int64_t kMinTailSamples = 10;

/// A percentile read from a sample set. `ok` is false when fewer than
/// kMinTailSamples samples lie beyond it; `value` is then NaN.
struct Percentile {
  bool ok = false;
  double value = NAN;
  int64_t count = 0;   // samples in the set
  int64_t beyond = 0;  // samples ranked strictly after the percentile
};

/// An unordered collection of measurements (one per operation).
class Samples {
 public:
  void Add(double x) { values_.push_back(x); }
  int64_t count() const { return static_cast<int64_t>(values_.size()); }
  bool empty() const { return values_.empty(); }
  double Mean() const {
    return empty() ? NAN
                   : std::accumulate(values_.begin(), values_.end(), 0.0) /
                         static_cast<double>(count());
  }
  double Max() const {
    return empty() ? NAN : *std::max_element(values_.begin(), values_.end());
  }

  /// Median (mean of the two middle values for an even count); NaN when
  /// empty. A median needs no tail, so it is reported for any count.
  double Median() const {
    if (empty()) return NAN;
    std::vector<double> v = values_;
    const size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    const double hi = v[mid];
    if (v.size() % 2 == 1) return hi;
    const double lo = *std::max_element(v.begin(), v.begin() + mid);
    return 0.5 * (lo + hi);
  }

  /// Nearest-rank percentile q in (0, 100): the value of rank ceil(q/100*n).
  /// Refused (ok = false) unless at least kMinTailSamples samples rank
  /// after it, so p99 needs n >= 1000.
  Percentile At(double q) const {
    Percentile p;
    p.count = count();
    if (p.count == 0 || !(q > 0.0 && q < 100.0)) return p;
    const int64_t rank = std::max<int64_t>(
        1, static_cast<int64_t>(std::ceil(q / 100.0 * p.count - 1e-9)));
    p.beyond = p.count - rank;
    if (p.beyond < kMinTailSamples) return p;
    std::vector<double> v = values_;
    std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
    p.ok = true;
    p.value = v[static_cast<size_t>(rank - 1)];
    return p;
  }

  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

/// Open-loop send times: `count` Poisson arrivals at `rate_per_s`, as
/// nanosecond offsets from the start of the phase. A pure function of its
/// arguments.
inline std::vector<int64_t> PoissonArrivalsNs(uint64_t seed, double rate_per_s,
                                              int64_t count) {
  std::vector<int64_t> out;
  if (count <= 0 || !(rate_per_s > 0.0)) return out;
  out.reserve(static_cast<size_t>(count));
  odnet::util::Rng rng(odnet::util::Rng::StreamSeed(seed, 0xa11));
  double t_s = 0.0;
  for (int64_t i = 0; i < count; ++i) {
    // 1 - U is in (0, 1], so the log is finite.
    t_s += -std::log(1.0 - rng.UniformDouble()) / rate_per_s;
    out.push_back(static_cast<int64_t>(t_s * 1e9));
  }
  return out;
}

/// The user of each request: Zipf(s) over popularity ranks, with ranks
/// mapped to users through a seeded permutation that is redrawn every
/// `window` requests, so the hot users drift. Within a window the stream is
/// Zipf(s); across windows many users take a turn at being hot, so the mean
/// request is not set by the few users one permutation happens to make hot.
/// A pure function of its arguments.
inline std::vector<int64_t> ZipfUsers(uint64_t seed, int64_t num_users,
                                      double s, int64_t count,
                                      int64_t window) {
  std::vector<int64_t> out;
  if (num_users <= 0 || count <= 0 || window <= 0) return out;
  odnet::util::Rng rng(odnet::util::Rng::StreamSeed(seed, 0x2195));
  std::vector<int64_t> by_rank(static_cast<size_t>(num_users));
  std::iota(by_rank.begin(), by_rank.end(), int64_t{0});
  // Inverse CDF over the harmonic weights, built once.
  std::vector<double> cdf(static_cast<size_t>(num_users));
  double total = 0.0;
  for (int64_t i = 0; i < num_users; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[static_cast<size_t>(i)] = total;
  }
  out.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    if (i % window == 0) rng.Shuffle(&by_rank);
    const double u = rng.UniformDouble() * total;
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    const size_t rank = std::min<size_t>(
        static_cast<size_t>(it - cdf.begin()), cdf.size() - 1);
    out.push_back(by_rank[rank]);
  }
  return out;
}

}  // namespace odbench

#endif  // ODBENCH_STATS_H_
