#ifndef ODNET_BENCH_BENCH_UTIL_H_
#define ODNET_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/telemetry/telemetry.h"
#include "src/baselines/gbdt.h"
#include "src/baselines/most_pop.h"
#include "src/baselines/odnet_recommender.h"
#include "src/baselines/recommender.h"
#include "src/baselines/sequential_nets.h"
#include "src/baselines/stl_variants.h"
#include "src/baselines/stp_udgat.h"
#include "src/core/hsg_builder.h"
#include "src/data/fliggy_simulator.h"
#include "src/util/string_util.h"

namespace odnet {
namespace bench {

/// Workload scale shared by the table benches. The default is sized for a
/// single core; ODNET_SCALE=large doubles it (and paper-scale runs are a
/// matter of raising these numbers).
struct BenchScale {
  int64_t num_users = 1200;
  int64_t num_cities = 50;
  int64_t epochs = 5;
  uint64_t seed = 42;

  static BenchScale FromEnv() {
    BenchScale s;
    const char* scale = std::getenv("ODNET_SCALE");
    if (scale != nullptr && std::string(scale) == "large") {
      s.num_users = 4000;
      s.num_cities = 100;
    } else if (scale != nullptr && std::string(scale) == "small") {
      s.num_users = 400;
      s.num_cities = 40;
      s.epochs = 2;
    }
    return s;
  }
};

/// Thread counts the micro sweeps (--kernel-sweep, --plan-sweep) time: 1
/// and the machine's core count, or just 1 on a single core, so no row
/// oversubscribes the cores it runs on.
inline std::vector<int> SweepThreadCounts() {
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  if (cores <= 1) return {1};
  return {1, cores};
}

/// The full Table III method roster, constructed fitted-config-consistent.
/// `atlas` and `locations` must outlive the returned recommenders.
inline std::vector<std::unique_ptr<baselines::OdRecommender>>
MakeAllMethods(const data::CityAtlas& atlas,
               const std::vector<graph::CityLocation>& locations,
               int64_t epochs) {
  baselines::SingleTaskConfig stc;
  stc.epochs = epochs;
  core::OdnetConfig oc;
  oc.epochs = epochs;
  core::OdnetConfig oc_ng = oc;
  oc_ng.use_hsgc = false;
  // Without the HSGC's smoothing the MMoE head is unstable at lr 0.01 on
  // this substrate (winner-take-all gate collapse across seeds); 3e-3
  // keeps ODNET-G trainable. See EXPERIMENTS.md.
  oc_ng.learning_rate = 0.003;

  std::vector<std::unique_ptr<baselines::OdRecommender>> methods;
  methods.push_back(std::make_unique<baselines::MostPop>());
  methods.push_back(
      std::make_unique<baselines::GbdtRecommender>(baselines::GbdtConfig{}));
  methods.push_back(std::make_unique<baselines::LstmRecommender>(stc));
  methods.push_back(std::make_unique<baselines::StgnRecommender>(stc));
  methods.push_back(std::make_unique<baselines::LstpmRecommender>(stc));
  methods.push_back(std::make_unique<baselines::StodPpaRecommender>(stc));
  methods.push_back(
      std::make_unique<baselines::StpUdgatRecommender>(stc, locations));
  methods.push_back(
      std::make_unique<baselines::StlRecommender>(stc, false, locations));
  methods.push_back(
      std::make_unique<baselines::StlRecommender>(stc, true, locations));
  methods.push_back(std::make_unique<baselines::OdnetRecommender>(
      "ODNET-G", &atlas, oc_ng));
  methods.push_back(
      std::make_unique<baselines::OdnetRecommender>("ODNET", &atlas, oc));
  return methods;
}

/// Formats a metric to the paper's 4-decimal style.
inline std::string M4(double v) { return util::FormatFixed(v, 4); }
inline std::string M3(double v) { return util::FormatFixed(v, 3); }

/// \brief Per-iteration latency sampler for the BENCH_*.json emitters,
/// built on the telemetry histogram (DESIGN.md §12) so every bench gets
/// p50/p99/p999 with the same bucket math the runtime instruments use.
/// Movable (benches return it inside row structs).
class LatencyHistogram {
 public:
  LatencyHistogram() : hist_(std::make_unique<telemetry::Histogram>()) {}

  void RecordNs(int64_t ns) { hist_->Record(ns); }

  /// Times one call of `fn`, records it, returns elapsed nanoseconds.
  template <typename Fn>
  int64_t Sample(Fn&& fn) {
    const int64_t t0 = telemetry::NowNs();
    fn();
    const int64_t dt = telemetry::NowNs() - t0;
    hist_->Record(dt);
    return dt;
  }

  int64_t Count() const { return hist_->Snapshot().count; }
  double PercentileUs(double p) const {
    return static_cast<double>(hist_->Snapshot().Percentile(p)) / 1000.0;
  }
  double MeanUs() const { return hist_->Snapshot().Mean() / 1000.0; }

  /// JSON object fields (no braces) for splicing into a bench row:
  /// `"<prefix>p50_us": x, "<prefix>p99_us": y, "<prefix>p999_us": z`.
  std::string JsonFields(const std::string& prefix = "") const {
    const telemetry::HistogramSnapshot s = hist_->Snapshot();
    auto us = [](int64_t ns) {
      return util::FormatFixed(static_cast<double>(ns) / 1000.0, 2);
    };
    return "\"" + prefix + "p50_us\": " + us(s.Percentile(0.50)) + ", \"" +
           prefix + "p99_us\": " + us(s.Percentile(0.99)) + ", \"" + prefix +
           "p999_us\": " + us(s.Percentile(0.999));
  }

 private:
  std::unique_ptr<telemetry::Histogram> hist_;
};

/// Runs `step` `iters` times, recording every iteration into `hist`;
/// returns the round's mean microseconds per iteration. The benches keep
/// their min-of-rounds headline columns (robust against scheduler noise)
/// and add the histogram's percentiles alongside.
inline double TimedRoundUs(const std::function<void()>& step, int iters,
                           LatencyHistogram* hist) {
  int64_t total_ns = 0;
  for (int i = 0; i < iters; ++i) total_ns += hist->Sample(step);
  return static_cast<double>(total_ns) / 1000.0 /
         static_cast<double>(iters > 0 ? iters : 1);
}

/// Min-of-rounds over `rounds` rounds of `iters` iterations each. All
/// rounds compete for the min-of-rounds headline, but with rounds > 1 the
/// first round's samples are excluded from `hist`: round 0 still carries
/// one-time costs the warmup loop didn't reach (first-touch page faults,
/// arena growth to the workload's high-water mark, lazy plan capture, cold
/// i-cache), which otherwise dominate p99 without describing steady state
/// — e.g. a 2228us eager "p99" over a 56us mean that is really one cold
/// round 0 iteration. Callers emitting percentiles into BENCH_*.json
/// should note this exclusion in the JSON (see `kHistMethodologyNote`).
inline double TimedRoundsUs(const std::function<void()>& step, int iters,
                            int rounds, LatencyHistogram* hist) {
  double best_us = 1e300;
  for (int r = 0; r < rounds; ++r) {
    LatencyHistogram scratch;
    LatencyHistogram* sink = (r == 0 && rounds > 1) ? &scratch : hist;
    best_us = std::min(best_us, TimedRoundUs(step, iters, sink));
  }
  return best_us;
}

/// Methodology string for BENCH_*.json emitters whose percentile fields
/// come from TimedRoundsUs.
inline const char* kHistMethodologyNote =
    "headline *_us is the min-of-rounds per-iteration mean; *_p50/p99/p999_us"
    " are per-iteration percentiles over rounds 1..N-1 (round 0 excluded as"
    " warmup-adjacent one-time cost)";

/// Min-of-rounds timing plus the per-iteration latency distribution.
struct LoopTiming {
  double best_us = 1e300;
  LatencyHistogram hist;
};

inline LoopTiming TimeLoop(const std::function<void()>& step, int warmup,
                           int iters, int rounds) {
  LoopTiming t;
  for (int i = 0; i < warmup; ++i) step();
  t.best_us = TimedRoundsUs(step, iters, rounds, &t.hist);
  return t;
}

}  // namespace bench
}  // namespace odnet

#endif  // ODNET_BENCH_BENCH_UTIL_H_
