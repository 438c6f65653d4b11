// Shared pieces of the ODNET benchmark: run arguments, the result report,
// the generated inputs, the timing wrapper around the scorer, and the layer
// probes that time standalone copies of the model's components.
#ifndef ODBENCH_HARNESS_H_
#define ODBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "odbench/spans.h"
#include "odbench/stats.h"
#include "src/baselines/odnet_recommender.h"
#include "src/core/config.h"
#include "src/core/odnet_model.h"
#include "src/data/fliggy_simulator.h"
#include "src/data/temporal_features.h"
#include "src/graph/hsg.h"
#include "src/serving/evaluator.h"

namespace odbench {

namespace data = odnet::data;
namespace core = odnet::core;
namespace baselines = odnet::baselines;

/// Dataset shape of every workload (the paper's Table I has 200 O-cities and
/// 200 D-cities).
inline constexpr int64_t kNumUsers = 1200;
inline constexpr int64_t kNumCities = 200;
/// Epochs of the fit in serve/eval setup and of each timed train run.
inline constexpr int64_t kEpochs = 2;
/// Setups per untraced run: at least kSetupReps, and more while they have
/// taken less than kSetupMinS in all, so a short setup (train's ~0.3 s) is
/// a median over several; setup_s is the median of their times.
inline constexpr int kSetupReps = 3;
inline constexpr double kSetupMinS = 2.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string trace_file = "odbench_trace.json";
};

/// Metrics, operation counts and check results of one run; prints the
/// final JSON line.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Reports the median of `samples`, printing the sample count and range.
  void MetricMedian(const std::string& name, const Samples& samples,
                    const std::string& unit);
  /// Prints a workload-specific layer figure as a "# detail" context line;
  /// the result line carries only the metrics every workload reports.
  static void Detail(const std::string& name, double value,
                     const std::string& unit);
  /// Prints a percentile as a detail line, or that the sample does not
  /// support it (fewer than kMinTailSamples samples beyond it).
  static void DetailPercentile(const std::string& name,
                               const Samples& samples, double q,
                               const std::string& unit);
  /// Counts `n` attempted operations of `phase`.
  void Attempt(const std::string& phase, int64_t n = 1);
  /// Counts one failed operation of `phase`; the first few reasons print.
  void Fail(const std::string& phase, const std::string& why);
  /// A failed output check: the run's outputs are not correct.
  void CheckFailed(const std::string& why);
  /// Prints "# key: value" context lines.
  static void Info(const std::string& key, const std::string& value);
  void PrintPhaseCounts() const;
  std::string Json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::map<std::string, std::pair<int64_t, int64_t>> phases_;  // att, failed
  int64_t failures_printed_ = 0;
  bool correct_ = true;
};

/// Generated inputs: the simulator (atlas, routes) and its dataset.
struct World {
  std::unique_ptr<data::FliggySimulator> sim;
  data::OdDataset dataset;
};
World MakeWorld(uint64_t seed);

/// The workload's model config: the library default, with the benchmark's
/// fixed epoch count.
core::OdnetConfig BenchConfig();

/// Horizon the recommender uses for its temporal index.
int64_t TemporalHorizon(const data::OdDataset& dataset);

/// Options of every evaluation pass: 30 candidates per test user, and the
/// first 200 test users (every seed has more), so a pass ranks the same
/// number of lists whatever the seed.
odnet::serving::EvalOptions EvalPassOptions();
/// Empty when every metric of an evaluation pass is finite and in [0, 1];
/// otherwise the reason it is not.
std::string CheckEvalPass(const odnet::metrics::OdMetrics& m);

/// Peak resident set size of the process, in MB.
double PeakRssMb();

/// Builds a workload's setup as often as kSetupReps and kSetupMinS ask
/// (once in a traced run, which reports no setup_s), adds each build's time
/// in seconds to `setup_s`, and returns the last setup. The previous setup
/// is freed, untimed, before the next is built, so only one is alive at a
/// time.
template <typename Build>
auto RepeatSetup(const Args& args, Samples* setup_s, Build build) {
  decltype(build()) kept;
  double total_s = 0;
  for (int r = 0; args.trace ? r < 1 : r < kSetupReps || total_s < kSetupMinS;
       ++r) {
    kept = nullptr;
    const int64_t t0 = NowNs();
    kept = build();
    const double s = static_cast<double>(NowNs() - t0) / 1e9;
    setup_s->Add(s);
    total_s += s;
  }
  return kept;
}

/// Serving plans `model` has captured so far.
int64_t PlanCaptures(const core::OdnetModel& model);
/// Reports plan_cache.captures, plan_cache.replays and
/// plan_cache.peak_bytes of `model`.
void ReportPlanCache(const core::OdnetModel& model, Report* report);

/// The model forward passes inside a workload's operations (serve: open-loop
/// requests, eval: passes, train and train_ps: steps).
struct ForwardSplit {
  double forward_ns = 0;  // time in the model's forward pass
  int64_t rows = 0;       // rows it scored
  int64_t calls = 0;      // forward calls
  double op_ns = 0;       // time of the operations holding those calls
  int64_t ops = 0;
};
/// Reports forward.us_per_row, forward.rows_per_call, forward.share and
/// outside_forward.ms_per_op.
void ReportForwardSplit(const ForwardSplit& f, Report* report);

/// One Score call as seen by the wrapper.
struct ScoreCall {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t rows = 0;
  int64_t first_user = -1;
};

/// Delegating scorer: forwards every call to the wrapped recommender and
/// timestamps each Score call the router or the evaluator makes. With
/// keep_rows set it also keeps the rows and scores of the first calls, so
/// the probes can replay the batches the workload actually scored.
class TimedScorer : public baselines::OdRecommender {
 public:
  explicit TimedScorer(baselines::OdnetRecommender* inner) : inner_(inner) {}

  std::string name() const override { return inner_->name(); }
  odnet::util::Status Fit(const data::OdDataset& dataset) override {
    return inner_->Fit(dataset);
  }
  std::vector<baselines::OdScore> Score(
      const data::OdDataset& dataset,
      const std::vector<data::Sample>& samples) override;
  bool ThreadSafeScore() const override { return inner_->ThreadSafeScore(); }
  void InvalidateServingPlans() override { inner_->InvalidateServingPlans(); }
  double theta() const override { return inner_->theta(); }

  /// Keeps rows and scores of up to `max_calls` further Score calls.
  void KeepRows(int64_t max_calls);
  /// Returns and clears the calls recorded so far.
  std::vector<ScoreCall> TakeCalls();
  /// Returns and clears the kept rows and scores.
  std::vector<std::vector<data::Sample>> TakeRows();
  std::vector<std::vector<baselines::OdScore>> TakeScores();

 private:
  baselines::OdnetRecommender* inner_;
  std::mutex mu_;
  std::vector<ScoreCall> calls_;
  int64_t keep_calls_ = 0;
  std::vector<std::vector<data::Sample>> rows_;
  std::vector<std::vector<baselines::OdScore>> scores_;
};

/// Time spent in each probed layer over a set of replayed batches.
struct LayerTimes {
  int64_t rows = 0;
  int64_t city_calls = 0;  // Hsgc::Forward calls (one per role per batch)
  double encode_ns = 0;
  double hsgc_city_ns = 0;
  double hsgc_user_ns = 0;
  double pec_ns = 0;
  double jlc_ns = 0;
  double Total() const {
    return encode_ns + hsgc_city_ns + hsgc_user_ns + pec_ns + jlc_ns;
  }
};

/// Standalone core::Hsgc / core::Pec / core::OdJlc instances built from the
/// workload's config and an HSG built from the same dataset. Replays rows
/// in the model's own batch grid (config.batch_size rows per forward) and
/// times each component's public Forward.
class LayerProbe {
 public:
  LayerProbe(const World& world, const core::OdnetConfig& config);
  ~LayerProbe();
  LayerTimes Replay(const std::vector<std::vector<data::Sample>>& calls,
                    SpanRecorder* spans);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Reports the per-row / per-call layer metrics from probe times, and
/// probe.coverage: their total over `replayed_forward_ns`, the time the
/// workload's own forward pass took on the rows the probes replayed.
void ReportLayerTimes(const LayerTimes& t, double replayed_forward_ns,
                      Report* report);

/// Workload entry points. Each fills `report`: the untraced runs report
/// end-to-end metrics, the traced runs per-layer metrics and their spans.
void RunServe(const Args& args, SpanRecorder* spans, Report* report);
void RunEval(const Args& args, SpanRecorder* spans, Report* report);
void RunTrain(const Args& args, bool parameter_server, SpanRecorder* spans,
              Report* report);

}  // namespace odbench

#endif  // ODBENCH_HARNESS_H_
