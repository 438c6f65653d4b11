#include "odbench/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "src/core/hsg_builder.h"
#include "src/core/hsgc.h"
#include "src/core/od_jlc.h"
#include "src/core/pec.h"
#include "src/data/encoding.h"
#include "src/tensor/buffer_arena.h"
#include "src/tensor/ops.h"
#include "src/tensor/tensor.h"

namespace odbench {

using odnet::tensor::Tensor;

// ---- Report ----------------------------------------------------------------

namespace {
double Min(const Samples& s) {
  return s.empty() ? NAN
                   : *std::min_element(s.values().begin(), s.values().end());
}
}  // namespace

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    CheckFailed("metric " + name + " is not finite");
    return;
  }
  metrics_.push_back(Entry{name, value, unit});
}

void Report::MetricMedian(const std::string& name, const Samples& samples,
                          const std::string& unit) {
  char range[96];
  std::snprintf(range, sizeof(range), "%lld (min %.6g, max %.6g)",
                static_cast<long long>(samples.count()), Min(samples),
                samples.Max());
  Info(name + ".samples", range);
  Metric(name, samples.Median(), unit);
}

void Report::Detail(const std::string& name, double value,
                    const std::string& unit) {
  std::printf("# detail %s: %.6g %s\n", name.c_str(), value, unit.c_str());
}

void Report::DetailPercentile(const std::string& name, const Samples& samples,
                              double q, const std::string& unit) {
  const Percentile p = samples.At(q);
  if (!p.ok) {
    std::printf("# detail %s: unsupported (%lld samples leave %lld beyond "
                "it, need %lld)\n",
                name.c_str(), static_cast<long long>(p.count),
                static_cast<long long>(p.beyond),
                static_cast<long long>(kMinTailSamples));
    return;
  }
  Detail(name, p.value, unit);
}

void Report::Attempt(const std::string& phase, int64_t n) {
  phases_[phase].first += n;
}

void Report::Fail(const std::string& phase, const std::string& why) {
  phases_[phase].second += 1;
  if (failures_printed_++ < 5) {
    std::printf("# failed [%s]: %s\n", phase.c_str(), why.c_str());
  }
}

void Report::CheckFailed(const std::string& why) {
  correct_ = false;
  std::printf("# check failed: %s\n", why.c_str());
}

void Report::Info(const std::string& key, const std::string& value) {
  std::printf("# %s: %s\n", key.c_str(), value.c_str());
}

void Report::PrintPhaseCounts() const {
  for (const auto& [phase, counts] : phases_) {
    std::printf("# phase %s: attempted %lld failed %lld\n", phase.c_str(),
                static_cast<long long>(counts.first),
                static_cast<long long>(counts.second));
  }
}

std::string Report::Json() const {
  int64_t attempted = 0;
  int64_t failed = 0;
  for (const auto& [phase, counts] : phases_) {
    attempted += counts.first;
    failed += counts.second;
  }
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics_[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics_[i].name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

// ---- Inputs ----------------------------------------------------------------

World MakeWorld(uint64_t seed) {
  data::FliggyConfig fc;
  fc.num_users = kNumUsers;
  fc.num_cities = kNumCities;
  fc.seed = seed;
  World w;
  w.sim = std::make_unique<data::FliggySimulator>(fc);
  w.dataset = w.sim->Generate();
  return w;
}

core::OdnetConfig BenchConfig() {
  core::OdnetConfig config;
  config.epochs = kEpochs;
  return config;
}

int64_t TemporalHorizon(const data::OdDataset& dataset) {
  // Same horizon OdnetRecommender::Fit gives its temporal index.
  return dataset.histories.empty()
             ? 730
             : std::max<int64_t>(730, dataset.histories[0].decision_day + 1);
}

odnet::serving::EvalOptions EvalPassOptions() {
  odnet::serving::EvalOptions opts;
  opts.num_candidates = 30;
  opts.max_test_users = 200;
  return opts;
}

std::string CheckEvalPass(const odnet::metrics::OdMetrics& m) {
  for (double v : {m.auc_o, m.auc_d, m.hr10}) {
    if (!std::isfinite(v) || v < 0.0 || v > 1.0) {
      return "eval metric outside [0, 1]: " + std::to_string(v);
    }
  }
  return "";
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int64_t PlanCaptures(const core::OdnetModel& model) {
  return model.serving_plan_stats().captures;
}

void ReportPlanCache(const core::OdnetModel& model, Report* report) {
  const auto& plan = model.serving_plan_stats();
  report->Metric("plan_cache.captures", static_cast<double>(plan.captures),
                 "count");
  report->Metric("plan_cache.replays", static_cast<double>(plan.replays),
                 "count");
  report->Metric("plan_cache.peak_bytes",
                 static_cast<double>(plan.memory.peak_bytes), "bytes");
}

void ReportForwardSplit(const ForwardSplit& f, Report* report) {
  if (f.rows == 0 || f.calls == 0 || f.ops == 0 || !(f.op_ns > 0)) {
    report->CheckFailed("no timed forward calls to split");
    return;
  }
  report->Metric("forward.us_per_row",
                 f.forward_ns / 1e3 / static_cast<double>(f.rows), "us");
  report->Metric("forward.rows_per_call",
                 static_cast<double>(f.rows) / static_cast<double>(f.calls),
                 "count");
  report->Metric("forward.share", f.forward_ns / f.op_ns, "ratio");
  report->Metric("outside_forward.ms_per_op",
                 (f.op_ns - f.forward_ns) / 1e6 / static_cast<double>(f.ops),
                 "ms");
}

// ---- TimedScorer -----------------------------------------------------------

std::vector<baselines::OdScore> TimedScorer::Score(
    const data::OdDataset& dataset, const std::vector<data::Sample>& samples) {
  const int64_t start = NowNs();
  std::vector<baselines::OdScore> scores = inner_->Score(dataset, samples);
  const int64_t end = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  calls_.push_back(ScoreCall{start, end, static_cast<int64_t>(samples.size()),
                             samples.empty() ? -1 : samples.front().user});
  if (keep_calls_ > 0) {
    --keep_calls_;
    rows_.push_back(samples);
    scores_.push_back(scores);
  }
  return scores;
}

void TimedScorer::KeepRows(int64_t max_calls) {
  std::lock_guard<std::mutex> lock(mu_);
  keep_calls_ = max_calls;
}

std::vector<ScoreCall> TimedScorer::TakeCalls() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(calls_, {});
}

std::vector<std::vector<data::Sample>> TimedScorer::TakeRows() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(rows_, {});
}

std::vector<std::vector<baselines::OdScore>> TimedScorer::TakeScores() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(scores_, {});
}

// ---- LayerProbe ------------------------------------------------------------

struct LayerProbe::Impl {
  Impl(const World& world, const core::OdnetConfig& cfg)
      : config(cfg),
        hsg(core::BuildHsgFromDataset(world.dataset, world.sim->atlas())),
        temporal(world.dataset, world.dataset.num_cities,
                 TemporalHorizon(world.dataset)),
        encoder(&world.dataset, &temporal,
                data::SequenceSpec{cfg.t_long, cfg.t_short}),
        rng(cfg.seed),
        hsgc_o(hsg.get(), odnet::graph::Metapath::kDeparture, cfg, &rng),
        hsgc_d(hsg.get(), odnet::graph::Metapath::kArrive, cfg, &rng),
        pec_o(cfg, &rng),
        pec_d(cfg, &rng),
        jlc(4 * cfg.embed_dim + data::TemporalFeatureIndex::kDim, cfg, &rng) {
    hsgc_o.Eval();
    hsgc_d.Eval();
    pec_o.Eval();
    pec_d.Eval();
    jlc.Eval();
  }

  /// One role view: city aggregation, user chain, gathers, PEC; returns q.
  Tensor Role(core::Hsgc* hsgc, const core::Pec& pec,
              const data::TaskBatch& tb, LayerTimes* t, SpanRecorder* spans,
              int64_t parent, int64_t req) {
    const int64_t b = tb.batch;
    int64_t t0 = NowNs();
    core::Hsgc::State state = hsgc->Forward();
    int64_t t1 = NowNs();
    Tensor e_user = hsgc->EmbedUsers(state, tb.user_ids);
    int64_t t2 = NowNs();
    t->hsgc_city_ns += static_cast<double>(t1 - t0);
    t->hsgc_user_ns += static_cast<double>(t2 - t1);
    ++t->city_calls;
    spans->Add("hsgc_city", t0, t1, parent, req, kLane);
    spans->Add("hsgc_user", t1, t2, parent, req, kLane);
    Tensor e_lbs = hsgc->EmbedCities(state, tb.current_city, {b});
    Tensor e_cand = hsgc->EmbedCities(state, tb.candidate, {b});
    Tensor e_long = hsgc->EmbedCities(state, tb.long_seq, {b, tb.t_long});
    Tensor e_short = hsgc->EmbedCities(state, tb.short_seq, {b, tb.t_short});
    t0 = NowNs();
    Tensor v_l = pec.Forward(e_long, tb.long_pad, e_short, tb.short_pad);
    t1 = NowNs();
    t->pec_ns += static_cast<double>(t1 - t0);
    spans->Add("pec", t0, t1, parent, req, kLane);
    Tensor x_st = Tensor::FromVector({b, data::TemporalFeatureIndex::kDim},
                                     tb.xst);
    return odnet::tensor::Concat({v_l, e_user, e_lbs, e_cand, x_st}, -1);
  }

  static constexpr int kLane = 3;
  core::OdnetConfig config;
  std::unique_ptr<odnet::graph::HeterogeneousSpatialGraph> hsg;
  data::TemporalFeatureIndex temporal;
  data::BatchEncoder encoder;
  odnet::util::Rng rng;
  core::Hsgc hsgc_o;
  core::Hsgc hsgc_d;
  core::Pec pec_o;
  core::Pec pec_d;
  core::OdJlc jlc;
};

LayerProbe::LayerProbe(const World& world, const core::OdnetConfig& config)
    : impl_(std::make_unique<Impl>(world, config)) {}

LayerProbe::~LayerProbe() = default;

LayerTimes LayerProbe::Replay(
    const std::vector<std::vector<data::Sample>>& calls, SpanRecorder* spans) {
  LayerTimes t;
  const size_t bs = static_cast<size_t>(impl_->config.batch_size);
  odnet::tensor::NoGradGuard no_grad;
  int64_t req = 0;
  for (const std::vector<data::Sample>& rows : calls) {
    for (size_t start = 0; start < rows.size(); start += bs, ++req) {
      const size_t end = std::min(start + bs, rows.size());
      odnet::tensor::ArenaScope arena(
          odnet::tensor::BufferArena::ThreadLocal());
      const int64_t batch_start = NowNs();
      const int64_t parent =
          spans->Open("probe.batch", batch_start, -1, req, Impl::kLane);
      int64_t t0 = NowNs();
      data::OdBatch batch = impl_->encoder.EncodeJoint(rows, start, end);
      int64_t t1 = NowNs();
      t.encode_ns += static_cast<double>(t1 - t0);
      spans->Add("encode", t0, t1, parent, req, Impl::kLane);
      Tensor q_o = impl_->Role(&impl_->hsgc_o, impl_->pec_o, batch.origin, &t,
                               spans, parent, req);
      Tensor q_d = impl_->Role(&impl_->hsgc_d, impl_->pec_d,
                               batch.destination, &t, spans, parent, req);
      t0 = NowNs();
      impl_->jlc.Forward(q_o, q_d);
      t1 = NowNs();
      t.jlc_ns += static_cast<double>(t1 - t0);
      spans->Add("jlc", t0, t1, parent, req, Impl::kLane);
      t.rows += static_cast<int64_t>(end - start);
      spans->Close(parent, t1);
    }
  }
  return t;
}

void ReportLayerTimes(const LayerTimes& t, double replayed_forward_ns,
                      Report* report) {
  if (t.rows == 0 || t.city_calls == 0 || !(replayed_forward_ns > 0)) {
    report->CheckFailed("layer probes replayed no rows");
    return;
  }
  const double rows = static_cast<double>(t.rows);
  report->Metric("encode.us_per_row", t.encode_ns / 1e3 / rows, "us");
  report->Metric("hsgc_city.us_per_call",
                 t.hsgc_city_ns / 1e3 / static_cast<double>(t.city_calls),
                 "us");
  report->Metric("hsgc_user.us_per_row", t.hsgc_user_ns / 1e3 / rows, "us");
  report->Metric("pec.us_per_row", t.pec_ns / 1e3 / rows, "us");
  report->Metric("jlc.us_per_row", t.jlc_ns / 1e3 / rows, "us");
  report->Metric("probe.coverage", t.Total() / replayed_forward_ns, "ratio");
}

}  // namespace odbench
