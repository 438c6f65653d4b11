// train / train_ps: core::OdnetTrainer::Train() on a fresh ODNET, with the
// default single worker (train) or the synchronous parameter-server path
// (train_ps: 2 workers, 2 embedding shards).
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "odbench/harness.h"
#include "src/core/hsg_builder.h"
#include "src/core/odnet_model.h"
#include "src/core/trainer.h"
#include "src/data/encoding.h"
#include "src/nn/sharded_embedding.h"
#include "src/optim/optimizer.h"
#include "src/optim/sharded_adam.h"
#include "src/serving/evaluator.h"
#include "src/tensor/buffer_arena.h"
#include "src/tensor/compute_context.h"
#include "src/tensor/grad_delta.h"

namespace odbench {
namespace {

constexpr int kPoolWidth = 2;
constexpr int kMinRuns = 2;
constexpr int64_t kProbeBatches = 16;
constexpr int kLane = 1;

namespace serving = odnet::serving;

core::OdnetConfig TrainConfig(bool parameter_server) {
  core::OdnetConfig config = BenchConfig();
  if (parameter_server) {
    config.train_workers = 2;
    config.embedding_shards = 2;
    config.ps_mode = "sync";
  }
  return config;
}

/// Inputs of a training run; setup ends at model construction.
struct TrainStack {
  World world;
  core::OdnetConfig config;
  std::unique_ptr<odnet::graph::HeterogeneousSpatialGraph> hsg;
  std::unique_ptr<data::TemporalFeatureIndex> temporal;
  std::unique_ptr<core::OdnetModel> model;  // trained by the next timed run

  std::unique_ptr<core::OdnetModel> NewModel() const {
    return std::make_unique<core::OdnetModel>(
        hsg.get(), world.dataset.num_users, world.dataset.num_cities, config);
  }
};

std::unique_ptr<TrainStack> BuildTrain(uint64_t seed, bool parameter_server) {
  auto s = std::make_unique<TrainStack>();
  s->world = MakeWorld(seed);
  s->config = TrainConfig(parameter_server);
  s->hsg = core::BuildHsgFromDataset(s->world.dataset, s->world.sim->atlas());
  s->temporal = std::make_unique<data::TemporalFeatureIndex>(
      s->world.dataset, s->world.dataset.num_cities,
      TemporalHorizon(s->world.dataset));
  s->model = s->NewModel();
  return s;
}

/// One Train() call on `model`; returns its wall time in ns.
double TimeTrain(const TrainStack& s, core::OdnetModel* model,
                 core::TrainStats* stats) {
  core::OdnetTrainer trainer(model, &s.world.dataset, s.temporal.get());
  if (s.config.train_workers > 1) {
    trainer.set_replica_factory([&s] { return s.NewModel(); });
  }
  const int64_t t0 = NowNs();
  *stats = trainer.Train();
  return static_cast<double>(NowNs() - t0);
}

/// Scores with a model the trainer produced, the way
/// OdnetRecommender::Score does, so the evaluator can rank with it.
class TrainedScorer : public baselines::OdRecommender {
 public:
  TrainedScorer(core::OdnetModel* model, const TrainStack* s)
      : model_(model), s_(s) {}
  std::string name() const override { return "ODNET"; }
  odnet::util::Status Fit(const data::OdDataset&) override {
    return odnet::util::Status::OK();
  }
  std::vector<baselines::OdScore> Score(
      const data::OdDataset& dataset,
      const std::vector<data::Sample>& samples) override {
    data::BatchEncoder encoder(&dataset, s_->temporal.get(),
                               data::SequenceSpec{s_->config.t_long,
                                                  s_->config.t_short});
    std::vector<baselines::OdScore> out;
    out.reserve(samples.size());
    const size_t bs = static_cast<size_t>(s_->config.batch_size);
    for (size_t start = 0; start < samples.size(); start += bs) {
      const size_t end = std::min(start + bs, samples.size());
      data::OdBatch batch = encoder.EncodeJoint(samples, start, end);
      auto [po, pd] = model_->PredictPlanned(batch);
      for (size_t i = 0; i < po.size(); ++i) {
        out.push_back(baselines::OdScore{po[i], pd[i]});
      }
    }
    return out;
  }
  double theta() const override { return model_->theta(); }

 private:
  core::OdnetModel* model_;
  const TrainStack* s_;
};

/// The training samples in the trainer's first-epoch order.
std::vector<data::Sample> ShuffledSamples(const TrainStack& s) {
  std::vector<data::Sample> samples = s.world.dataset.train_samples;
  odnet::util::Rng rng(s.config.seed ^ 0x5eedf00d);
  rng.Shuffle(&samples);
  return samples;
}

/// Single-worker mirror of the trainer's step on an identically built
/// model, with each part timed. Odd steps record spans, so the traced over
/// untraced step time is the tracing overhead. Returns the forward pass's
/// time per row.
double MirrorTrainStep(const TrainStack& s, double step_ns,
                       SpanRecorder* spans, Report* report) {
  std::unique_ptr<core::OdnetModel> model = s.NewModel();
  odnet::optim::Adam adam(model->Parameters(), s.config.learning_rate);
  model->Train();
  data::BatchEncoder encoder(&s.world.dataset, s.temporal.get(),
                             data::SequenceSpec{s.config.t_long,
                                                s.config.t_short});
  const std::vector<data::Sample> samples = ShuffledSamples(s);
  const size_t bs = static_cast<size_t>(s.config.batch_size);
  double encode_ns = 0, forward_ns = 0, backward_ns = 0, optim_ns = 0;
  double step_total[2] = {0, 0};
  int64_t step_count[2] = {0, 0};
  int64_t steps = 0;
  SpanRecorder off(false);
  for (size_t start = 0; start < samples.size(); start += bs, ++steps) {
    const bool traced = steps % 2 == 1;
    SpanRecorder* rec = traced ? spans : &off;
    const size_t end = std::min(start + bs, samples.size());
    const int64_t t0 = NowNs();
    const int64_t step = rec->Open("train.step", t0, -1, steps, kLane);
    data::OdBatch batch = encoder.EncodeJoint(samples, start, end);
    const int64_t t1 = NowNs();
    int64_t t2, t3, t4, t5;
    {
      odnet::tensor::ArenaScope arena(
          odnet::tensor::BufferArena::ThreadLocal());
      odnet::tensor::Tensor loss = model->Loss(batch);
      t2 = NowNs();
      adam.ZeroGrad();
      t3 = NowNs();
      loss.Backward();
      t4 = NowNs();
      adam.ClipGradNorm(5.0);
      adam.Step();
      t5 = NowNs();
      if (!std::isfinite(loss.item())) {
        report->CheckFailed("mirror step loss is not finite");
      }
    }
    encode_ns += static_cast<double>(t1 - t0);
    forward_ns += static_cast<double>(t2 - t1);
    optim_ns += static_cast<double>((t3 - t2) + (t5 - t4));
    backward_ns += static_cast<double>(t4 - t3);
    rec->Add("train.encode", t0, t1, step, steps, kLane);
    rec->Add("train.forward", t1, t2, step, steps, kLane);
    rec->Add("train.optim", t2, t3, step, steps, kLane);
    rec->Add("train.backward", t3, t4, step, steps, kLane);
    rec->Add("train.optim", t4, t5, step, steps, kLane);
    rec->Close(step, t5);
    step_total[traced] += static_cast<double>(NowNs() - t0);
    ++step_count[traced];
  }
  const double n = static_cast<double>(steps);
  const double mirror_ns = encode_ns + forward_ns + backward_ns + optim_ns;
  Report::Detail("train.encode_us_per_step", encode_ns / 1e3 / n, "us");
  Report::Detail("train.forward_us_per_step", forward_ns / 1e3 / n, "us");
  Report::Detail("train.backward_us_per_step", backward_ns / 1e3 / n, "us");
  Report::Detail("train.optim_us_per_step", optim_ns / 1e3 / n, "us");
  Report::Detail("train.coverage", mirror_ns / n / step_ns, "ratio");
  const int64_t rows = static_cast<int64_t>(samples.size());
  ReportForwardSplit(ForwardSplit{forward_ns, rows, steps, mirror_ns, steps},
                     report);
  report->Metric("trace.overhead_ratio",
                 (step_total[1] / static_cast<double>(step_count[1])) /
                     (step_total[0] / static_cast<double>(step_count[0])),
                 "ratio");
  return forward_ns / static_cast<double>(rows);
}

/// Parameter-server mirror of one synchronous data-parallel step: per
/// 32-row slice, Loss + Backward (with its encode) and GradDelta
/// extraction; then the reduction onto the master gradient and the sharded
/// optimizer step, with plain Adam timed on the same gradients for
/// comparison. Odd steps record spans. Returns the forward pass's time per
/// row.
double MirrorPsStep(const TrainStack& s, double step_ns, SpanRecorder* spans,
                    Report* report) {
  std::unique_ptr<core::OdnetModel> model = s.NewModel();
  model->Train();
  std::vector<odnet::tensor::Tensor> params = model->Parameters();
  odnet::nn::ShardedEmbeddingStore::Options store_opts;
  store_opts.num_shards = static_cast<int>(s.config.embedding_shards);
  odnet::nn::ShardedEmbeddingStore store(params, store_opts);
  odnet::optim::ShardedAdam sharded(&store, s.config.learning_rate);
  odnet::optim::Adam plain(params, s.config.learning_rate);
  data::BatchEncoder encoder(&s.world.dataset, s.temporal.get(),
                             data::SequenceSpec{s.config.t_long,
                                                s.config.t_short});
  const std::vector<data::Sample> samples = ShuffledSamples(s);
  const int64_t bs = s.config.batch_size;
  const int num_slices = static_cast<int>(s.config.train_grad_slices);
  const int num_shards = store.num_shards();
  double slice_ns = 0, forward_ns = 0, extract_ns = 0, reduce_ns = 0,
         sharded_ns = 0, plain_ns = 0;
  int64_t slices = 0;
  double step_total[2] = {0, 0};
  int64_t step_count[2] = {0, 0};
  int64_t steps = 0;
  SpanRecorder off(false);
  const int64_t n = static_cast<int64_t>(samples.size());
  for (int64_t start = 0; start < n; start += bs, ++steps) {
    const bool traced = steps % 2 == 1;
    SpanRecorder* rec = traced ? spans : &off;
    const int64_t end = std::min(start + bs, n);
    const int64_t batch_count = end - start;
    const int64_t per = (batch_count + num_slices - 1) / num_slices;
    const int64_t s0 = NowNs();
    const int64_t step = rec->Open("ps.step", s0, -1, steps, kLane);
    std::vector<std::vector<odnet::tensor::GradDelta>> deltas;
    std::vector<int64_t> counts;
    for (int g = 0; g < num_slices; ++g) {
      const int64_t sb = start + g * per;
      const int64_t se = std::min(sb + per, end);
      if (sb >= se) continue;
      const int64_t t0 = NowNs();
      data::OdBatch batch = encoder.EncodeJoint(
          samples, static_cast<size_t>(sb), static_cast<size_t>(se));
      model->SeedSampleStreams(odnet::util::Rng::StreamSeed(
          s.config.seed, 0, static_cast<uint64_t>(steps),
          static_cast<uint64_t>(g)));
      {
        odnet::tensor::ArenaScope arena(
            odnet::tensor::BufferArena::ThreadLocal());
        const int64_t f0 = NowNs();
        odnet::tensor::Tensor loss = model->Loss(batch);
        forward_ns += static_cast<double>(NowNs() - f0);
        model->ZeroGrad();
        loss.Backward();
        if (!std::isfinite(loss.item())) {
          report->CheckFailed("mirror slice loss is not finite");
        }
      }
      const int64_t t1 = NowNs();
      std::vector<odnet::tensor::GradDelta> d;
      d.reserve(params.size());
      for (const odnet::tensor::Tensor& p : params) {
        d.push_back(odnet::tensor::ExtractGradDelta(p));
      }
      const int64_t t2 = NowNs();
      deltas.push_back(std::move(d));
      counts.push_back(se - sb);
      slice_ns += static_cast<double>(t1 - t0);
      extract_ns += static_cast<double>(t2 - t1);
      ++slices;
      rec->Add("ps.slice", t0, t1, step, steps, kLane);
      rec->Add("ps.delta_extract", t1, t2, step, steps, kLane);
    }
    // The trainer's deterministic reduction, shard-parallel.
    const int64_t r0 = NowNs();
    sharded.ZeroGrad();
    for (const auto& d : deltas) {
      for (size_t p = 0; p < params.size(); ++p) {
        odnet::tensor::MarkDeltaRows(params[p], d[p]);
      }
    }
    odnet::tensor::ComputeContext::Get().ParallelFor(
        num_shards, 1, [&](int64_t a, int64_t b) {
          for (int64_t sh = a; sh < b; ++sh) {
            for (size_t p = 0; p < params.size(); ++p) {
              for (size_t g = 0; g < deltas.size(); ++g) {
                const float scale = static_cast<float>(counts[g]) /
                                    static_cast<float>(batch_count);
                const int shard = static_cast<int>(sh);
                odnet::tensor::AccumulateGradDeltaRows(
                    params[p], deltas[g][p], scale,
                    [&store, p, shard](int64_t row) {
                      return store.Owns(p, shard, row);
                    });
              }
            }
          }
        });
    const int64_t r1 = NowNs();
    sharded.ClipGradNorm(5.0);
    sharded.Step();
    const int64_t r2 = NowNs();
    plain.Step();
    const int64_t r3 = NowNs();
    reduce_ns += static_cast<double>(r1 - r0);
    sharded_ns += static_cast<double>(r2 - r1);
    plain_ns += static_cast<double>(r3 - r2);
    rec->Add("ps.delta_reduce", r0, r1, step, steps, kLane);
    rec->Add("ps.sharded_step", r1, r2, step, steps, kLane);
    rec->Add("ps.plain_step", r2, r3, step, steps, kLane);
    rec->Close(step, r3);
    step_total[traced] += static_cast<double>(NowNs() - s0);
    ++step_count[traced];
  }
  const double nsteps = static_cast<double>(steps);
  const double slice_us = slice_ns / 1e3 / static_cast<double>(slices);
  Report::Detail("ps.slice_us", slice_us, "us");
  Report::Detail("ps.delta_extract_us_per_step", extract_ns / 1e3 / nsteps,
                 "us");
  Report::Detail("ps.delta_reduce_us_per_step", reduce_ns / 1e3 / nsteps,
                 "us");
  Report::Detail("ps.sharded_step_us", sharded_ns / 1e3 / nsteps, "us");
  Report::Detail("ps.plain_step_us", plain_ns / 1e3 / nsteps, "us");
  // Critical path of a step: the workers share the slices (and their
  // extraction), then the reduction and the sharded step run once.
  const double workers = static_cast<double>(
      std::min<int64_t>(s.config.train_workers, num_slices));
  const double path_ns = (slice_ns + extract_ns) / nsteps / workers +
                         (reduce_ns + sharded_ns) / nsteps;
  Report::Detail("ps.coverage", path_ns / step_ns, "ratio");
  // The split is over the serial mirror step, plain Adam excluded.
  ReportForwardSplit(ForwardSplit{forward_ns, n, slices,
                                  slice_ns + extract_ns + reduce_ns +
                                      sharded_ns,
                                  steps},
                     report);
  report->Metric("trace.overhead_ratio",
                 (step_total[1] / static_cast<double>(step_count[1])) /
                     (step_total[0] / static_cast<double>(step_count[0])),
                 "ratio");
  return forward_ns / static_cast<double>(n);
}

}  // namespace

void RunTrain(const Args& args, bool parameter_server, SpanRecorder* spans,
              Report* report) {
  odnet::tensor::ComputeContext::Get().SetNumThreads(kPoolWidth);
  const core::OdnetConfig config = TrainConfig(parameter_server);
  Report::Info("pool_width", std::to_string(kPoolWidth));
  Report::Info("train_workers", std::to_string(config.train_workers));
  Report::Info("embedding_shards", std::to_string(config.embedding_shards));

  Samples setup_s;
  const std::unique_ptr<TrainStack> stack = RepeatSetup(
      args, &setup_s, [&] { return BuildTrain(args.seed, parameter_server); });
  TrainStack& s = *stack;
  const double samples_per_run =
      static_cast<double>(s.world.dataset.train_samples.size()) *
      static_cast<double>(config.epochs);

  // Timed: whole Train() runs on fresh models until the time is up. Every
  // run starts from the same weights, so every run must end at the same
  // loss.
  double train_ns = 0;  // all runs
  int64_t runs = 0;
  Samples step_ns;
  core::TrainStats first;
  std::unique_ptr<core::OdnetModel> first_model;  // evaluated after the runs
  const int64_t stop = NowNs() + static_cast<int64_t>(
                                     (args.trace ? 0.25 : 1.0) * args.seconds *
                                     1e9);
  for (int run = 0; run < kMinRuns || NowNs() < stop; ++run) {
    if (run == 1) first_model = std::move(s.model);
    if (run > 0) s.model = s.NewModel();
    report->Attempt("train_run");
    core::TrainStats stats;
    const double ns = TimeTrain(s, s.model.get(), &stats);
    train_ns += ns;
    ++runs;
    step_ns.Add(ns / static_cast<double>(std::max<int64_t>(1, stats.steps)));
    if (run == 0) first = stats;
    if (!std::isfinite(stats.final_epoch_loss) ||
        !(stats.final_epoch_loss < stats.first_epoch_loss)) {
      report->Fail("train_run", "loss did not decrease");
      report->CheckFailed("training loss " +
                          std::to_string(stats.first_epoch_loss) + " -> " +
                          std::to_string(stats.final_epoch_loss));
    } else if (stats.final_epoch_loss != first.final_epoch_loss) {
      report->Fail("train_run", "loss differs between identical runs");
      report->CheckFailed("identical training runs ended at different losses");
    }
  }

  // Untimed: one evaluation pass of the first run's model, as the eval
  // workload makes them, reads the trained model's quality. Its RNG has
  // advanced only through that run, so the pass is a fixed point in the call
  // order.
  TrainedScorer scorer(first_model.get(), &s);
  report->Attempt("eval_pass");
  const odnet::metrics::OdMetrics quality = serving::EvaluateOdRecommender(
      &scorer, s.world.dataset, EvalPassOptions());
  const std::string why = CheckEvalPass(quality);
  if (!why.empty()) {
    report->Fail("eval_pass", why);
    report->CheckFailed(why);
  }
  Report::Info("auc_o", std::to_string(quality.auc_o));
  Report::Info("auc_d", std::to_string(quality.auc_d));

  if (!args.trace) {
    report->MetricMedian("setup_s", setup_s, "s");
    report->Metric("throughput_per_s",
                   samples_per_run * static_cast<double>(runs) /
                       (train_ns / 1e9),
                   "1/s");
    report->Metric("latency_p50_ms", step_ns.Median() / 1e6, "ms");
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    report->Metric("hr10", quality.hr10, "ratio");
    report->Metric("train_loss", first.final_epoch_loss, "nats");
    return;
  }

  ReportPlanCache(*first_model, report);
  const double forward_ns_per_row =
      parameter_server ? MirrorPsStep(s, step_ns.Median(), spans, report)
                       : MirrorTrainStep(s, step_ns.Median(), spans, report);
  // Layer probes on the first training batches (inference forward), in the
  // rows per forward call of the mirror: whole batches, or the parameter
  // server's micro-slices.
  const std::vector<data::Sample> samples = ShuffledSamples(s);
  std::vector<std::vector<data::Sample>> batches;
  const size_t bs = static_cast<size_t>(
      parameter_server ? (config.batch_size + config.train_grad_slices - 1) /
                             config.train_grad_slices
                       : config.batch_size);
  for (size_t b = 0; b < static_cast<size_t>(kProbeBatches) &&
                     b * bs < samples.size();
       ++b) {
    const size_t end = std::min((b + 1) * bs, samples.size());
    batches.emplace_back(samples.begin() + static_cast<std::ptrdiff_t>(b * bs),
                         samples.begin() + static_cast<std::ptrdiff_t>(end));
  }
  LayerProbe probe(s.world, config);
  const LayerTimes layers = probe.Replay(batches, spans);
  ReportLayerTimes(layers, forward_ns_per_row * static_cast<double>(layers.rows),
                   report);
}

}  // namespace odbench
