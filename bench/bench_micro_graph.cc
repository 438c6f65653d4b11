// Micro-benchmarks of the HSG substrate and ODNET serving path.
//
// `--plan-sweep` instead runs the capture/replay comparison: steady-state
// eager vs plan-replay timing for a deep small-op chain and the serving
// forward (PredictPlanned), at 1 thread and at the core count, plus the
// serving plan's memory-plan statistics, written machine-readably to
// BENCH_plan_replay.json together with the core count and CPU tier.
// ODNET_BENCH_SMOKE=1 shrinks iteration counts so CI can watch for gross
// regressions without paying full timing fidelity.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/baselines/odnet_recommender.h"
#include "src/core/hsg_builder.h"
#include "src/core/odnet_model.h"
#include "src/data/encoding.h"
#include "src/data/fliggy_simulator.h"
#include "src/data/temporal_features.h"
#include "src/serving/batch_scorer.h"
#include "src/serving/evaluator.h"
#include "src/tensor/buffer_arena.h"
#include "src/tensor/compute_context.h"
#include "src/tensor/cpu_capability.h"
#include "src/tensor/graph_plan.h"
#include "src/tensor/ops.h"
#include "src/util/check.h"
#include "src/util/string_util.h"
#include "src/util/table.h"
#include "src/util/timer.h"

namespace {

using namespace odnet;

const data::FliggySimulator& Simulator() {
  static data::FliggySimulator* simulator = [] {
    data::FliggyConfig config;
    config.num_users = 500;
    config.num_cities = 50;
    return new data::FliggySimulator(config);
  }();
  return *simulator;
}

const data::OdDataset& Dataset() {
  static data::OdDataset* dataset = [] {
    return new data::OdDataset(
        const_cast<data::FliggySimulator&>(Simulator()).Generate());
  }();
  return *dataset;
}

void BM_HsgBuild(benchmark::State& state) {
  const data::OdDataset& dataset = Dataset();
  for (auto _ : state) {
    auto hsg = core::BuildHsgFromDataset(dataset, Simulator().atlas());
    benchmark::DoNotOptimize(hsg->num_edges(graph::EdgeType::kDeparture));
  }
}
BENCHMARK(BM_HsgBuild);

void BM_HsgNeighborQuery(benchmark::State& state) {
  auto hsg = core::BuildHsgFromDataset(Dataset(), Simulator().atlas());
  util::Rng rng(3);
  for (auto _ : state) {
    int64_t user = static_cast<int64_t>(rng.NextUint64(
        static_cast<uint64_t>(hsg->num_users())));
    benchmark::DoNotOptimize(hsg->SampleUserNeighborCities(
        user, graph::Metapath::kDeparture, 5, &rng));
  }
}
BENCHMARK(BM_HsgNeighborQuery);

void BM_HsgcForward(benchmark::State& state) {
  auto hsg = core::BuildHsgFromDataset(Dataset(), Simulator().atlas());
  core::OdnetConfig config;
  config.exploration_depth = state.range(0);
  util::Rng rng(7);
  core::Hsgc hsgc(hsg.get(), graph::Metapath::kDeparture, config, &rng);
  tensor::NoGradGuard guard;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hsgc.Forward().city_levels.back().data());
  }
}
BENCHMARK(BM_HsgcForward)->Arg(1)->Arg(2)->Arg(3);

void BM_OdnetInference(benchmark::State& state) {
  static baselines::OdnetRecommender* method = [] {
    core::OdnetConfig config;
    config.epochs = 1;
    auto* m = new baselines::OdnetRecommender(
        "ODNET", &Simulator().atlas(), config);
    ODNET_CHECK(m->Fit(Dataset()).ok());
    return m;
  }();
  const data::OdDataset& dataset = Dataset();
  const int64_t user = dataset.test_users.front();
  const data::UserHistory& history =
      dataset.histories[static_cast<size_t>(user)];
  std::vector<data::Sample> rows;
  for (const data::OdPair& od : serving::BuildCandidates(
           history, dataset.num_cities, state.range(0), 1)) {
    data::Sample s;
    s.user = user;
    s.candidate = od;
    rows.push_back(s);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(method->Score(dataset, rows));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows.size()));
}
BENCHMARK(BM_OdnetInference)->Arg(10)->Arg(30);

// ------------------------------------------------------------ plan sweep --

struct PlanRow {
  std::string section;
  int threads = 0;
  double eager_us = 0.0;   // min-of-rounds mean (headline, noise-robust)
  double replay_us = 0.0;
  bench::LatencyHistogram eager_hist;   // per-iteration distributions
  bench::LatencyHistogram replay_hist;
  tensor::MemoryPlanStats memory;       // this row's captured plan
};

// The timed serving batch matches the chunked ranking path: ScoreChunked
// slices requests into serving::kScoreChunkSize-row chunks, so that is the
// shape steady-state plan replay serves.
constexpr size_t kServingBatch = serving::kScoreChunkSize;

// Steady-state serving cost: eager Predict vs captured-plan PredictPlanned
// on the same batch. The capture itself happens during warmup, so the timed
// region measures pure replay. Both paths are timed in alternating rounds
// and the per-iteration minimum is kept: min-of-rounds is robust against
// the scheduler noise of a small shared machine.
PlanRow TimeServing(int threads, int warmup, int iters, int rounds) {
  tensor::ComputeContext::Get().SetNumThreads(threads);
  const data::OdDataset& dataset = Dataset();
  core::OdnetConfig config;
  config.use_hsgc = false;  // ODNET-G, as in the committed sweep
  core::OdnetModel model(nullptr, dataset.num_users, dataset.num_cities,
                         config);
  data::TemporalFeatureIndex temporal(dataset, dataset.num_cities, 800);
  data::BatchEncoder encoder(&dataset, &temporal,
                             data::SequenceSpec{config.t_long,
                                                config.t_short});
  data::OdBatch batch =
      encoder.EncodeJoint(dataset.train_samples, 0, kServingBatch);

  PlanRow row;
  row.section = "serving";
  row.threads = threads;
  for (int i = 0; i < warmup; ++i) (void)model.Predict(batch);
  for (int i = 0; i < warmup; ++i) (void)model.PredictPlanned(batch);
  const std::function<void()> eager = [&] { (void)model.Predict(batch); };
  const std::function<void()> replay = [&] {
    (void)model.PredictPlanned(batch);
  };
  row.eager_us = bench::TimedRoundsUs(eager, iters, rounds, &row.eager_hist);
  row.replay_us =
      bench::TimedRoundsUs(replay, iters, rounds, &row.replay_hist);
  ODNET_CHECK(model.serving_plan_stats().replays >= iters);
  row.memory = model.serving_plan_stats().memory;
  return row;
}

// Raw capture/replay overhead on a deep chain of small ops — the regime
// plan replay targets: per-op graph construction (impl allocation, closure
// setup, shape propagation) is the dominant eager cost, and Replay()
// eliminates all of it while running the very same kernels. The eager side
// runs the optimized path (NoGrad + thread-local arena leases), so the
// measured gap is plan replay vs the best eager execution, not vs a straw
// man.
PlanRow TimeMicroGraph(int threads, int warmup, int iters, int rounds) {
  tensor::ComputeContext::Get().SetNumThreads(threads);
  constexpr int kLayers = 32;
  util::Rng rng(9119);
  tensor::Tensor x = tensor::Tensor::Randn({4, 8}, &rng);
  // Contractive multiplier keeps the 32-fold product bounded.
  tensor::Tensor a = tensor::Tensor::Randn({4, 8}, &rng, 0.3f);
  tensor::Tensor b = tensor::Tensor::Randn({4, 8}, &rng, 0.3f);
  auto program = [&x, &a, &b]() {
    tensor::Tensor h = x;
    for (int l = 0; l < kLayers; ++l) {
      h = tensor::Add(tensor::Mul(h, a), b);  // near-zero compute per op
    }
    return std::vector<tensor::Tensor>{tensor::Softmax(h)};
  };
  auto run_eager = [&program]() {
    tensor::NoGradGuard guard;
    tensor::ArenaScope arena(tensor::BufferArena::ThreadLocal());
    return program()[0].vec();  // copied out before the scope resets
  };
  std::vector<tensor::Tensor> captured;
  std::shared_ptr<tensor::GraphPlan> plan =
      tensor::GraphPlan::CaptureInference(program, &captured, {x});
  ODNET_CHECK(run_eager() == plan->Replay({x})[0].vec());

  PlanRow row;
  row.section = "micro_graph";
  row.threads = threads;
  for (int i = 0; i < warmup; ++i) {
    (void)run_eager();
    (void)plan->Replay({x});
  }
  const std::function<void()> eager = [&] { (void)run_eager(); };
  const std::function<void()> replay = [&] { (void)plan->Replay({x}); };
  row.eager_us = bench::TimedRoundsUs(eager, iters, rounds, &row.eager_hist);
  row.replay_us =
      bench::TimedRoundsUs(replay, iters, rounds, &row.replay_hist);
  row.memory = plan->memory_stats();
  return row;
}

int RunPlanSweep() {
  const bool smoke = std::getenv("ODNET_BENCH_SMOKE") != nullptr;
  const int warmup = smoke ? 2 : 10;
  const int iters = smoke ? 3 : 40;
  const int rounds = smoke ? 1 : 5;
  const unsigned cores = std::thread::hardware_concurrency();
  const char* cpu_tier =
      tensor::CpuCapabilityName(tensor::ActiveCpuCapability());

  std::printf(
      "=== Plan capture/replay sweep (%d iters x %d rounds, %u cores, %s%s) "
      "===\n",
      iters, rounds, cores, cpu_tier, smoke ? ", smoke" : "");
  std::vector<PlanRow> rows;
  for (int threads : bench::SweepThreadCounts()) {
    rows.push_back(TimeMicroGraph(threads, warmup, iters * 4, rounds));
    std::printf("finished micro_graph threads=%d\n", threads);
    std::fflush(stdout);
    rows.push_back(TimeServing(threads, warmup, iters, rounds));
    std::printf("finished serving threads=%d\n", threads);
    std::fflush(stdout);
  }  // rows are move-only (histograms); iterate by reference below

  // Memory-plan statistics of the serving plan (thread-independent).
  tensor::ComputeContext::Get().SetNumThreads(1);
  const data::OdDataset& dataset = Dataset();
  core::OdnetConfig config;
  config.use_hsgc = false;
  core::OdnetModel model(nullptr, dataset.num_users, dataset.num_cities,
                         config);
  data::TemporalFeatureIndex temporal(dataset, dataset.num_cities, 800);
  data::BatchEncoder encoder(&dataset, &temporal,
                             data::SequenceSpec{config.t_long,
                                                config.t_short});
  (void)model.PredictPlanned(
      encoder.EncodeJoint(dataset.train_samples, 0, kServingBatch));
  const tensor::MemoryPlanStats memory = model.serving_plan_stats().memory;

  util::AsciiTable table(
      {"Section", "Threads", "Eager us", "Replay us", "Speedup"});
  std::string json = "{\n  \"bench\": \"plan_replay\",\n  \"smoke\": ";
  json += smoke ? "true" : "false";
  json += ",\n  \"cores\": " + std::to_string(cores) +
          ",\n  \"cpu_capability\": \"" + cpu_tier +
          "\",\n  \"iters\": " + std::to_string(iters) +
          ",\n  \"methodology\": \"" +
          std::string(bench::kHistMethodologyNote) +
          "\",\n  \"results\": [\n";
  bool first = true;
  for (const PlanRow& row : rows) {
    const double speedup =
        row.replay_us > 0.0 ? row.eager_us / row.replay_us : 0.0;
    table.AddRow({row.section, std::to_string(row.threads),
                  util::FormatFixed(row.eager_us, 1),
                  util::FormatFixed(row.replay_us, 1),
                  util::FormatFixed(speedup, 2) + "x"});
    if (!first) json += ",\n";
    first = false;
    json += "    {\"section\": \"" + row.section +
            "\", \"threads\": " + std::to_string(row.threads) +
            ", \"eager_us\": " + util::FormatFixed(row.eager_us, 2) +
            ", \"replay_us\": " + util::FormatFixed(row.replay_us, 2) +
            ", \"speedup\": " + util::FormatFixed(speedup, 3) + ", " +
            row.eager_hist.JsonFields("eager_") + ", " +
            row.replay_hist.JsonFields("replay_") +
            ", \"plan\": {\"num_nodes\": " +
            std::to_string(row.memory.num_nodes) +
            ", \"peak_bytes\": " + std::to_string(row.memory.peak_bytes) +
            "}}";
  }
  json += "\n  ],\n  \"memory_plan\": {\"num_nodes\": " +
          std::to_string(memory.num_nodes) +
          ", \"num_values\": " + std::to_string(memory.num_values) +
          ", \"num_buffers\": " + std::to_string(memory.num_buffers) +
          ", \"requested_bytes\": " + std::to_string(memory.requested_bytes) +
          ", \"peak_bytes\": " + std::to_string(memory.peak_bytes) +
          ", \"reuse_ratio\": " + util::FormatFixed(memory.reuse_ratio, 3) +
          "}\n}\n";
  std::printf("\n");
  table.Print();
  std::printf(
      "\nmemory plan: %lld values -> %lld buffers, %lld -> %lld bytes "
      "(reuse %.0f%%)\n",
      static_cast<long long>(memory.num_values),
      static_cast<long long>(memory.num_buffers),
      static_cast<long long>(memory.requested_bytes),
      static_cast<long long>(memory.peak_bytes), memory.reuse_ratio * 100.0);
  std::ofstream out("BENCH_plan_replay.json");
  out << json;
  out.close();
  std::printf("wrote BENCH_plan_replay.json\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--plan-sweep") == 0) {
    return RunPlanSweep();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
