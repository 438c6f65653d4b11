// Regenerates Table V: training time and per-request inference time of
// every method on the synthetic Fliggy workload.
//
// Absolute times reflect this machine, not the paper's 5-PS/50-worker PAI
// cluster; the reproduced shape is relative: RNN-based methods train
// slowest (sequential state updates), attention/graph methods faster, and
// the single-task variants pay two inferences per request while the
// multi-task ODNET/ODNET-G pay one.

// `--train-step-sweep` instead runs the embedding-vocab scaling sweep:
// per-train-step time for vocab in {1k, 10k, 100k} under the forced-dense
// (pre-sparse) optimizer path and the default dense-equivalent sparse path,
// each cell the median of 5 fresh repetitions, written machine-readably to
// BENCH_train_step.json. ODNET_BENCH_SMOKE=1 shrinks the step and
// repetition counts so CI can watch for gross regressions without paying
// full timing fidelity.
//
// `--ps-sweep` adds a `ps_sweep` section to the same JSON: the synchronous
// data-parallel parameter-server step (sliced gradient reduction
// partitioned by the embedding store's row ownership + plain Adam) at
// vocab 1M over a train_workers x embedding_shards grid, each cell the
// median of 5 fresh repetitions. The JSON records the core count and CPU
// tier because the observed speedup is meaningless without them — on a
// 1-core container the multi-worker rows measure pure orchestration
// overhead, not parallelism.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/nn/sharded_embedding.h"
#include "src/optim/optimizer.h"
#include "src/serving/evaluator.h"
#include "src/tensor/buffer_arena.h"
#include "src/tensor/compute_context.h"
#include "src/tensor/cpu_capability.h"
#include "src/tensor/grad_delta.h"
#include "src/tensor/ops.h"
#include "src/util/rng.h"
#include "src/util/table.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"

namespace {

// One synthetic train step over an embedding-table-dominated model:
// lookup(batch 128) -> 16x32 MLP -> squared-logit loss, then the full
// ZeroGrad / Backward / ClipGradNorm / Adam::Step sequence the real
// trainer runs. Returns the mean microseconds per step; per-step samples
// land in `hist` for the percentile columns.
double TimeTrainSteps(int64_t vocab, bool force_dense, int warmup, int steps,
                      odnet::bench::LatencyHistogram* hist) {
  using namespace odnet;
  const int64_t dim = 16;
  const int64_t hidden = 32;
  const int64_t batch = 128;
  util::Rng rng(1234);
  tensor::Tensor table =
      tensor::Tensor::Randn({vocab, dim}, &rng, 0.05f, /*requires_grad=*/true);
  tensor::Tensor w1 = tensor::Tensor::Randn({dim, hidden}, &rng, 0.05f, true);
  tensor::Tensor w2 = tensor::Tensor::Randn({hidden, 1}, &rng, 0.05f, true);
  optim::Adam opt({table, w1, w2}, 0.01);
  opt.set_force_dense(force_dense);
  util::Rng idx_rng(777);  // identical index stream for every mode
  auto step = [&]() {
    std::vector<int64_t> indices(static_cast<size_t>(batch));
    for (int64_t& ix : indices) ix = idx_rng.UniformInt(0, vocab - 1);
    opt.ZeroGrad();
    tensor::Tensor emb = tensor::EmbeddingLookup(table, indices, {batch});
    tensor::Tensor h = tensor::Relu(tensor::MatMul(emb, w1));
    tensor::Tensor logits = tensor::MatMul(h, w2);
    tensor::Tensor loss = tensor::Mean(tensor::Mul(logits, logits));
    loss.Backward();
    opt.ClipGradNorm(5.0);
    opt.Step();
  };
  for (int i = 0; i < warmup; ++i) step();
  return odnet::bench::TimedRoundUs(step, steps, hist);
}

// One synchronous data-parallel parameter-server step over the same
// synthetic model at parameter-server scale (vocab-row embedding table,
// batch 512 split into 4 fixed micro-slices). Mirrors the trainer's sync
// path: a gang started once per call (this thread plus workers - 1 pool
// workers) replays the slices on storage-aliased replicas and extracts
// sparse grad_rows deltas, and the reduction accumulates them in slice
// order under the store's row-ownership partition, split over the shards
// as the fan-out rule allows (the trainer's ComputeContext::ParallelFor),
// before one Adam::Step. The slice grid is fixed, so every (workers,
// shards) cell does identical arithmetic — the timing differences are pure
// coordination cost (gang hand-off, delta routing, shard reduction).
double TimePsTrainSteps(int64_t vocab, int workers, int num_shards,
                        int warmup, int steps,
                        odnet::bench::LatencyHistogram* hist) {
  using namespace odnet;
  const int64_t dim = 16;
  const int64_t hidden = 32;
  const int64_t batch = 512;
  const int kSlices = 4;  // fixed micro-slice grid, as in the trainer
  util::Rng rng(1234);
  tensor::Tensor table =
      tensor::Tensor::Randn({vocab, dim}, &rng, 0.05f, /*requires_grad=*/true);
  tensor::Tensor w1 = tensor::Tensor::Randn({dim, hidden}, &rng, 0.05f, true);
  tensor::Tensor w2 = tensor::Tensor::Randn({hidden, 1}, &rng, 0.05f, true);
  std::vector<tensor::Tensor> params{table, w1, w2};
  nn::ShardedEmbeddingStore::Options opts;
  opts.num_shards = num_shards;
  const nn::ShardedEmbeddingStore store(params, opts);
  optim::Adam opt(params, 0.01);

  const int gang = std::min(workers, kSlices);
  std::vector<std::vector<tensor::Tensor>> replicas(
      static_cast<size_t>(gang));
  for (auto& rep : replicas) {
    for (const tensor::Tensor& p : params) {
      tensor::Tensor mirror =
          tensor::Tensor::Zeros(p.shape(), /*requires_grad=*/true);
      mirror.AliasStorageOf(p);  // shared weights, private grads
      rep.push_back(mirror);
    }
  }

  std::unique_ptr<util::ThreadPool> gang_pool =
      gang > 1 ? std::make_unique<util::ThreadPool>(gang - 1) : nullptr;
  std::atomic<int64_t> step_counter{0};
  auto step = [&]() {
    const int64_t step_id = step_counter.fetch_add(1);
    const int64_t per = batch / kSlices;
    std::vector<std::vector<tensor::GradDelta>> slice_deltas(kSlices);
    std::atomic<int> next_slice{0};
    auto worker_body = [&](int w) {
      util::ThreadPool::WorkerMark mark;  // nested kernels stay serial
      auto& rep = replicas[static_cast<size_t>(w)];
      for (;;) {
        const int g = next_slice.fetch_add(1);
        if (g >= kSlices) break;
        // Index stream keyed by (step, slice) — never by worker — so the
        // sampled rows (and thus the reduced gradient) are identical for
        // every cell of the sweep grid.
        util::Rng idx_rng(util::Rng::StreamSeed(777, step_id, g));
        std::vector<int64_t> indices(static_cast<size_t>(per));
        for (int64_t& ix : indices) ix = idx_rng.UniformInt(0, vocab - 1);
        for (tensor::Tensor& p : rep) p.ZeroGrad();
        tensor::ArenaScope arena(tensor::BufferArena::ThreadLocal());
        tensor::Tensor emb = tensor::EmbeddingLookup(rep[0], indices, {per});
        tensor::Tensor h = tensor::Relu(tensor::MatMul(emb, rep[1]));
        tensor::Tensor logits = tensor::MatMul(h, rep[2]);
        tensor::Tensor loss = tensor::Mean(tensor::Mul(logits, logits));
        loss.Backward();
        std::vector<tensor::GradDelta> deltas;
        deltas.reserve(rep.size());
        for (const tensor::Tensor& p : rep) {
          deltas.push_back(tensor::ExtractGradDelta(p));
        }
        slice_deltas[static_cast<size_t>(g)] = std::move(deltas);
      }
    };
    if (gang_pool != nullptr) {
      gang_pool->RunGang(gang, worker_body);
    } else {
      worker_body(0);
    }
    // Deterministic reduction: metadata serially, values shard-parallel in
    // ascending slice order, scale = slice/batch share.
    opt.ZeroGrad();
    int64_t delta_values = 0;
    for (int g = 0; g < kSlices; ++g) {
      for (size_t p = 0; p < params.size(); ++p) {
        tensor::MarkDeltaRows(params[p], slice_deltas[g][p]);
        delta_values += static_cast<int64_t>(slice_deltas[g][p].values.size());
      }
    }
    const float scale = 1.0f / static_cast<float>(kSlices);
    tensor::ComputeContext::Get().ParallelFor(
        num_shards, (delta_values + num_shards - 1) / num_shards,
        [&](int64_t s0, int64_t s1) {
          for (int64_t s = s0; s < s1; ++s) {
            const int shard = static_cast<int>(s);
            for (size_t p = 0; p < params.size(); ++p) {
              for (int g = 0; g < kSlices; ++g) {
                tensor::AccumulateGradDeltaRows(
                    params[p], slice_deltas[g][p], scale,
                    [&store, p, shard](int64_t row) {
                      return store.Owns(p, shard, row);
                    });
              }
            }
          }
        });
    opt.ClipGradNorm(5.0);
    opt.Step();
  };
  for (int i = 0; i < warmup; ++i) step();
  return odnet::bench::TimedRoundUs(step, steps, hist);
}

// Returns the `ps_sweep` JSON object (and prints the human table). Each
// cell is the median over `reps` repetitions, each a fresh table, replicas
// and optimizer running warmup + `steps` steps; the min and max land next
// to it. A longer run is no substitute: the dense-equivalent decay work
// grows with the rows ever touched, so more steps measure a different
// regime. Smoke mode shrinks vocab, steps and repetitions so CI regenerates
// the section in seconds; the committed full-fidelity file uses vocab 1M.
std::string RunPsSweep(bool smoke) {
  using namespace odnet;
  const int warmup = smoke ? 1 : 3;
  const int steps = smoke ? 3 : 30;
  const int reps = smoke ? 1 : 5;
  const int64_t vocab = smoke ? 100000 : 1000000;
  const int worker_grid[] = {1, 2, 4};
  const int shard_grid[] = {1, 4};

  std::printf(
      "\n=== PS train-step sweep (vocab %lld, batch 512, dim 16, median of "
      "%d x %d steps%s) ===\n",
      static_cast<long long>(vocab), reps, steps, smoke ? ", smoke" : "");
  util::AsciiTable table(
      {"Workers", "Shards", "us/step", "min-max", "Speedup vs 1 worker"});
  std::string json = "{\n    \"vocab\": " + std::to_string(vocab) +
                     ",\n    \"batch\": 512,\n    \"dim\": 16,\n    "
                     "\"slices\": 4,\n    \"steps\": " +
                     std::to_string(steps) + ",\n    \"repetitions\": " +
                     std::to_string(reps) + ",\n    \"results\": [\n";
  struct Cell {
    int workers;
    int shards;
    std::vector<double> rep_us;
    bench::LatencyHistogram hist;
  };
  std::vector<Cell> cells;
  for (int shards : shard_grid) {
    for (int workers : worker_grid) cells.push_back({workers, shards, {}, {}});
  }
  // Repetitions run round-robin over the cells, so a slow stretch of a
  // shared machine lands on every cell instead of on one.
  for (int r = 0; r < reps; ++r) {
    for (Cell& c : cells) {
      c.rep_us.push_back(TimePsTrainSteps(vocab, c.workers, c.shards, warmup,
                                          steps, &c.hist));
    }
    std::printf("finished repetition %d of %d\n", r + 1, reps);
    std::fflush(stdout);
  }
  double one_worker_us = 0.0;
  for (size_t i = 0; i < cells.size(); ++i) {
    Cell& c = cells[i];
    std::sort(c.rep_us.begin(), c.rep_us.end());
    const double us = c.rep_us[c.rep_us.size() / 2];
    if (c.workers == 1) one_worker_us = us;
    const double speedup = us > 0.0 ? one_worker_us / us : 0.0;
    table.AddRow({std::to_string(c.workers), std::to_string(c.shards),
                  util::FormatFixed(us, 1),
                  util::FormatFixed(c.rep_us.front(), 0) + "-" +
                      util::FormatFixed(c.rep_us.back(), 0),
                  util::FormatFixed(speedup, 2) + "x"});
    if (i > 0) json += ",\n";
    json += "      {\"workers\": " + std::to_string(c.workers) +
            ", \"shards\": " + std::to_string(c.shards) +
            ", \"us_per_step\": " + util::FormatFixed(us, 2) +
            ", \"us_per_step_min\": " + util::FormatFixed(c.rep_us.front(), 2) +
            ", \"us_per_step_max\": " + util::FormatFixed(c.rep_us.back(), 2) +
            ", \"speedup_vs_one_worker\": " + util::FormatFixed(speedup, 3) +
            ", " + c.hist.JsonFields() + "}";
  }
  json += "\n    ]\n  }";
  std::printf("\n");
  table.Print();
  return json;
}

int RunTrainStepSweep(bool with_ps_sweep) {
  using namespace odnet;
  const bool smoke = std::getenv("ODNET_BENCH_SMOKE") != nullptr;
  const int warmup = smoke ? 1 : 5;
  const int steps = smoke ? 3 : 100;
  const int reps = smoke ? 1 : 5;
  const int64_t vocabs[] = {1000, 10000, 100000};
  // Mode 0 forces the dense (pre-sparse) optimizer path; mode 1 is the
  // default row-sparse path, bitwise identical to it.
  const char* mode_names[] = {"dense", "dense-equivalent"};
  const unsigned cores = std::thread::hardware_concurrency();
  const char* cpu_tier =
      tensor::CpuCapabilityName(tensor::ActiveCpuCapability());

  std::printf(
      "=== Train-step embedding sweep (batch 128, dim 16, median of %d x %d "
      "steps, %u cores, %s%s) ===\n",
      reps, steps, cores, cpu_tier, smoke ? ", smoke" : "");
  util::AsciiTable table(
      {"Vocab", "Mode", "us/step", "min-max", "Speedup vs dense"});
  std::string json = "{\n  \"bench\": \"train_step\",\n  \"smoke\": ";
  json += smoke ? "true" : "false";
  json += ",\n  \"cores\": " + std::to_string(cores) +
          ",\n  \"cpu_capability\": \"" + cpu_tier + "\"";
  json += ",\n  \"batch\": 128,\n  \"dim\": 16,\n  \"steps\": " +
          std::to_string(steps) + ",\n  \"repetitions\": " +
          std::to_string(reps) + ",\n  \"results\": [\n";
  struct Cell {
    int64_t vocab;
    int mode;
    std::vector<double> rep_us;
    bench::LatencyHistogram hist;
  };
  std::vector<Cell> cells;
  for (int64_t vocab : vocabs) {
    for (int mode = 0; mode < 2; ++mode) cells.push_back({vocab, mode, {}, {}});
  }
  // Each repetition is a fresh table and optimizer; repetitions run
  // round-robin over the cells, as in RunPsSweep.
  for (int r = 0; r < reps; ++r) {
    for (Cell& c : cells) {
      c.rep_us.push_back(TimeTrainSteps(c.vocab, /*force_dense=*/c.mode == 0,
                                        warmup, steps, &c.hist));
    }
    std::printf("finished repetition %d of %d\n", r + 1, reps);
    std::fflush(stdout);
  }
  double dense_us = 0.0;
  for (size_t i = 0; i < cells.size(); ++i) {
    Cell& c = cells[i];
    std::sort(c.rep_us.begin(), c.rep_us.end());
    const double us = c.rep_us[c.rep_us.size() / 2];
    if (c.mode == 0) dense_us = us;
    const double speedup = us > 0.0 ? dense_us / us : 0.0;
    table.AddRow({std::to_string(c.vocab), mode_names[c.mode],
                  util::FormatFixed(us, 1),
                  util::FormatFixed(c.rep_us.front(), 0) + "-" +
                      util::FormatFixed(c.rep_us.back(), 0),
                  util::FormatFixed(speedup, 2) + "x"});
    if (i > 0) json += ",\n";
    json += "    {\"vocab\": " + std::to_string(c.vocab) + ", \"mode\": \"" +
            mode_names[c.mode] +
            "\", \"us_per_step\": " + util::FormatFixed(us, 2) +
            ", \"us_per_step_min\": " + util::FormatFixed(c.rep_us.front(), 2) +
            ", \"us_per_step_max\": " + util::FormatFixed(c.rep_us.back(), 2) +
            ", \"speedup_vs_dense\": " + util::FormatFixed(speedup, 3) +
            ", " + c.hist.JsonFields() + "}";
  }
  json += "\n  ]";
  std::printf("\n");
  table.Print();
  if (with_ps_sweep) {
    json += ",\n  \"ps_sweep\": " + RunPsSweep(smoke);
  }
  json += "\n}\n";
  std::ofstream out("BENCH_train_step.json");
  out << json;
  out.close();
  std::printf("\nwrote BENCH_train_step.json\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool train_sweep = false;
  bool ps_sweep = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--train-step-sweep") == 0) train_sweep = true;
    if (std::strcmp(argv[i], "--ps-sweep") == 0) ps_sweep = true;
  }
  if (train_sweep || ps_sweep) {
    // --ps-sweep alone still regenerates the vocab sweep: both sections
    // live in one BENCH_train_step.json, so a partial rewrite would drop
    // the other section from the committed file.
    return RunTrainStepSweep(ps_sweep);
  }
  using namespace odnet;
  bench::BenchScale scale = bench::BenchScale::FromEnv();
  // Timing does not need the full workload; keep runs brisk.
  data::FliggyConfig config;
  config.num_users = scale.num_users / 2;
  config.num_cities = scale.num_cities;
  config.seed = scale.seed;
  data::FliggySimulator simulator(config);
  data::OdDataset dataset = simulator.Generate();

  std::printf(
      "=== Table V analogue: training and inference efficiency ===\n"
      "(%zu train samples, %lld epochs; inference = one 30-candidate "
      "ranking request, mean of %d)\n\n",
      dataset.train_samples.size(), static_cast<long long>(scale.epochs),
      20);

  std::vector<graph::CityLocation> locations =
      core::AtlasLocations(simulator.atlas());
  auto methods =
      bench::MakeAllMethods(simulator.atlas(), locations, scale.epochs);

  util::AsciiTable table(
      {"Methods", "Training Time (s)", "Inferring Time (ms)"});
  for (auto& method : methods) {
    if (method->name() == "MostPop") continue;  // no training, as in paper
    util::Stopwatch watch;
    if (!method->Fit(dataset).ok()) continue;
    double train_seconds = watch.ElapsedSeconds();

    // One serving request: score a 30-candidate list for one test user.
    const int64_t user = dataset.test_users.empty()
                             ? 0
                             : dataset.test_users.front();
    const data::UserHistory& history =
        dataset.histories[static_cast<size_t>(user)];
    std::vector<data::OdPair> candidates = serving::BuildCandidates(
        history, dataset.num_cities, 30, scale.seed);
    std::vector<data::Sample> rows;
    for (const data::OdPair& od : candidates) {
      data::Sample s;
      s.user = user;
      s.candidate = od;
      s.day = history.decision_day;
      rows.push_back(s);
    }
    // One untimed request first: it pays the one-off serving set-up (plan
    // capture, HSGC inference tables), which a request in steady state
    // does not.
    (void)method->Score(dataset, rows);
    constexpr int kRepeats = 20;
    watch.Restart();
    for (int r = 0; r < kRepeats; ++r) {
      (void)method->Score(dataset, rows);
    }
    double infer_ms = watch.ElapsedMillis() / kRepeats;

    table.AddRow({method->name(), util::FormatFixed(train_seconds, 1),
                  util::FormatFixed(infer_ms, 2)});
    std::printf("finished %-10s\n", method->name().c_str());
    std::fflush(stdout);
  }
  std::printf("\n");
  table.Print();
  std::printf(
      "\nShape checks vs paper Table V:\n"
      "  - LSTM/STGN/LSTPM/STOD-PPA slowest to train (sequential "
      "recurrence).\n"
      "  - ODNET trains faster than STOD-PPA / STP-UDGAT.\n"
      "  - Multi-task ODNET/ODNET-G infer faster than the two-pass STL "
      "variants.\n");
  return 0;
}
