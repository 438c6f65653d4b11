// Micro-benchmarks of the tensor/autograd substrate (google-benchmark).
//
// `--kernel-sweep` instead runs the SIMD dispatch comparison: per-kernel
// forced-scalar vs dispatched-capability timing (GFLOP/s and effective
// memory bandwidth) at 1 thread and at the core count, written
// machine-readably to BENCH_kernel_simd.json together with the core count
// and CPU tier. Besides large square shapes it times the narrow shapes
// ODNET runs (d = 16, dk = 4, T = 10, neighbour cap 5). ODNET_BENCH_SMOKE=1
// shrinks iteration counts so CI can watch for gross regressions without
// paying full timing fidelity.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/optim/optimizer.h"
#include "src/tensor/compute_context.h"
#include "src/tensor/cpu_capability.h"
#include "src/tensor/ops.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"
#include "src/util/string_util.h"
#include "src/util/table.h"
#include "src/util/timer.h"

namespace {

using namespace odnet;
using tensor::CpuCapability;
using tensor::Tensor;

// Rate counters shared by the benchmarks below: `flops` / `bytes` are the
// per-iteration arithmetic and memory traffic of the op under test.
void SetRateCounters(benchmark::State& state, double flops, double bytes) {
  if (flops > 0.0) {
    state.counters["GFLOP/s"] = benchmark::Counter(
        flops, benchmark::Counter::kIsIterationInvariantRate,
        benchmark::Counter::kIs1000);
  }
  state.counters["GB/s"] = benchmark::Counter(
      bytes, benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  util::Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, &rng);
  Tensor b = Tensor::Randn({n, n}, &rng);
  tensor::NoGradGuard guard;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
  SetRateCounters(state, 2.0 * static_cast<double>(n) * n * n,
                  3.0 * static_cast<double>(n) * n * sizeof(float));
}
BENCHMARK(BM_MatMul)->Arg(16)->Arg(64)->Arg(128);

void BM_BatchedMatMul(benchmark::State& state) {
  const int64_t batch = state.range(0);
  util::Rng rng(1);
  Tensor a = Tensor::Randn({batch, 10, 16}, &rng);
  Tensor b = Tensor::Randn({batch, 16, 16}, &rng);
  tensor::NoGradGuard guard;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::MatMul(a, b));
  }
  SetRateCounters(state, 2.0 * static_cast<double>(batch) * 10 * 16 * 16,
                  static_cast<double>(batch) * (10 * 16 + 16 * 16 + 10 * 16) *
                      sizeof(float));
}
BENCHMARK(BM_BatchedMatMul)->Arg(32)->Arg(128);

void BM_Softmax(benchmark::State& state) {
  util::Rng rng(1);
  Tensor a = Tensor::Randn({state.range(0), 64}, &rng);
  tensor::NoGradGuard guard;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::Softmax(a));
  }
  const double n = static_cast<double>(a.numel());
  SetRateCounters(state, 5.0 * n, 2.0 * n * sizeof(float));
}
BENCHMARK(BM_Softmax)->Arg(128)->Arg(1024);

void BM_EmbeddingLookup(benchmark::State& state) {
  util::Rng rng(1);
  Tensor table = Tensor::Randn({1000, 16}, &rng);
  std::vector<int64_t> indices(static_cast<size_t>(state.range(0)));
  for (size_t i = 0; i < indices.size(); ++i) {
    indices[i] = static_cast<int64_t>(rng.NextUint64(1000));
  }
  tensor::NoGradGuard guard;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::EmbeddingLookup(
        table, indices, {static_cast<int64_t>(indices.size())}));
  }
  SetRateCounters(state, 0.0,
                  2.0 * static_cast<double>(indices.size()) * 16 *
                      sizeof(float));
}
BENCHMARK(BM_EmbeddingLookup)->Arg(128)->Arg(1024);

void BM_BroadcastMul(benchmark::State& state) {
  util::Rng rng(1);
  Tensor a = Tensor::Randn({state.range(0), 8, 16}, &rng);
  Tensor b = Tensor::Randn({state.range(0), 1, 16}, &rng);
  tensor::NoGradGuard guard;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::Mul(a, b));
  }
  const double n = static_cast<double>(a.numel());
  SetRateCounters(state, n, 3.0 * n * sizeof(float));
}
BENCHMARK(BM_BroadcastMul)->Arg(64)->Arg(512);

void BM_ForwardBackwardMlp(benchmark::State& state) {
  util::Rng rng(1);
  const int64_t batch = state.range(0);
  Tensor x = Tensor::Randn({batch, 64}, &rng);
  Tensor w1 = Tensor::Randn({64, 64}, &rng, 0.05f, /*requires_grad=*/true);
  Tensor w2 = Tensor::Randn({64, 1}, &rng, 0.05f, /*requires_grad=*/true);
  Tensor y = Tensor::Zeros({batch, 1});
  for (auto _ : state) {
    w1.ZeroGrad();
    w2.ZeroGrad();
    Tensor out = tensor::MatMul(tensor::Relu(tensor::MatMul(x, w1)), w2);
    Tensor loss = tensor::BceWithLogits(out, y);
    loss.Backward();
    benchmark::DoNotOptimize(loss.item());
  }
}
BENCHMARK(BM_ForwardBackwardMlp)->Arg(32)->Arg(128);

// Scoped thread-count override for the backend-scaling variants below.
class ThreadCountScope {
 public:
  explicit ThreadCountScope(int threads)
      : prev_(tensor::ComputeContext::Get().num_threads()) {
    tensor::ComputeContext::Get().SetNumThreads(threads);
  }
  ~ThreadCountScope() { tensor::ComputeContext::Get().SetNumThreads(prev_); }

 private:
  int prev_;
};

// Args: {n, threads}. Same workload as BM_MatMul, run at an explicit
// backend width, so thread scaling is visible in one bench invocation.
void BM_MatMulThreads(benchmark::State& state) {
  ThreadCountScope scope(static_cast<int>(state.range(1)));
  const int64_t n = state.range(0);
  util::Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, &rng);
  Tensor b = Tensor::Randn({n, n}, &rng);
  tensor::NoGradGuard guard;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
  SetRateCounters(state, 2.0 * static_cast<double>(n) * n * n,
                  3.0 * static_cast<double>(n) * n * sizeof(float));
}
BENCHMARK(BM_MatMulThreads)
    ->Args({128, 1})
    ->Args({128, 2})
    ->Args({128, 4})
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4});

// Args: {batch, threads}.
void BM_ForwardBackwardMlpThreads(benchmark::State& state) {
  ThreadCountScope scope(static_cast<int>(state.range(1)));
  util::Rng rng(1);
  const int64_t batch = state.range(0);
  Tensor x = Tensor::Randn({batch, 64}, &rng);
  Tensor w1 = Tensor::Randn({64, 64}, &rng, 0.05f, /*requires_grad=*/true);
  Tensor w2 = Tensor::Randn({64, 1}, &rng, 0.05f, /*requires_grad=*/true);
  Tensor y = Tensor::Zeros({batch, 1});
  for (auto _ : state) {
    w1.ZeroGrad();
    w2.ZeroGrad();
    Tensor out = tensor::MatMul(tensor::Relu(tensor::MatMul(x, w1)), w2);
    Tensor loss = tensor::BceWithLogits(out, y);
    loss.Backward();
    benchmark::DoNotOptimize(loss.item());
  }
}
BENCHMARK(BM_ForwardBackwardMlpThreads)
    ->Args({128, 1})
    ->Args({128, 2})
    ->Args({128, 4});

// ---------------------------------------------------------- kernel sweep --

// One kernel-sweep workload: `make` builds fresh state and returns the step
// closure (fresh per capability tier, so optimizer state and RNG streams
// never leak across tiers); `flops`/`bytes` are per-step totals used for
// the GFLOP/s and bandwidth columns.
struct KernelWork {
  std::string name;
  std::function<std::function<void()>()> make;
  double flops = 0.0;
  double bytes = 0.0;
};

// Min-of-rounds headline plus the per-iteration latency histogram, on the
// shared telemetry bucket math (bench::TimeLoop).
bench::LoopTiming TimeStep(const std::function<void()>& step, int warmup,
                           int iters, int rounds) {
  return bench::TimeLoop(step, warmup, iters, rounds);
}

std::vector<KernelWork> BuildKernelWorkloads() {
  std::vector<KernelWork> works;
  constexpr int64_t kEw = 1 << 16;  // elementwise vector length
  constexpr int64_t kMm = 128;      // square matmul side

  works.push_back(
      {"matmul_fwd",
       [] {
         auto rng = std::make_shared<util::Rng>(11);
         Tensor a = Tensor::Randn({kMm, kMm}, rng.get());
         Tensor b = Tensor::Randn({kMm, kMm}, rng.get());
         return std::function<void()>([a, b, rng] {
           tensor::NoGradGuard guard;
           Tensor c = tensor::MatMul(a, b);
           benchmark::DoNotOptimize(const_cast<float*>(c.data()));
         });
       },
       2.0 * kMm * kMm * kMm, 3.0 * kMm * kMm * sizeof(float)});

  works.push_back(
      {"matmul_fwd_bwd",
       [] {
         auto rng = std::make_shared<util::Rng>(12);
         Tensor a = Tensor::Randn({kMm, kMm}, rng.get(), 0.1f,
                                  /*requires_grad=*/true);
         Tensor b = Tensor::Randn({kMm, kMm}, rng.get(), 0.1f,
                                  /*requires_grad=*/true);
         return std::function<void()>([a, b]() mutable {
           a.ZeroGrad();
           b.ZeroGrad();
           Tensor loss = tensor::Sum(tensor::MatMul(a, b));
           loss.Backward();
           benchmark::DoNotOptimize(loss.item());
         });
       },
       6.0 * kMm * kMm * kMm, 9.0 * kMm * kMm * sizeof(float)});

  struct Unary {
    const char* name;
    Tensor (*fn)(const Tensor&);
    double flops_per_elem;
  };
  const Unary unaries[] = {
      {"relu", +[](const Tensor& a) { return tensor::Relu(a); }, 1.0},
      {"sigmoid", +[](const Tensor& a) { return tensor::Sigmoid(a); }, 8.0},
      {"tanh", +[](const Tensor& a) { return tensor::Tanh(a); }, 10.0},
      {"exp", +[](const Tensor& a) { return tensor::Exp(a); }, 8.0}};
  for (const Unary& u : unaries) {
    auto fn = u.fn;
    works.push_back(
        {u.name,
         [fn] {
           auto rng = std::make_shared<util::Rng>(13);
           Tensor a = Tensor::Randn({kEw}, rng.get());
           return std::function<void()>([a, fn] {
             tensor::NoGradGuard guard;
             Tensor y = fn(a);
             benchmark::DoNotOptimize(const_cast<float*>(y.data()));
           });
         },
         u.flops_per_elem * kEw, 2.0 * kEw * sizeof(float)});
  }

  works.push_back(
      {"ew_mul",
       [] {
         auto rng = std::make_shared<util::Rng>(14);
         Tensor a = Tensor::Randn({kEw}, rng.get());
         Tensor b = Tensor::Randn({kEw}, rng.get());
         return std::function<void()>([a, b] {
           tensor::NoGradGuard guard;
           Tensor y = tensor::Mul(a, b);
           benchmark::DoNotOptimize(const_cast<float*>(y.data()));
         });
       },
       1.0 * kEw, 3.0 * kEw * sizeof(float)});

  works.push_back(
      {"softmax",
       [] {
         auto rng = std::make_shared<util::Rng>(15);
         Tensor a = Tensor::Randn({512, 256}, rng.get());
         return std::function<void()>([a] {
           tensor::NoGradGuard guard;
           Tensor y = tensor::Softmax(a);
           benchmark::DoNotOptimize(const_cast<float*>(y.data()));
         });
       },
       5.0 * 512 * 256, 2.0 * 512 * 256 * sizeof(float)});

  works.push_back(
      {"sum_axis",
       [] {
         auto rng = std::make_shared<util::Rng>(16);
         Tensor a = Tensor::Randn({512, 256}, rng.get());
         return std::function<void()>([a] {
           tensor::NoGradGuard guard;
           Tensor y = tensor::SumAxis(a, 0, false);
           benchmark::DoNotOptimize(const_cast<float*>(y.data()));
         });
       },
       1.0 * 512 * 256, (512.0 * 256 + 256) * sizeof(float)});

  // ODNET's own shapes: a PEC head projection (B*T rows of d = 16 onto
  // dk = 4), the attention scores Q.K^T over T = 10, a -1e9-masked
  // attention softmax, an HSGC attention broadcast over the neighbour cap
  // of 5, and a sum of those scores over d.
  works.push_back(
      {"matmul_1280x16x4",
       [] {
         auto rng = std::make_shared<util::Rng>(20);
         Tensor a = Tensor::Randn({1280, 16}, rng.get());
         Tensor b = Tensor::Randn({16, 4}, rng.get());
         return std::function<void()>([a, b] {
           tensor::NoGradGuard guard;
           Tensor c = tensor::MatMul(a, b);
           benchmark::DoNotOptimize(const_cast<float*>(c.data()));
         });
       },
       2.0 * 1280 * 16 * 4, (1280.0 * 16 + 16 * 4 + 1280 * 4) * sizeof(float)});

  works.push_back(
      {"bmm_128x10x4x10",
       [] {
         auto rng = std::make_shared<util::Rng>(21);
         Tensor q = Tensor::Randn({128, 10, 4}, rng.get());
         Tensor kt = Tensor::Randn({128, 4, 10}, rng.get());
         return std::function<void()>([q, kt] {
           tensor::NoGradGuard guard;
           Tensor s = tensor::MatMul(q, kt);
           benchmark::DoNotOptimize(const_cast<float*>(s.data()));
         });
       },
       2.0 * 128 * 10 * 4 * 10, (2.0 * 128 * 40 + 128 * 100) * sizeof(float)});

  works.push_back(
      {"softmax_1280x10_masked",
       [] {
         auto rng = std::make_shared<util::Rng>(22);
         Tensor a = Tensor::Randn({1280, 10}, rng.get());
         float* p = a.mutable_data();
         for (int64_t i = 1; i < a.numel(); i += 3) p[i] = -1e9f;
         return std::function<void()>([a] {
           tensor::NoGradGuard guard;
           Tensor y = tensor::Softmax(a);
           benchmark::DoNotOptimize(const_cast<float*>(y.data()));
         });
       },
       5.0 * 1280 * 10, 2.0 * 1280 * 10 * sizeof(float)});

  works.push_back(
      {"mul_bcast_200x5x16",
       [] {
         auto rng = std::make_shared<util::Rng>(23);
         Tensor nb = Tensor::Randn({200, 5, 16}, rng.get());
         Tensor self = Tensor::Randn({200, 1, 16}, rng.get());
         return std::function<void()>([nb, self] {
           tensor::NoGradGuard guard;
           Tensor y = tensor::Mul(nb, self);
           benchmark::DoNotOptimize(const_cast<float*>(y.data()));
         });
       },
       200.0 * 5 * 16, (2.0 * 200 * 5 * 16 + 200 * 16) * sizeof(float)});

  works.push_back(
      {"sum_last_1000x16",
       [] {
         auto rng = std::make_shared<util::Rng>(24);
         Tensor a = Tensor::Randn({1000, 16}, rng.get());
         return std::function<void()>([a] {
           tensor::NoGradGuard guard;
           Tensor y = tensor::SumAxis(a, -1, false);
           benchmark::DoNotOptimize(const_cast<float*>(y.data()));
         });
       },
       1000.0 * 16, (1000.0 * 16 + 1000) * sizeof(float)});

  works.push_back(
      {"embedding_scatter",
       [] {
         auto rng = std::make_shared<util::Rng>(17);
         Tensor table = Tensor::Randn({10000, 16}, rng.get(), 0.05f,
                                      /*requires_grad=*/true);
         auto indices = std::make_shared<std::vector<int64_t>>();
         for (int i = 0; i < 1024; ++i) {
           indices->push_back(rng->UniformInt(0, 9999));
         }
         return std::function<void()>([table, indices]() mutable {
           table.ZeroGrad();
           Tensor emb = tensor::EmbeddingLookup(
               table, *indices, {static_cast<int64_t>(indices->size())});
           tensor::Sum(emb).Backward();
           benchmark::DoNotOptimize(table.impl());
         });
       },
       0.0, 4.0 * 1024 * 16 * sizeof(float)});

  works.push_back(
      {"adam_dense",
       [] {
         auto rng = std::make_shared<util::Rng>(18);
         Tensor p = Tensor::Randn({kEw}, rng.get(), 0.05f,
                                  /*requires_grad=*/true);
         tensor::Sum(tensor::Mul(p, p)).Backward();  // dense grad, kept
         auto opt = std::make_shared<optim::Adam>(std::vector<Tensor>{p},
                                                  1e-4);
         return std::function<void()>([opt] { opt->Step(); });
       },
       10.0 * kEw, 8.0 * kEw * sizeof(float)});

  works.push_back(
      {"mlp_train_step",
       [] {
         auto rng = std::make_shared<util::Rng>(19);
         Tensor x = Tensor::Randn({128, 64}, rng.get());
         Tensor w1 = Tensor::Randn({64, 64}, rng.get(), 0.05f, true);
         Tensor w2 = Tensor::Randn({64, 1}, rng.get(), 0.05f, true);
         Tensor y = Tensor::Zeros({128, 1});
         auto opt = std::make_shared<optim::Adam>(
             std::vector<Tensor>{w1, w2}, 1e-4);
         return std::function<void()>([x, w1, w2, y, opt]() mutable {
           opt->ZeroGrad();
           Tensor out =
               tensor::MatMul(tensor::Relu(tensor::MatMul(x, w1)), w2);
           Tensor loss = tensor::BceWithLogits(out, y);
           loss.Backward();
           opt->Step();
           benchmark::DoNotOptimize(loss.item());
         });
       },
       0.0, 0.0});

  return works;
}

int RunKernelSweep() {
  const bool smoke = std::getenv("ODNET_BENCH_SMOKE") != nullptr;
  const int warmup = smoke ? 1 : 5;
  const int iters = smoke ? 2 : 30;
  const int rounds = smoke ? 1 : 5;

  const CpuCapability max_cap = tensor::MaxCpuCapability();
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("=== SIMD kernel sweep (scalar vs %s, %d iters x %d rounds, "
              "%u cores%s) ===\n",
              tensor::CpuCapabilityName(max_cap), iters, rounds, cores,
              smoke ? ", smoke" : "");

  struct Row {
    std::string section;
    int threads = 0;
    double scalar_us = 0.0;
    double simd_us = 0.0;
    double flops = 0.0;
    double bytes = 0.0;
    bench::LatencyHistogram simd_hist;  // per-iteration dispatched timing
  };
  std::vector<Row> rows;
  const std::vector<KernelWork> works = BuildKernelWorkloads();
  // Thread counts alternate within each kernel, so drift in a shared
  // machine's load lands on both columns of a row instead of on one.
  for (const KernelWork& w : works) {
    for (int threads : bench::SweepThreadCounts()) {
      tensor::ComputeContext::Get().SetNumThreads(threads);
      Row row;
      row.section = w.name;
      row.threads = threads;
      row.flops = w.flops;
      row.bytes = w.bytes;
      {
        tensor::CpuCapabilityScope scope(CpuCapability::kScalar);
        row.scalar_us = TimeStep(w.make(), warmup, iters, rounds).best_us;
      }
      {
        tensor::CpuCapabilityScope scope(max_cap);
        bench::LoopTiming timing = TimeStep(w.make(), warmup, iters, rounds);
        row.simd_us = timing.best_us;
        row.simd_hist = std::move(timing.hist);
      }
      rows.push_back(std::move(row));
      std::printf("finished %s threads=%d\n", w.name.c_str(), threads);
      std::fflush(stdout);
    }
  }
  tensor::ComputeContext::Get().SetNumThreads(1);
  std::stable_sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.threads < b.threads;
  });

  util::AsciiTable table({"Kernel", "Threads", "Scalar us", "SIMD us",
                          "Speedup", "GFLOP/s", "GB/s"});
  std::string json = "{\n  \"bench\": \"kernel_simd\",\n  \"smoke\": ";
  json += smoke ? "true" : "false";
  json += ",\n  \"cores\": " + std::to_string(cores);
  json += ",\n  \"cpu_capability\": \"";
  json += tensor::CpuCapabilityName(tensor::ActiveCpuCapability());
  json += "\",\n  \"scalar_cap\": \"scalar\",\n  \"simd_cap\": \"";
  json += tensor::CpuCapabilityName(max_cap);
  json += "\",\n  \"iters\": " + std::to_string(iters) +
          ",\n  \"results\": [\n";
  bool first = true;
  for (const Row& row : rows) {
    const double speedup =
        row.simd_us > 0.0 ? row.scalar_us / row.simd_us : 0.0;
    const double gflops =
        row.simd_us > 0.0 ? row.flops / (row.simd_us * 1e3) : 0.0;
    const double gbps =
        row.simd_us > 0.0 ? row.bytes / (row.simd_us * 1e3) : 0.0;
    table.AddRow({row.section, std::to_string(row.threads),
                  util::FormatFixed(row.scalar_us, 1),
                  util::FormatFixed(row.simd_us, 1),
                  util::FormatFixed(speedup, 2) + "x",
                  row.flops > 0.0 ? util::FormatFixed(gflops, 2) : "-",
                  row.bytes > 0.0 ? util::FormatFixed(gbps, 2) : "-"});
    if (!first) json += ",\n";
    first = false;
    json += "    {\"section\": \"" + row.section +
            "\", \"threads\": " + std::to_string(row.threads) +
            ", \"scalar_us\": " + util::FormatFixed(row.scalar_us, 2) +
            ", \"simd_us\": " + util::FormatFixed(row.simd_us, 2) +
            ", \"speedup\": " + util::FormatFixed(speedup, 3) +
            ", \"gflops\": " + util::FormatFixed(gflops, 3) +
            ", \"gbps\": " + util::FormatFixed(gbps, 3) + ", " +
            row.simd_hist.JsonFields("simd_") + "}";
  }
  json += "\n  ]\n}\n";
  std::printf("\n");
  table.Print();
  std::ofstream out("BENCH_kernel_simd.json");
  out << json;
  out.close();
  std::printf("wrote BENCH_kernel_simd.json\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--kernel-sweep") == 0) {
    return RunKernelSweep();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
