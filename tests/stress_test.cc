// Concurrency stress tests, written to run under ThreadSanitizer
// (-DODNET_SANITIZE=thread, ctest -L sanitizer). They hammer the
// places where threads meet shared state:
//
//  - util::ThreadPool: cross-thread Submit, nested fork-joins, exceptions
//    racing from several workers at once;
//  - tensor::ComputeContext: kernels running while another thread
//    reconfigures the pool (SetNumThreads retires a pool generation that
//    in-flight kernels still hold via shared_pool());
//  - serving::ScoreChunked: concurrent chunked scoring against pool
//    reconfiguration;
//  - serving::ServingRouter: concurrent submitters racing queue shutdown,
//    admission-control shedding against a deterministically full queue, and
//    TTL feature-cache expiry racing lookups;
//  - core::OdnetTrainer's data-parallel loop: gang workers on replicas
//    sharing the master's weights, and the shard-parallel reduction.
//
// The tests also assert the determinism contract *while* the pool is being
// resized under them: results must stay bitwise identical to a serial run.

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/baselines/most_pop.h"
#include "src/baselines/odnet_recommender.h"
#include "src/core/config.h"
#include "src/data/fliggy_simulator.h"
#include "src/serving/batch_scorer.h"
#include "src/serving/feature_cache.h"
#include "src/serving/ranking_service.h"
#include "src/serving/recall.h"
#include "src/serving/serving_router.h"
#include "src/telemetry/telemetry.h"
#include "src/util/status.h"
#include "src/tensor/compute_context.h"
#include "src/tensor/graph_plan.h"
#include "src/tensor/ops.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace odnet {
namespace {

using tensor::Backend;
using tensor::BackendGuard;
using tensor::ComputeContext;
using tensor::Tensor;

class ComputeConfigGuard {
 public:
  ComputeConfigGuard()
      : threads_(ComputeContext::Get().num_threads()),
        force_split_(ComputeContext::Get().force_split()) {}
  ~ComputeConfigGuard() {
    ComputeContext::Get().SetNumThreads(threads_);
    ComputeContext::Get().SetForceSplit(force_split_);
  }

 private:
  int threads_;
  bool force_split_;
};

// A small forward+backward graph touching the parallel kernel families;
// returns all forward values and gradients flattened.
std::vector<float> RunSmallGraph() {
  util::Rng rng(404);
  Tensor a = Tensor::Randn({6, 8}, &rng, 1.0f, /*requires_grad=*/true);
  Tensor b = Tensor::Randn({8, 4}, &rng, 1.0f, /*requires_grad=*/true);
  Tensor bias = Tensor::Randn({1, 4}, &rng, 1.0f, /*requires_grad=*/true);
  Tensor h = tensor::Tanh(tensor::Add(tensor::MatMul(a, b), bias));
  Tensor y = tensor::Softmax(h);
  Tensor loss = tensor::Sum(tensor::Mul(y, h));
  a.ZeroGrad();
  b.ZeroGrad();
  bias.ZeroGrad();
  loss.Backward();
  std::vector<float> out = y.vec();
  out.push_back(loss.item());
  out.insert(out.end(), a.grad().begin(), a.grad().end());
  out.insert(out.end(), b.grad().begin(), b.grad().end());
  out.insert(out.end(), bias.grad().begin(), bias.grad().end());
  return out;
}

// ------------------------------------------------------------ ThreadPool --

TEST(ThreadPoolStressTest, SubmitFromManyThreads) {
  util::ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&pool, &counter] {
      std::vector<std::future<void>> futures;
      for (int i = 0; i < 50; ++i) {
        futures.push_back(pool.Submit([&counter] { counter++; }));
      }
      for (auto& f : futures) f.get();
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolStressTest, NestedParallelForStorm) {
  util::ThreadPool pool(4);
  for (int round = 0; round < 10; ++round) {
    std::atomic<int64_t> total{0};
    pool.ParallelFor(12, [&pool, &total](int64_t) {
      pool.ParallelFor(12, [&total](int64_t) { total.fetch_add(1); });
    });
    EXPECT_EQ(total.load(), 144) << "round " << round;
  }
}

TEST(ThreadPoolStressTest, RacingExceptionsExactlyOnePropagates) {
  util::ThreadPool pool(4);
  for (int round = 0; round < 10; ++round) {
    int caught = 0;
    try {
      // Every index throws: several workers race to set the first
      // exception; exactly one must reach the caller.
      pool.ParallelFor(64, [](int64_t i) {
        throw std::runtime_error("worker " + std::to_string(i));
      });
    } catch (const std::runtime_error&) {
      caught++;
    }
    EXPECT_EQ(caught, 1) << "round " << round;
    // The pool must come back clean after the pile-up.
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(8, [&sum](int64_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 28) << "round " << round;
  }
}

// -------------------------------------------------------- ComputeContext --

TEST(ComputeContextStressTest, KernelsSurvivePoolReconfiguration) {
  ComputeConfigGuard guard;
  ComputeContext& ctx = ComputeContext::Get();
  ctx.SetForceSplit(true);  // split even tiny tensors
  ctx.SetNumThreads(1);
  const std::vector<float> expected = RunSmallGraph();

  // One thread continuously retires pool generations while compute threads
  // run kernels that hold the previous generation via shared_pool().
  std::atomic<bool> stop{false};
  std::thread reconfig([&stop] {
    int n = 0;
    while (!stop.load()) {
      ComputeContext::Get().SetNumThreads(1 + (n++ % 4));
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> compute;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 2; ++t) {
    compute.emplace_back([&mismatches, &expected] {
      for (int iter = 0; iter < 30; ++iter) {
        if (RunSmallGraph() != expected) mismatches++;
      }
    });
  }
  for (auto& t : compute) t.join();
  stop = true;
  reconfig.join();
  // Determinism holds even while the pool is resized mid-run.
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ComputeContextStressTest, BackendSelectionIsThreadLocal) {
  ComputeConfigGuard guard;
  ComputeContext::Get().SetNumThreads(4);
  ComputeContext::Get().SetForceSplit(true);
  std::atomic<bool> leaked{false};
  std::thread oracle_thread([&leaked] {
    BackendGuard reference(Backend::kReference);
    for (int i = 0; i < 20; ++i) {
      RunSmallGraph();
      if (ComputeContext::backend() != Backend::kReference) leaked = true;
    }
  });
  // This thread must keep seeing the optimized backend throughout.
  for (int i = 0; i < 20; ++i) {
    RunSmallGraph();
    if (ComputeContext::backend() != Backend::kOptimized) leaked = true;
  }
  oracle_thread.join();
  EXPECT_FALSE(leaked.load());
  EXPECT_EQ(ComputeContext::backend(), Backend::kOptimized);
}

// -------------------------------------------------------------- GraphPlan --

TEST(GraphPlanStressTest, ConcurrentReplayOnSharedPlanUnderReconfiguration) {
  // A pure-tensor plan (no host stages) is immutable after capture; replay
  // threads share it but each brings its own Buffers via NewBuffers().
  // TSan validates that ReplayOn touches no shared mutable state, while a
  // reconfiguration thread retires pool generations under the kernels.
  ComputeConfigGuard guard;
  ComputeContext& ctx = ComputeContext::Get();
  ctx.SetNumThreads(1);
  ctx.SetForceSplit(true);  // split even tiny tensors

  util::Rng rng(7171);
  Tensor x = Tensor::Randn({6, 8}, &rng);
  Tensor w1 = Tensor::Randn({8, 16}, &rng);
  Tensor w2 = Tensor::Randn({16, 4}, &rng);
  std::vector<Tensor> captured;
  std::shared_ptr<tensor::GraphPlan> plan =
      tensor::GraphPlan::CaptureInference(
          [&x, &w1, &w2]() {
            Tensor h = tensor::Tanh(tensor::MatMul(x, w1));
            return std::vector<Tensor>{
                tensor::Softmax(tensor::MatMul(h, w2))};
          },
          &captured, {x});
  ASSERT_FALSE(plan->has_host_stages());
  const std::vector<float> expected = captured[0].vec();

  std::atomic<bool> stop{false};
  std::thread reconfig([&stop] {
    int n = 0;
    while (!stop.load()) {
      ComputeContext::Get().SetNumThreads(1 + (n++ % 4));
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> replayers;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 4; ++t) {
    replayers.emplace_back([&plan, &x, &expected, &mismatches] {
      std::unique_ptr<tensor::GraphPlan::Buffers> buffers =
          plan->NewBuffers();
      for (int iter = 0; iter < 30; ++iter) {
        const std::vector<Tensor>& out = plan->ReplayOn(buffers.get(), {x});
        if (out[0].vec() != expected) mismatches++;
      }
    });
  }
  for (auto& t : replayers) t.join();
  stop = true;
  reconfig.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ---------------------------------------------------------- ScoreChunked --

TEST(ScoreChunkedStressTest, ConcurrentScoringUnderReconfiguration) {
  data::FliggyConfig config;
  config.num_users = 120;
  config.num_cities = 20;
  config.seed = 61;
  data::FliggySimulator simulator(config);
  data::OdDataset dataset = simulator.Generate();
  baselines::MostPop method;
  ASSERT_TRUE(method.Fit(dataset).ok());

  std::vector<data::Sample> rows;
  while (rows.size() < 600) {
    for (const data::Sample& s : dataset.train_samples) {
      rows.push_back(s);
      if (rows.size() >= 600) break;
    }
  }
  const std::vector<baselines::OdScore> expected = method.Score(dataset, rows);

  ComputeConfigGuard guard;
  ComputeContext::Get().SetNumThreads(4);
  std::atomic<bool> stop{false};
  std::thread reconfig([&stop] {
    int n = 0;
    while (!stop.load()) {
      ComputeContext::Get().SetNumThreads(1 + (n++ % 4));
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> scorers;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 2; ++t) {
    scorers.emplace_back([&] {
      for (int iter = 0; iter < 10; ++iter) {
        std::vector<baselines::OdScore> got =
            serving::ScoreChunked(&method, dataset, rows);
        if (got.size() != expected.size()) {
          mismatches++;
          continue;
        }
        for (size_t i = 0; i < got.size(); ++i) {
          if (got[i].p_o != expected[i].p_o || got[i].p_d != expected[i].p_d) {
            mismatches++;
            break;
          }
        }
      }
    });
  }
  for (auto& t : scorers) t.join();
  stop = true;
  reconfig.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ----------------------------------------------------------- ServingRouter --

/// Shared serving stack for the router stress tests. Owns the dataset, the
/// fitted model, recall, and the ranking service the routers wrap.
struct RouterStressFixture {
  RouterStressFixture() : simulator(MakeConfig()), dataset(simulator.Generate()) {
    EXPECT_TRUE(method.Fit(dataset).ok());
    recall = std::make_unique<serving::CandidateRecall>(
        &dataset, &simulator.atlas(), serving::RecallOptions());
    service = std::make_unique<serving::RankingService>(&method, &dataset,
                                                        recall.get());
  }
  static data::FliggyConfig MakeConfig() {
    data::FliggyConfig config;
    config.num_users = 80;
    config.num_cities = 15;
    config.seed = 73;
    return config;
  }
  data::FliggySimulator simulator;
  data::OdDataset dataset;
  baselines::MostPop method;
  std::unique_ptr<serving::CandidateRecall> recall;
  std::unique_ptr<serving::RankingService> service;
};

/// Blocks every Score() call until Open(); see serving_router_test.cc. Lets
/// the stress tests pin the dispatcher mid-batch so the bounded queue is
/// deterministically full when the submitter threads hammer it.
class BlockingScorer : public baselines::OdRecommender {
 public:
  explicit BlockingScorer(baselines::OdRecommender* inner) : inner_(inner) {}

  std::string name() const override { return "Blocking"; }
  util::Status Fit(const data::OdDataset& dataset) override {
    return inner_->Fit(dataset);
  }
  bool ThreadSafeScore() const override { return true; }
  std::vector<baselines::OdScore> Score(
      const data::OdDataset& dataset,
      const std::vector<data::Sample>& samples) override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ++entries_;
      cv_.notify_all();
      cv_.wait(lock, [this] { return open_; });
    }
    return inner_->Score(dataset, samples);
  }

  void Open() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }
  void AwaitEntries(int n) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this, n] { return entries_ >= n; });
  }

 private:
  baselines::OdRecommender* inner_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
  int entries_ = 0;
};

/// Throws from every third Score() call (the first included), standing in
/// for a model that fails some batches while the router keeps serving.
class FlakyScorer : public baselines::OdRecommender {
 public:
  explicit FlakyScorer(baselines::OdRecommender* inner) : inner_(inner) {}

  std::string name() const override { return "Flaky"; }
  util::Status Fit(const data::OdDataset& dataset) override {
    return inner_->Fit(dataset);
  }
  bool ThreadSafeScore() const override { return true; }
  std::vector<baselines::OdScore> Score(
      const data::OdDataset& dataset,
      const std::vector<data::Sample>& samples) override {
    if (calls_.fetch_add(1) % 3 == 0) throw std::runtime_error("model fault");
    return inner_->Score(dataset, samples);
  }

 private:
  baselines::OdRecommender* inner_;
  std::atomic<int64_t> calls_{0};
};

TEST(ServingRouterStressTest, SubmittersRacingShutdown) {
  RouterStressFixture fixture;
  FlakyScorer flaky(&fixture.method);
  serving::RankingService flaky_service(&flaky, &fixture.dataset,
                                        fixture.recall.get());
  serving::RouterOptions options;
  options.num_workers = 2;
  options.max_batch_rows = 64;
  options.batch_deadline_us = 100;
  options.queue_capacity = 64;
  telemetry::TelemetryRegistry& reg = telemetry::TelemetryRegistry::Get();
  const int64_t failed_before = reg.CounterValue("serving.router.failed");
  serving::ServingRouter router(&flaky_service, options);

  // Four submitter threads race a Shutdown() triggered partway through the
  // submission stream, while the model throws on some batches. Every future
  // must resolve: a served list, one of the two typed refusals, or the
  // kInternal of a failed batch — never a hang, never a dropped promise.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 40;
  std::atomic<int64_t> submitted{0};
  std::atomic<int64_t> served{0};
  std::atomic<int64_t> shed{0};
  std::atomic<int64_t> refused{0};
  std::atomic<int64_t> failed{0};
  std::atomic<int64_t> unexpected{0};
  std::atomic<bool> shut_down{false};
  std::thread shutdown_thread([&] {
    while (submitted.load() < kThreads * kPerThread / 2) {
      std::this_thread::yield();
    }
    router.Shutdown();
    shut_down.store(true);
  });
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Each thread's last submission waits for Shutdown() to return, so
        // some submissions follow it however the shutdown thread is
        // scheduled; the others race it.
        if (i == kPerThread - 1) {
          while (!shut_down.load()) std::this_thread::yield();
        }
        const int64_t user = (t * kPerThread + i) % fixture.dataset.num_users;
        std::future<serving::TopKResult> future = router.SubmitTopK(user, 5);
        submitted.fetch_add(1);
        serving::TopKResult result = future.get();
        if (result.ok()) {
          served.fetch_add(1);
          // Served lists must still honour the deterministic ranking order.
          const std::vector<serving::RankedFlight>& list = result.value();
          for (size_t j = 1; j < list.size(); ++j) {
            if (serving::FlightBefore(list[j], list[j - 1])) {
              unexpected.fetch_add(1);
            }
          }
        } else if (result.status().code() == util::StatusCode::kUnavailable) {
          shed.fetch_add(1);
        } else if (result.status().code() ==
                   util::StatusCode::kFailedPrecondition) {
          refused.fetch_add(1);
        } else if (result.status().code() == util::StatusCode::kInternal) {
          failed.fetch_add(1);
        } else {
          unexpected.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  shutdown_thread.join();
  EXPECT_EQ(unexpected.load(), 0);
  EXPECT_EQ(served.load() + shed.load() + refused.load() + failed.load(),
            kThreads * kPerThread);
  EXPECT_GT(served.load(), 0);
  EXPECT_GT(failed.load(), 0) << "the first scored batch always throws";
  EXPECT_EQ(reg.CounterValue("serving.router.failed"),
            failed_before + failed.load());
  EXPECT_GT(refused.load(), 0) << "shutdown landed after every submission";
}

TEST(ServingRouterStressTest, AdmissionControlShedsAgainstFullQueue) {
  RouterStressFixture fixture;
  BlockingScorer blocking(&fixture.method);
  serving::RankingService gated_service(&blocking, &fixture.dataset,
                                        fixture.recall.get());
  serving::RouterOptions options;
  options.num_workers = 1;
  options.max_batch_rows = 1;  // one request per batch
  options.batch_deadline_us = 0;
  options.queue_capacity = 4;
  serving::ServingRouter router(&gated_service, options);

  // Pin the single dispatcher inside a gated batch, so the queue cannot
  // drain while the submitters flood it.
  std::future<serving::TopKResult> pinned = router.SubmitTopK(0, 5);
  blocking.AwaitEntries(1);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::vector<std::future<serving::TopKResult>> futures(kThreads * kPerThread);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int64_t user = 1 + ((t * kPerThread + i) %
                                  (fixture.dataset.num_users - 1));
        futures[static_cast<size_t>(t * kPerThread + i)] =
            router.SubmitTopK(user, 5);
      }
    });
  }
  for (std::thread& t : submitters) t.join();

  // With the dispatcher pinned, at most queue_capacity submissions can have
  // been admitted; everything else must shed with the typed error.
  blocking.Open();
  int64_t served = 0;
  int64_t shed = 0;
  for (std::future<serving::TopKResult>& f : futures) {
    serving::TopKResult result = f.get();
    if (result.ok()) {
      served++;
    } else {
      EXPECT_EQ(result.status().code(), util::StatusCode::kUnavailable);
      shed++;
    }
  }
  EXPECT_TRUE(pinned.get().ok());
  EXPECT_EQ(served + shed, kThreads * kPerThread);
  EXPECT_LE(served, options.queue_capacity);
  EXPECT_GE(shed, kThreads * kPerThread - options.queue_capacity);
}

TEST(TtlCacheStressTest, ExpiryRacingLookups) {
  // Readers look up and re-insert while a clock thread sweeps entries past
  // their TTL under them. TSan checks the shard locking; the value checks
  // confirm a reader never observes a torn snapshot.
  std::atomic<int64_t> now{0};
  serving::TtlCache<std::vector<int64_t>>::Options options;
  options.capacity = 64;
  options.ttl_ns = 50;
  options.clock = [&now] { return now.load(); };
  serving::TtlCache<std::vector<int64_t>> cache(options);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> torn{0};
  std::thread clock_thread([&] {
    for (int i = 0; i < 400 && !stop.load(); ++i) {
      now.fetch_add(10);
      std::this_thread::yield();
    }
    stop = true;
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      util::Rng rng(900 + static_cast<uint64_t>(t));
      while (!stop.load()) {
        const int64_t key = rng.UniformInt(0, 15);
        std::shared_ptr<const std::vector<int64_t>> hit = cache.Lookup(key);
        if (hit == nullptr) {
          cache.Insert(key, std::vector<int64_t>{key, key * 2});
        } else if (hit->size() != 2 || (*hit)[0] != key ||
                   (*hit)[1] != key * 2) {
          torn.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  clock_thread.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_LE(cache.size(), options.capacity);
}

// ------------------------------------------ Data-parallel trainer --

TEST(DataParallelTrainerStressTest, SyncTrainingIsRaceFree) {
  // End-to-end data-parallel training: gang workers with private gradient
  // replicas, then a slice-order reduction in which each shard task writes
  // only the rows it owns, then one Adam step. Everything is either
  // thread-private or behind the per-step join — this must be TSan-clean.
  data::FliggyConfig dc;
  dc.num_users = 40;
  dc.num_cities = 12;
  dc.seed = 5;
  data::FliggySimulator simulator(dc);
  data::OdDataset dataset = simulator.Generate();
  core::OdnetConfig mc;
  mc.embed_dim = 8;
  mc.num_heads = 2;
  mc.expert_dim = 16;
  mc.tower_hidden = 8;
  mc.batch_size = 32;
  mc.epochs = 1;
  mc.seed = 3;
  mc.train_workers = 2;
  mc.embedding_shards = 2;
  baselines::OdnetRecommender odnet("ODNET-ps-stress", &simulator.atlas(),
                                    mc);
  util::Status status = odnet.Fit(dataset);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(std::isfinite(odnet.train_stats().final_epoch_loss));
}

}  // namespace
}  // namespace odnet
