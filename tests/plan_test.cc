// Capture/replay execution plans and arena-backed storage (DESIGN.md §10):
//
//  - BufferArena: bump-pointer recycling, generation leases, Reset()
//    invalidation, ArenaScope escape detection (hard CHECK, not UB);
//  - GraphPlan: capture-once/replay-many inference with a liveness-planned
//    buffer assignment, bitwise identical to eager under every backend and
//    thread count, concurrent replay over per-executor buffer sets;
//  - the model consumer: PredictPlanned's per-shape plan cache (capture on
//    shape change, replay on hit, invalidation).

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/hsg_builder.h"
#include "src/core/odnet_model.h"
#include "src/data/fliggy_simulator.h"
#include "src/data/temporal_features.h"
#include "src/tensor/buffer_arena.h"
#include "src/tensor/compute_context.h"
#include "src/tensor/graph_plan.h"
#include "src/telemetry/telemetry.h"
#include "src/tensor/ops.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace odnet {
namespace {

using tensor::ArenaScope;
using tensor::Backend;
using tensor::BackendGuard;
using tensor::BufferArena;
using tensor::ComputeContext;
using tensor::GraphPlan;
using tensor::Shape;
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

// ------------------------------------------------------------ BufferArena --

TEST(BufferArenaTest, ResetRecyclesBuffersBySize) {
  BufferArena arena;
  BufferArena::Buffer a = arena.Acquire(16);
  BufferArena::Buffer b = arena.Acquire(16);
  BufferArena::Buffer c = arena.Acquire(8);
  EXPECT_TRUE(a.fresh);
  EXPECT_TRUE(b.fresh);
  EXPECT_TRUE(c.fresh);
  EXPECT_NE(a.storage->data(), b.storage->data());
  const float* a_ptr = a.storage->data();
  const float* c_ptr = c.storage->data();

  arena.Reset();
  BufferArena::Buffer a2 = arena.Acquire(16);
  BufferArena::Buffer c2 = arena.Acquire(8);
  // Recycled in acquisition order, per size pool, without fresh allocation.
  EXPECT_FALSE(a2.fresh);
  EXPECT_FALSE(c2.fresh);
  EXPECT_EQ(a2.storage->data(), a_ptr);
  EXPECT_EQ(c2.storage->data(), c_ptr);

  BufferArena::Stats stats = arena.stats();
  EXPECT_EQ(stats.total_acquires, 5);
  EXPECT_EQ(stats.reuse_hits, 2);
  EXPECT_EQ(stats.live_buffers, 2);
  EXPECT_EQ(stats.bytes_held,
            static_cast<int64_t>((16 + 16 + 8) * sizeof(float)));
}

TEST(BufferArenaTest, ResetInvalidatesOutstandingLeases) {
  BufferArena arena;
  BufferArena::Buffer b = arena.Acquire(4);
  ASSERT_NE(b.lease, nullptr);
  EXPECT_TRUE(b.lease->valid());
  arena.Reset();
  EXPECT_FALSE(b.lease->valid());
  // The next generation's lease is independent of the expired one.
  BufferArena::Buffer b2 = arena.Acquire(4);
  EXPECT_TRUE(b2.lease->valid());
  EXPECT_FALSE(b.lease->valid());
}

TEST(ArenaScopeTest, OpResultsLeaseFromScopedArena) {
  BufferArena arena;
  {
    ArenaScope scope(&arena);
    Tensor a = Tensor::Full({4, 4}, 2.0f);
    Tensor b = Tensor::Full({4, 4}, 3.0f);
    Tensor sum = tensor::Add(a, b);
    EXPECT_EQ(sum.data()[0], 5.0f);
    // Factory tensors own their storage; op results lease from the arena.
    EXPECT_EQ(a.impl()->lease, nullptr);
    ASSERT_NE(sum.impl()->lease, nullptr);
    EXPECT_TRUE(sum.impl()->lease->valid());
  }
  EXPECT_EQ(tensor::CurrentArena(), nullptr);
  EXPECT_GT(arena.stats().generation, 0u);
}

TEST(ArenaScopeTest, EscapedOpResultDiesOnAccess) {
  Tensor escaped;
  BufferArena arena;
  {
    ArenaScope scope(&arena);
    escaped = tensor::Mul(Tensor::Full({3}, 2.0f), Tensor::Full({3}, 4.0f));
    EXPECT_EQ(escaped.data()[1], 8.0f);  // alive inside the scope
  }
  EXPECT_DEATH(escaped.data(), "outlived its arena generation");
}

TEST(ArenaScopeTest, EscapedReshapeViewDiesOnAccess) {
  // A zero-copy view shares the leased storage, so a view that outlives the
  // arena reset must die as loudly as the tensor it aliases (satellite of
  // ISSUE: views pin the lease, never silently read recycled memory).
  Tensor view;
  BufferArena arena;
  {
    ArenaScope scope(&arena);
    Tensor sum = tensor::Add(Tensor::Full({2, 3}, 1.0f),
                             Tensor::Full({2, 3}, 1.0f));
    view = tensor::Reshape(sum, {6});
    EXPECT_EQ(view.data(), sum.data());  // really a view
  }
  EXPECT_DEATH(view.data(), "outlived its arena generation");
}

TEST(ArenaScopeTest, CloneInsideScopeSurvivesReset) {
  Tensor kept;
  BufferArena arena;
  {
    ArenaScope scope(&arena);
    Tensor sum = tensor::Add(Tensor::Full({4}, 1.5f), Tensor::Full({4}, 2.0f));
    kept = sum.Clone();
  }
  // Clone deep-copied to owned storage while the lease was valid.
  EXPECT_EQ(kept.impl()->lease, nullptr);
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(kept.data()[i], 3.5f);
}

TEST(ArenaScopeTest, NestedScopesRestorePrevious) {
  BufferArena outer_arena;
  BufferArena inner_arena;
  ArenaScope outer(&outer_arena);
  EXPECT_EQ(tensor::CurrentArena(), &outer_arena);
  {
    ArenaScope inner(&inner_arena);
    EXPECT_EQ(tensor::CurrentArena(), &inner_arena);
  }
  EXPECT_EQ(tensor::CurrentArena(), &outer_arena);
}

// -------------------------------------------------------------- GraphPlan --

// Builds a small pure-tensor program (no host stages) over an explicit
// rebindable input plus constant weights.
struct PureProgram {
  Tensor x;   // rebindable input
  Tensor w1;  // constants: storage retained by the plan
  Tensor w2;

  explicit PureProgram(util::Rng* rng)
      : x(testing::RandomTensor({6, 8}, rng)),
        w1(testing::RandomTensor({8, 16}, rng)),
        w2(testing::RandomTensor({16, 4}, rng)) {}

  std::vector<Tensor> Run() const {
    Tensor h = tensor::Tanh(tensor::MatMul(x, w1));
    Tensor y = tensor::Softmax(tensor::MatMul(h, w2));
    return {y, tensor::SumAxis(y, 1)};
  }

  std::vector<Tensor> RunOn(const Tensor& input) const {
    PureProgram copy = *this;
    copy.x = input;
    return copy.Run();
  }
};

TEST(GraphPlanTest, ReplayIsBitwiseIdenticalToEagerAcrossBackendsAndThreads) {
  ComputeConfigGuard guard;
  ComputeContext& ctx = ComputeContext::Get();
  for (Backend backend : {Backend::kOptimized, Backend::kReference}) {
    BackendGuard bg(backend);
    util::Rng rng(91);
    PureProgram prog(&rng);
    std::vector<Tensor> captured;
    std::shared_ptr<GraphPlan> plan = GraphPlan::CaptureInference(
        [&prog]() { return prog.Run(); }, &captured, {prog.x});
    ASSERT_EQ(captured.size(), 2u);
    ASSERT_FALSE(plan->has_host_stages());

    for (int threads : {1, 2, 8}) {
      ctx.SetNumThreads(threads);
      ctx.SetForceSplit(true);
      Tensor fresh = testing::RandomTensor({6, 8}, &rng);
      tensor::NoGradGuard no_grad;
      std::vector<Tensor> eager = prog.RunOn(fresh);
      const std::vector<Tensor>& replayed = plan->Replay({fresh});
      ASSERT_EQ(replayed.size(), 2u);
      for (size_t o = 0; o < replayed.size(); ++o) {
        EXPECT_EQ(replayed[o].shape(), eager[o].shape());
        testing::ExpectUlpClose(
            replayed[o].vec(), eager[o].vec(), /*max_ulps=*/0,
            "replay output " + std::to_string(o) + " threads " +
                std::to_string(threads));
      }
    }
    EXPECT_GE(plan->replay_count(), 3);
  }
}

TEST(GraphPlanTest, MemoryPlanReusesRetiredBuffers) {
  // A deep elementwise chain: intermediates retire immediately, so the
  // liveness plan must ping-pong a couple of physical buffers instead of
  // keeping one per value.
  util::Rng rng(17);
  Tensor x = testing::RandomTensor({32, 32}, &rng);
  std::shared_ptr<GraphPlan> plan = GraphPlan::CaptureInference(
      [&x]() {
        Tensor h = x;
        for (int i = 0; i < 8; ++i) h = tensor::Tanh(h);
        return std::vector<Tensor>{h};
      },
      nullptr, {x});
  tensor::MemoryPlanStats stats = plan->memory_stats();
  EXPECT_EQ(stats.num_nodes, 8);
  EXPECT_EQ(stats.num_values, 8);
  EXPECT_LT(stats.num_buffers, stats.num_values);
  EXPECT_LT(stats.peak_bytes, stats.requested_bytes);
  EXPECT_GT(stats.reuse_ratio, 0.0);
  // The plan must not let reuse corrupt the chain: replay still matches.
  std::vector<Tensor> eager_out;
  {
    tensor::NoGradGuard no_grad;
    Tensor h = x;
    for (int i = 0; i < 8; ++i) h = tensor::Tanh(h);
    eager_out.push_back(h);
  }
  testing::ExpectUlpClose(plan->Replay({x})[0].vec(), eager_out[0].vec(),
                          /*max_ulps=*/0, "deep chain replay");
}

TEST(GraphPlanTest, ReplayOnRejectsShapeMismatch) {
  util::Rng rng(23);
  PureProgram prog(&rng);
  std::shared_ptr<GraphPlan> plan =
      GraphPlan::CaptureInference([&prog]() { return prog.Run(); }, nullptr,
                                  {prog.x});
  Tensor wrong = testing::RandomTensor({5, 8}, &rng);
  EXPECT_DEATH(plan->Replay({wrong}), "");
  EXPECT_DEATH(plan->Replay({}), "");
}

TEST(GraphPlanTest, ConcurrentReplayOnSeparateBufferSets) {
  // Pure-tensor plans support concurrent replay when every thread brings
  // its own Buffers (the tsan preset hammers this harder in stress_test).
  ComputeConfigGuard guard;
  ComputeContext::Get().SetNumThreads(1);
  util::Rng rng(29);
  PureProgram prog(&rng);
  std::vector<Tensor> captured;
  std::shared_ptr<GraphPlan> plan = GraphPlan::CaptureInference(
      [&prog]() { return prog.Run(); }, &captured, {prog.x});
  ASSERT_FALSE(plan->has_host_stages());
  const std::vector<float> expected0 = captured[0].vec();
  const std::vector<float> expected1 = captured[1].vec();

  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&plan, &prog, &expected0, &expected1, &mismatches] {
      std::unique_ptr<GraphPlan::Buffers> buffers = plan->NewBuffers();
      for (int iter = 0; iter < 10; ++iter) {
        const std::vector<Tensor>& out =
            plan->ReplayOn(buffers.get(), {prog.x});
        if (out[0].vec() != expected0 || out[1].vec() != expected1) {
          mismatches++;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// A serving-shaped program with a long elementwise tail: MatMul feeds a
// broadcast bias Add, then unary activations, scalar ops and binaries with
// the running value on either side.
struct ElementwiseTailProgram {
  Tensor x;   // rebindable input {6, 16}
  Tensor w;   // {16, 12}
  Tensor bias;  // {12}: broadcast over rows
  Tensor gate;  // {6, 12}: same-shape elementwise operand

  explicit ElementwiseTailProgram(util::Rng* rng)
      : x(testing::RandomTensor({6, 16}, rng)),
        w(testing::RandomTensor({16, 12}, rng)),
        bias(testing::RandomTensor({12}, rng)),
        gate(testing::RandomTensor({6, 12}, rng)) {}

  std::vector<Tensor> Run() const {
    Tensor h = tensor::MatMul(x, w);
    h = tensor::Add(h, bias);          // broadcast bias epilogue
    h = tensor::Tanh(h);
    h = tensor::Mul(h, gate);          // same-shape binary
    h = tensor::MulScalar(h, 0.5f);
    h = tensor::Sub(bias, h);          // running value on the right
    h = tensor::Sigmoid(h);
    return {h};
  }

  std::vector<Tensor> RunOn(const Tensor& input) const {
    ElementwiseTailProgram copy = *this;
    copy.x = input;
    return copy.Run();
  }
};

TEST(GraphPlanTest, ElementwiseTailReplayMatchesEagerOnEveryTier) {
  ComputeConfigGuard guard;
  ComputeContext& ctx = ComputeContext::Get();
  for (tensor::CpuCapability cap : tensor::AvailableCpuCapabilities()) {
    tensor::CpuCapabilityScope cap_scope(cap);
    for (Backend backend : {Backend::kOptimized, Backend::kReference}) {
      BackendGuard bg(backend);
      util::Rng rng(131);
      ElementwiseTailProgram prog(&rng);
      std::shared_ptr<GraphPlan> plan = GraphPlan::CaptureInference(
          [&prog]() { return prog.Run(); }, nullptr, {prog.x});
      for (int threads : {1, 2, 8}) {
        ctx.SetNumThreads(threads);
        ctx.SetForceSplit(true);
        // Two replays per thread count: the second runs on the dirty
        // recycled slot buffers the first left behind.
        for (int round = 0; round < 2; ++round) {
          Tensor fresh = testing::RandomTensor({6, 16}, &rng);
          tensor::NoGradGuard no_grad;
          std::vector<Tensor> eager = prog.RunOn(fresh);
          const std::vector<Tensor>& replayed = plan->Replay({fresh});
          testing::ExpectUlpClose(replayed[0].vec(), eager[0].vec(),
                                  /*max_ulps=*/0,
                                  "replay threads " + std::to_string(threads));
        }
      }
    }
  }
}

TEST(GraphPlanTest, IdentityCopiesAndNoOpScalarsReplayMatchEager) {
  // Reference-mode Reshape and inference Dropout record identity copies;
  // chained Reshapes, scale-by-1 and add-0 ride along. The reference
  // backend materializes all of them, so capture there.
  BackendGuard bg(Backend::kReference);
  util::Rng rng(139);
  Tensor x = testing::RandomTensor({4, 6}, &rng);
  auto program = [](const Tensor& in, util::Rng* dropout_rng) {
    Tensor h = tensor::Relu(in);
    h = tensor::AddScalar(h, 0.0f);
    h = tensor::Dropout(h, 0.0f, dropout_rng, /*training=*/true);
    h = tensor::Dropout(h, 0.3f, dropout_rng, /*training=*/false);
    h = tensor::Reshape(h, {6, 4});
    h = tensor::Reshape(h, {24});  // chained reshape views
    h = tensor::MulScalar(h, 1.0f);
    return std::vector<Tensor>{tensor::Sigmoid(h)};
  };
  util::Rng dropout_rng(7);
  std::shared_ptr<GraphPlan> plan = GraphPlan::CaptureInference(
      [&]() { return program(x, &dropout_rng); }, nullptr, {x});
  Tensor fresh = testing::RandomTensor({4, 6}, &rng);
  std::vector<Tensor> eager;
  {
    tensor::NoGradGuard no_grad;
    util::Rng eager_rng(7);
    eager = program(fresh, &eager_rng);
  }
  testing::ExpectUlpClose(plan->Replay({fresh})[0].vec(), eager[0].vec(),
                          /*max_ulps=*/0, "identity-copy replay");
}

TEST(GraphPlanTest, AddZeroAfterTanhKeepsEagerSignOfZero) {
  // Tanh(-0) == -0, and -0 + 0.0f rounds to +0: replay must produce the
  // eager bits, not pass the -0 through.
  BackendGuard bg(Backend::kReference);
  Tensor x = Tensor::FromVector({4}, {0.0f, -0.0f, -1.0f, 2.0f});
  std::shared_ptr<GraphPlan> plan = GraphPlan::CaptureInference(
      [&x]() {
        return std::vector<Tensor>{
            tensor::AddScalar(tensor::Tanh(x), 0.0f)};
      },
      nullptr, {x});
  tensor::NoGradGuard no_grad;
  std::vector<float> eager = tensor::AddScalar(tensor::Tanh(x), 0.0f).vec();
  ASSERT_FALSE(std::signbit(eager[1]));
  testing::ExpectUlpClose(plan->Replay({x})[0].vec(), eager,
                          /*max_ulps=*/0, "tanh add-0 replay");
}

TEST(GraphPlanTest, ValueWithTwoConsumersStaysLiveForBoth) {
  // h feeds two outputs: the memory plan must keep its buffer until the
  // second consumer has run.
  util::Rng rng(149);
  Tensor x = testing::RandomTensor({5, 7}, &rng);
  std::shared_ptr<GraphPlan> plan = GraphPlan::CaptureInference(
      [&x]() {
        Tensor h = tensor::Tanh(x);
        return std::vector<Tensor>{tensor::AddScalar(h, 1.0f),
                                   tensor::MulScalar(h, 2.0f)};
      },
      nullptr, {x});
  tensor::NoGradGuard no_grad;
  Tensor h = tensor::Tanh(x);
  std::vector<float> e0 = tensor::AddScalar(h, 1.0f).vec();
  std::vector<float> e1 = tensor::MulScalar(h, 2.0f).vec();
  const std::vector<Tensor>& out = plan->Replay({x});
  testing::ExpectUlpClose(out[0].vec(), e0, 0, "two-consumer branch 0");
  testing::ExpectUlpClose(out[1].vec(), e1, 0, "two-consumer branch 1");
}

// Seeded differential fuzz: random elementwise chains (unary activations,
// scalar ops, same-shape and broadcast binaries, scale-by-1 and add-0),
// captured once and replayed twice (the second on dirty recycled buffers)
// on fresh inputs — replay must match eager bitwise on every backend,
// thread count and compiled capability tier.
TEST(GraphPlanTest, DifferentialFuzzReplayVsEagerBitwise) {
  ComputeConfigGuard guard;
  ComputeContext& ctx = ComputeContext::Get();
  util::Rng rng(0xF05EDu);
  for (tensor::CpuCapability cap : tensor::AvailableCpuCapabilities()) {
    tensor::CpuCapabilityScope cap_scope(cap);
    for (Backend backend : {Backend::kOptimized, Backend::kReference}) {
      BackendGuard bg(backend);
      for (int iter = 0; iter < 6; ++iter) {
        const int64_t rows = rng.UniformInt(1, 7);
        const int64_t cols = rng.UniformInt(1, 33);  // exercises vector tails
        Tensor x = testing::RandomTensor({rows, cols}, &rng);
        Tensor row_operand = testing::RandomTensor({cols}, &rng);
        Tensor full_operand = testing::RandomTensor({rows, cols}, &rng);
        const int n_ops = static_cast<int>(rng.UniformInt(2, 20));
        std::vector<int> ops;
        for (int i = 0; i < n_ops; ++i) {
          ops.push_back(static_cast<int>(rng.UniformInt(0, 11)));
        }
        auto program = [&](const Tensor& input) {
          Tensor h = input;
          for (int op : ops) {
            switch (op) {
              case 0: h = tensor::Relu(h); break;
              case 1: h = tensor::LeakyRelu(h, 0.01f); break;
              case 2: h = tensor::Sigmoid(h); break;
              case 3: h = tensor::Tanh(h); break;
              case 4: h = tensor::AddScalar(h, 0.25f); break;
              case 5: h = tensor::MulScalar(h, -0.5f); break;
              case 6: h = tensor::Add(h, row_operand); break;
              case 7: h = tensor::Mul(h, full_operand); break;
              case 8: h = tensor::Sub(row_operand, h); break;
              case 9: h = tensor::MulScalar(h, 1.0f); break;
              case 10: h = tensor::AddScalar(h, 0.0f); break;
              default: h = tensor::Div(h, tensor::AddScalar(
                               tensor::Mul(h, h), 1.0f)); break;
            }
          }
          return std::vector<Tensor>{h};
        };
        std::shared_ptr<GraphPlan> plan = GraphPlan::CaptureInference(
            [&]() { return program(x); }, nullptr, {x});
        for (int threads : {1, 2, 8}) {
          ctx.SetNumThreads(threads);
          ctx.SetForceSplit(true);
          for (int round = 0; round < 2; ++round) {
            Tensor fresh = testing::RandomTensor({rows, cols}, &rng);
            std::vector<float> eager;
            {
              tensor::NoGradGuard no_grad;
              eager = program(fresh)[0].vec();
            }
            testing::ExpectUlpClose(
                plan->Replay({fresh})[0].vec(), eager, /*max_ulps=*/0,
                "fuzz iter " + std::to_string(iter) + " threads " +
                    std::to_string(threads) + " round " +
                    std::to_string(round));
          }
        }
      }
    }
  }
}

// ------------------------------------------------------------------ model --

struct Fixture {
  Fixture() : simulator(MakeConfig()), dataset(simulator.Generate()) {
    hsg = core::BuildHsgFromDataset(dataset, simulator.atlas());
    temporal = std::make_unique<data::TemporalFeatureIndex>(
        dataset, dataset.num_cities, 800);
  }
  static data::FliggyConfig MakeConfig() {
    data::FliggyConfig config;
    config.num_users = 120;
    config.num_cities = 25;
    config.seed = 31;
    return config;
  }
  data::FliggySimulator simulator;
  data::OdDataset dataset;
  std::unique_ptr<graph::HeterogeneousSpatialGraph> hsg;
  std::unique_ptr<data::TemporalFeatureIndex> temporal;
};

Fixture& SharedFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

core::OdnetConfig SmallModelConfig() {
  core::OdnetConfig config;
  config.embed_dim = 8;
  config.num_heads = 2;
  config.expert_dim = 8;
  config.tower_hidden = 4;
  config.epochs = 2;
  config.batch_size = 48;
  config.seed = 77;
  return config;
}

TEST(PredictPlannedTest, MatchesPredictAndInvalidatesOnShapeChange) {
  // use_hsgc off: Predict is a pure function of the batch, so plan hits,
  // misses, and re-captures can all be compared against eager Predict on
  // the *same* model instance.
  Fixture& f = SharedFixture();
  core::OdnetConfig config = SmallModelConfig();
  config.use_hsgc = false;
  core::OdnetModel model(nullptr, f.dataset.num_users, f.dataset.num_cities,
                         config);
  data::BatchEncoder encoder(&f.dataset, f.temporal.get(),
                             data::SequenceSpec{config.t_long,
                                                config.t_short});
  data::OdBatch batch8 = encoder.EncodeJoint(f.dataset.train_samples, 0, 8);
  data::OdBatch batch8b = encoder.EncodeJoint(f.dataset.train_samples, 8, 16);
  data::OdBatch batch4 = encoder.EncodeJoint(f.dataset.train_samples, 16, 20);

  auto expect_equal = [](const std::pair<std::vector<double>,
                                         std::vector<double>>& a,
                         const std::pair<std::vector<double>,
                                         std::vector<double>>& b,
                         const std::string& tag) {
    ASSERT_EQ(a.first.size(), b.first.size()) << tag;
    for (size_t i = 0; i < a.first.size(); ++i) {
      EXPECT_EQ(a.first[i], b.first[i]) << tag << " p_o[" << i << "]";
      EXPECT_EQ(a.second[i], b.second[i]) << tag << " p_d[" << i << "]";
    }
  };

  expect_equal(model.PredictPlanned(batch8), model.Predict(batch8),
               "capture");  // miss: eager capture
  EXPECT_EQ(model.serving_plan_stats().captures, 1);
  EXPECT_EQ(model.serving_plan_stats().replays, 0);

  expect_equal(model.PredictPlanned(batch8b), model.Predict(batch8b),
               "replay");  // hit: same shape, fresh contents
  EXPECT_EQ(model.serving_plan_stats().captures, 1);
  EXPECT_EQ(model.serving_plan_stats().replays, 1);

  expect_equal(model.PredictPlanned(batch4), model.Predict(batch4),
               "shape change");  // miss: batch size changed -> new plan
  EXPECT_EQ(model.serving_plan_stats().captures, 2);

  expect_equal(model.PredictPlanned(batch8), model.Predict(batch8),
               "back to first shape");  // both plans stay cached
  EXPECT_EQ(model.serving_plan_stats().captures, 2);
  EXPECT_EQ(model.serving_plan_stats().replays, 2);

  // The serving plan reuses retired buffers.
  EXPECT_GT(model.serving_plan_stats().memory.reuse_ratio, 0.0);
  EXPECT_LT(model.serving_plan_stats().memory.peak_bytes,
            model.serving_plan_stats().memory.requested_bytes);

  model.InvalidateServingPlans();
  expect_equal(model.PredictPlanned(batch8), model.Predict(batch8),
               "after invalidation");
  EXPECT_EQ(model.serving_plan_stats().captures, 3);
}

TEST(PredictPlannedTest, RegistryCountersTrackHitMissRecapture) {
  // The plan-cache counters are observable through the process-global
  // telemetry registry (the struct fields above are per-model); the
  // counters are cumulative across tests, so assert on deltas.
  Fixture& f = SharedFixture();
  core::OdnetConfig config = SmallModelConfig();
  config.use_hsgc = false;
  core::OdnetModel model(nullptr, f.dataset.num_users, f.dataset.num_cities,
                         config);
  data::BatchEncoder encoder(&f.dataset, f.temporal.get(),
                             data::SequenceSpec{config.t_long,
                                                config.t_short});
  data::OdBatch batch8 = encoder.EncodeJoint(f.dataset.train_samples, 0, 8);
  data::OdBatch batch4 = encoder.EncodeJoint(f.dataset.train_samples, 8, 12);

  auto& reg = telemetry::TelemetryRegistry::Get();
  const int64_t hits0 = reg.CounterValue("serving.plan_cache.hits");
  const int64_t misses0 = reg.CounterValue("serving.plan_cache.misses");
  const int64_t recaps0 = reg.CounterValue("serving.plan_cache.recaptures");

  model.PredictPlanned(batch8);  // first shape: miss -> capture
  EXPECT_EQ(reg.CounterValue("serving.plan_cache.misses"), misses0 + 1);
  EXPECT_EQ(reg.CounterValue("serving.plan_cache.hits"), hits0);
  EXPECT_EQ(reg.CounterValue("serving.plan_cache.recaptures"), recaps0);

  model.PredictPlanned(batch8);  // same shape: hit -> replay
  EXPECT_EQ(reg.CounterValue("serving.plan_cache.hits"), hits0 + 1);
  EXPECT_EQ(reg.CounterValue("serving.plan_cache.misses"), misses0 + 1);

  model.PredictPlanned(batch4);  // shape change: a fresh miss, no recapture
  EXPECT_EQ(reg.CounterValue("serving.plan_cache.misses"), misses0 + 2);
  EXPECT_EQ(reg.CounterValue("serving.plan_cache.recaptures"), recaps0);

  model.InvalidateServingPlans();
  model.PredictPlanned(batch8);  // signature seen before: recapture
  EXPECT_EQ(reg.CounterValue("serving.plan_cache.recaptures"), recaps0 + 1);
  EXPECT_EQ(reg.CounterValue("serving.plan_cache.misses"), misses0 + 2);
  EXPECT_EQ(reg.CounterValue("serving.plan_cache.hits"), hits0 + 1);
  EXPECT_EQ(model.serving_plan_stats().recaptures, 1);

  // The memory-plan gauges reflect the most recent capture, and the
  // registry snapshot carries all three counters.
  EXPECT_GT(reg.GetGauge("serving.plan_cache.memory.num_nodes")->Value(), 0);
  const std::string json = reg.SnapshotJson();
  EXPECT_NE(json.find("serving.plan_cache.hits"), std::string::npos);
  EXPECT_NE(json.find("serving.plan_cache.misses"), std::string::npos);
  EXPECT_NE(json.find("serving.plan_cache.recaptures"), std::string::npos);
}

TEST(PredictPlannedTest, SequenceLengthChangeRecaptures) {
  Fixture& f = SharedFixture();
  core::OdnetConfig config = SmallModelConfig();
  config.use_hsgc = false;
  core::OdnetModel model(nullptr, f.dataset.num_users, f.dataset.num_cities,
                         config);
  data::BatchEncoder enc_a(&f.dataset, f.temporal.get(),
                           data::SequenceSpec{config.t_long, config.t_short});
  data::BatchEncoder enc_b(&f.dataset, f.temporal.get(),
                           data::SequenceSpec{config.t_long + 2,
                                              config.t_short + 1});
  data::OdBatch a = enc_a.EncodeJoint(f.dataset.train_samples, 0, 8);
  data::OdBatch b = enc_b.EncodeJoint(f.dataset.train_samples, 0, 8);
  model.PredictPlanned(a);
  EXPECT_EQ(model.serving_plan_stats().captures, 1);
  // Same batch size but different (t_long, t_short): distinct signature.
  auto planned = model.PredictPlanned(b);
  EXPECT_EQ(model.serving_plan_stats().captures, 2);
  auto eager = model.Predict(b);
  for (size_t i = 0; i < planned.first.size(); ++i) {
    EXPECT_EQ(planned.first[i], eager.first[i]);
    EXPECT_EQ(planned.second[i], eager.second[i]);
  }
}

TEST(PredictPlannedTest, HsgcPredictAndPlannedAgreeInAnyOrder) {
  // With the HSGC, inference gathers from tables computed once per weights
  // version, so one model's eager and planned scores agree bitwise whatever
  // was scored before: reference scores first, then both paths in a mixed
  // order over the same batches.
  Fixture& f = SharedFixture();
  core::OdnetConfig config = SmallModelConfig();
  core::OdnetModel model(f.hsg.get(), f.dataset.num_users,
                         f.dataset.num_cities, config);
  data::BatchEncoder encoder(&f.dataset, f.temporal.get(),
                             data::SequenceSpec{config.t_long,
                                                config.t_short});
  std::vector<data::OdBatch> batches;
  std::vector<std::pair<std::vector<double>, std::vector<double>>> want;
  for (size_t start : {size_t{0}, size_t{8}, size_t{16}}) {
    batches.push_back(
        encoder.EncodeJoint(f.dataset.train_samples, start, start + 8));
    want.push_back(model.Predict(batches.back()));
  }
  const std::vector<std::pair<int, bool>> calls = {
      {1, true}, {0, false}, {2, true}, {0, true}, {1, false},
      {2, false}, {1, true}, {0, true}};  // (batch, planned)
  for (const auto& [b, planned] : calls) {
    const auto got = planned ? model.PredictPlanned(batches[b])
                             : model.Predict(batches[b]);
    const auto& expected = want[static_cast<size_t>(b)];
    ASSERT_EQ(got.first.size(), expected.first.size());
    for (size_t i = 0; i < got.first.size(); ++i) {
      EXPECT_EQ(got.first[i], expected.first[i])
          << "batch " << b << (planned ? " planned" : " eager");
      EXPECT_EQ(got.second[i], expected.second[i])
          << "batch " << b << (planned ? " planned" : " eager");
    }
  }
  EXPECT_EQ(model.serving_plan_stats().captures, 1);
  EXPECT_EQ(model.serving_plan_stats().replays, 4);
}

}  // namespace
}  // namespace odnet
