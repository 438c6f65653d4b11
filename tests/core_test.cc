#include <cmath>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/hsg_builder.h"
#include "src/core/hsgc.h"
#include "src/core/od_jlc.h"
#include "src/core/odnet_model.h"
#include "src/core/pec.h"
#include "src/core/trainer.h"
#include "src/data/fliggy_simulator.h"
#include "src/data/temporal_features.h"
#include "src/nn/serialization.h"
#include "src/optim/optimizer.h"
#include "src/telemetry/telemetry.h"
#include "src/tensor/buffer_arena.h"
#include "src/tensor/compute_context.h"
#include "src/tensor/ops.h"
#include "src/tensor/simd/simd_kernels.h"

namespace odnet {
namespace core {
namespace {

using tensor::Tensor;

struct Fixture {
  Fixture() : simulator(MakeConfig()), dataset(simulator.Generate()) {
    hsg = BuildHsgFromDataset(dataset, simulator.atlas());
    temporal = std::make_unique<data::TemporalFeatureIndex>(
        dataset, dataset.num_cities, 800);
  }
  static data::FliggyConfig MakeConfig() {
    data::FliggyConfig config;
    config.num_users = 120;
    config.num_cities = 25;
    config.seed = 17;
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

// ---------------------------------------------------------------- HSGC --

TEST(HsgcTest, CityLevelsHaveCorrectShapes) {
  Fixture& f = SharedFixture();
  OdnetConfig config;
  config.exploration_depth = 2;
  util::Rng rng(1);
  Hsgc hsgc(f.hsg.get(), graph::Metapath::kDeparture, config, &rng);
  Hsgc::State state = hsgc.Forward();
  ASSERT_EQ(state.city_levels.size(), 3u);  // levels 0..K
  for (const Tensor& level : state.city_levels) {
    EXPECT_EQ(level.shape(),
              (tensor::Shape{f.hsg->num_cities(), config.embed_dim}));
  }
}

TEST(HsgcTest, EmbedUsersAndCitiesShapes) {
  Fixture& f = SharedFixture();
  OdnetConfig config;
  util::Rng rng(2);
  Hsgc hsgc(f.hsg.get(), graph::Metapath::kArrive, config, &rng);
  Hsgc::State state = hsgc.Forward();
  Tensor users = hsgc.EmbedUsers(state, {0, 1, 2});
  EXPECT_EQ(users.shape(), (tensor::Shape{3, config.embed_dim}));
  Tensor cities = hsgc.EmbedCities(state, {0, 1, 2, 3}, {2, 2});
  EXPECT_EQ(cities.shape(), (tensor::Shape{2, 2, config.embed_dim}));
}

TEST(HsgcTest, GradientsReachEmbeddingTables) {
  Fixture& f = SharedFixture();
  OdnetConfig config;
  util::Rng rng(3);
  Hsgc hsgc(f.hsg.get(), graph::Metapath::kDeparture, config, &rng);
  Hsgc::State state = hsgc.Forward();
  Tensor users = hsgc.EmbedUsers(state, {0, 1});
  tensor::Sum(tensor::Mul(users, users)).Backward();
  bool any_city_grad = false;
  bool any_user_grad = false;
  for (const auto& [name, p] : hsgc.NamedParameters()) {
    double norm = 0.0;
    for (float g : p.grad()) norm += std::fabs(g);
    if (name.find("city_features") != std::string::npos && norm > 0) {
      any_city_grad = true;
    }
    if (name.find("user_features") != std::string::npos && norm > 0) {
      any_user_grad = true;
    }
  }
  // The K-step chain must propagate into both node-type feature tables.
  EXPECT_TRUE(any_city_grad);
  EXPECT_TRUE(any_user_grad);
}

TEST(HsgcTest, DepthOneVersusTwoDiffer) {
  Fixture& f = SharedFixture();
  OdnetConfig c1;
  c1.exploration_depth = 1;
  OdnetConfig c2;
  c2.exploration_depth = 2;
  util::Rng rng1(4);
  util::Rng rng2(4);
  Hsgc h1(f.hsg.get(), graph::Metapath::kDeparture, c1, &rng1);
  Hsgc h2(f.hsg.get(), graph::Metapath::kDeparture, c2, &rng2);
  EXPECT_EQ(h1.Forward().city_levels.size(), 2u);
  EXPECT_EQ(h2.Forward().city_levels.size(), 3u);
}

TEST(HsgcTest, SpatialWeightToggleChangesOutput) {
  Fixture& f = SharedFixture();
  OdnetConfig on;
  OdnetConfig off;
  off.use_spatial_weights = false;
  util::Rng rng_on(5);
  util::Rng rng_off(5);
  Hsgc hsgc_on(f.hsg.get(), graph::Metapath::kDeparture, on, &rng_on);
  Hsgc hsgc_off(f.hsg.get(), graph::Metapath::kDeparture, off, &rng_off);
  Tensor a = hsgc_on.Forward().city_levels.back();
  Tensor b = hsgc_off.Forward().city_levels.back();
  double diff = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) {
    diff += std::fabs(a.data()[i] - b.data()[i]);
  }
  // At sigma=0.05 init the attention logits are tiny, so the outputs are
  // close — but the spatial weighting must be measurably present.
  EXPECT_GT(diff, 0.0);
}

// ----------------------------------------------------------------- PEC --

TEST(PecTest, OutputShapeAndPadInvariance) {
  OdnetConfig config;
  config.embed_dim = 8;
  config.num_heads = 2;
  util::Rng rng(6);
  Pec pec(config, &rng);
  const int64_t b = 3;
  const int64_t tl = 5;
  const int64_t ts = 4;
  Tensor long_emb = Tensor::Randn({b, tl, 8}, &rng);
  Tensor short_emb = Tensor::Randn({b, ts, 8}, &rng);
  std::vector<float> long_pad(b * tl, 1.0f);
  std::vector<float> short_pad(b * ts, 1.0f);
  // Pad the first two long positions of row 0.
  long_pad[0] = 0.0f;
  long_pad[1] = 0.0f;
  Tensor out = pec.Forward(long_emb, long_pad, short_emb, short_pad);
  EXPECT_EQ(out.shape(), (tensor::Shape{b, 8}));

  // Changing the content of padded positions must not change row 0 output.
  Tensor long2 = long_emb.Clone();
  long2.mutable_data()[0] += 100.0f;
  Tensor out2 = pec.Forward(long2, long_pad, short_emb, short_pad);
  for (int64_t dpos = 0; dpos < 8; ++dpos) {
    EXPECT_NEAR(out.at({0, dpos}), out2.at({0, dpos}), 2e-4f);
  }
}

TEST(PecTest, ShortTermQueryDrivesAttention) {
  // If the short-term window matches one long-term row exactly, that row
  // should receive the largest attention (dot-product focusing, Eq. 4).
  OdnetConfig config;
  config.embed_dim = 4;
  config.num_heads = 1;
  util::Rng rng(7);
  Pec pec(config, &rng);
  Tensor long_emb = Tensor::Randn({1, 3, 4}, &rng);
  Tensor short_emb = Tensor::Randn({1, 2, 4}, &rng);
  std::vector<float> long_pad(3, 1.0f);
  std::vector<float> short_pad(2, 1.0f);
  Tensor out = pec.Forward(long_emb, long_pad, short_emb, short_pad);
  EXPECT_EQ(out.numel(), 4);
  for (int64_t i = 0; i < out.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(out.data()[i]));
  }
}

// -------------------------------------------------------------- O&D-JLC --

TEST(OdJlcTest, OutputShapes) {
  OdnetConfig config;
  util::Rng rng(8);
  OdJlc jlc(20, config, &rng);
  EXPECT_EQ(jlc.num_experts(), 3);
  Tensor q_o = Tensor::Randn({4, 20}, &rng);
  Tensor q_d = Tensor::Randn({4, 20}, &rng);
  OdJlc::Output out = jlc.Forward(q_o, q_d);
  EXPECT_EQ(out.logit_o.shape(), (tensor::Shape{4, 1}));
  EXPECT_EQ(out.logit_d.shape(), (tensor::Shape{4, 1}));
}

TEST(OdJlcTest, TasksSeeBothViews) {
  // The origin logit must depend on q_d (joint learning): perturbing q_d
  // changes logit_o.
  OdnetConfig config;
  util::Rng rng(9);
  OdJlc jlc(10, config, &rng);
  Tensor q_o = Tensor::Randn({2, 10}, &rng);
  Tensor q_d = Tensor::Randn({2, 10}, &rng);
  Tensor q_d2 = tensor::AddScalar(q_d, 1.0f);
  float a = jlc.Forward(q_o, q_d).logit_o.data()[0];
  float b = jlc.Forward(q_o, q_d2).logit_o.data()[0];
  EXPECT_NE(a, b);
}

TEST(OdJlcTest, GatesProduceValidMixtures) {
  // Gate outputs pass through softmax: mixing weights sum to 1 per row.
  // Verified indirectly: with identical experts the mixture equals any
  // single expert's output.
  OdnetConfig config;
  config.num_experts = 1;
  util::Rng rng(10);
  OdJlc jlc(6, config, &rng);
  Tensor q_o = Tensor::Randn({3, 6}, &rng);
  Tensor q_d = Tensor::Randn({3, 6}, &rng);
  OdJlc::Output out = jlc.Forward(q_o, q_d);
  for (int64_t i = 0; i < out.logit_o.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(out.logit_o.data()[i]));
  }
}

// ----------------------------------------------------------- OdnetModel --

TEST(OdnetModelTest, LossDecreasesOverTraining) {
  Fixture& f = SharedFixture();
  OdnetConfig config;
  config.epochs = 3;
  OdnetModel model(f.hsg.get(), f.dataset.num_users, f.dataset.num_cities,
                   config);
  OdnetTrainer trainer(&model, &f.dataset, f.temporal.get());
  TrainStats stats = trainer.Train();
  EXPECT_LT(stats.final_epoch_loss, stats.first_epoch_loss);
  EXPECT_LT(stats.final_epoch_loss, 0.6);
  EXPECT_GT(stats.steps, 0);
}

TEST(OdnetModelTest, ThetaStaysInBounds) {
  Fixture& f = SharedFixture();
  OdnetConfig config;
  config.epochs = 2;
  OdnetModel model(f.hsg.get(), f.dataset.num_users, f.dataset.num_cities,
                   config);
  EXPECT_NEAR(model.theta(), 0.5, 1e-6);
  OdnetTrainer trainer(&model, &f.dataset, f.temporal.get());
  trainer.Train();
  EXPECT_GT(model.theta(), 0.3);
  EXPECT_LT(model.theta(), 0.7);
}

TEST(OdnetModelTest, FrozenThetaDoesNotMove) {
  Fixture& f = SharedFixture();
  OdnetConfig config;
  config.epochs = 1;
  config.learnable_theta = false;
  OdnetModel model(f.hsg.get(), f.dataset.num_users, f.dataset.num_cities,
                   config);
  OdnetTrainer trainer(&model, &f.dataset, f.temporal.get());
  trainer.Train();
  EXPECT_NEAR(model.theta(), 0.5, 1e-6);
}

TEST(OdnetModelTest, PredictReturnsProbabilities) {
  Fixture& f = SharedFixture();
  OdnetConfig config;
  config.epochs = 1;
  OdnetModel model(f.hsg.get(), f.dataset.num_users, f.dataset.num_cities,
                   config);
  data::BatchEncoder encoder(&f.dataset, f.temporal.get(),
                             data::SequenceSpec{config.t_long,
                                                config.t_short});
  data::OdBatch batch = encoder.EncodeJoint(f.dataset.train_samples, 0, 8);
  auto [po, pd] = model.Predict(batch);
  ASSERT_EQ(po.size(), 8u);
  ASSERT_EQ(pd.size(), 8u);
  for (size_t i = 0; i < po.size(); ++i) {
    EXPECT_GE(po[i], 0.0);
    EXPECT_LE(po[i], 1.0);
    EXPECT_GE(pd[i], 0.0);
    EXPECT_LE(pd[i], 1.0);
  }
}

TEST(OdnetModelTest, NoHsgcVariantRuns) {
  Fixture& f = SharedFixture();
  OdnetConfig config;
  config.use_hsgc = false;
  config.epochs = 1;
  OdnetModel model(nullptr, f.dataset.num_users, f.dataset.num_cities,
                   config);
  OdnetTrainer trainer(&model, &f.dataset, f.temporal.get());
  TrainStats stats = trainer.Train();
  EXPECT_LT(stats.final_epoch_loss, 1.0);
}

TEST(OdnetModelTest, PredictIsDeterministicUnderNoGrad) {
  Fixture& f = SharedFixture();
  OdnetConfig config;
  config.epochs = 1;
  OdnetModel model(f.hsg.get(), f.dataset.num_users, f.dataset.num_cities,
                   config);
  data::BatchEncoder encoder(&f.dataset, f.temporal.get(),
                             data::SequenceSpec{config.t_long,
                                                config.t_short});
  data::OdBatch batch = encoder.EncodeJoint(f.dataset.train_samples, 0, 4);
  auto [po1, pd1] = model.Predict(batch);
  auto [po2, pd2] = model.Predict(batch);
  for (size_t i = 0; i < po1.size(); ++i) {
    EXPECT_DOUBLE_EQ(po1[i], po2[i]);
    EXPECT_DOUBLE_EQ(pd1[i], pd2[i]);
  }
}

using Scores = std::pair<std::vector<double>, std::vector<double>>;

// `model`'s planned scores of `batch`, checked against its eager ones.
Scores ScoreBoth(OdnetModel* model, const data::OdBatch& batch) {
  const Scores planned = model->PredictPlanned(batch);
  const Scores eager = model->Predict(batch);
  EXPECT_EQ(planned, eager);
  return planned;
}

// A checkpoint path of the running test's own (ctest runs tests in
// parallel processes).
std::string CheckpointPath(const std::string& stem) {
  return ::testing::TempDir() + "/" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         "." + stem + ".ckpt";
}

// Scores of `batch` by a model built fresh and loaded with `model`'s
// current weights.
Scores ScoreWithFreshCopy(const OdnetModel& model, const data::OdBatch& batch) {
  Fixture& f = SharedFixture();
  const std::string path = CheckpointPath("fresh_copy");
  EXPECT_TRUE(nn::SaveParameters(model, path).ok());
  OdnetModel fresh(f.hsg.get(), f.dataset.num_users, f.dataset.num_cities,
                   model.config());
  EXPECT_TRUE(nn::LoadParameters(&fresh, path).ok());
  return ScoreBoth(&fresh, batch);
}

TEST(OdnetModelTest, RestoredCheckpointPredictsLikeTrainedModel) {
  Fixture& f = SharedFixture();
  OdnetConfig config;
  config.epochs = 1;
  OdnetModel trained(f.hsg.get(), f.dataset.num_users, f.dataset.num_cities,
                     config);
  OdnetTrainer trainer(&trained, &f.dataset, f.temporal.get());
  trainer.Train();
  data::BatchEncoder encoder(&f.dataset, f.temporal.get(),
                             data::SequenceSpec{config.t_long,
                                                config.t_short});
  for (size_t start : {size_t{0}, size_t{16}}) {
    const data::OdBatch batch =
        encoder.EncodeJoint(f.dataset.test_samples, start, start + 16);
    EXPECT_EQ(ScoreWithFreshCopy(trained, batch), ScoreBoth(&trained, batch))
        << "batch at " << start;
  }
}

TEST(OdnetModelTest, ScoresFollowWeightChangesLikeAFreshModel) {
  // Each step rewrites the weights after the model has built its HSGC
  // tables and captured a plan; its scores must then equal those of a
  // model built fresh with the new weights.
  Fixture& f = SharedFixture();
  OdnetConfig config;
  config.epochs = 1;
  OdnetModel model(f.hsg.get(), f.dataset.num_users, f.dataset.num_cities,
                   config);
  OdnetTrainer trainer(&model, &f.dataset, f.temporal.get());
  trainer.Train();
  data::BatchEncoder encoder(&f.dataset, f.temporal.get(),
                             data::SequenceSpec{config.t_long,
                                                config.t_short});
  const data::OdBatch batch =
      encoder.EncodeJoint(f.dataset.test_samples, 0, 16);
  const Scores trained = ScoreBoth(&model, batch);
  EXPECT_EQ(trained, ScoreWithFreshCopy(model, batch));

  trainer.Train();  // a further training run
  const Scores retrained = ScoreBoth(&model, batch);
  EXPECT_NE(retrained, trained);
  EXPECT_EQ(retrained, ScoreWithFreshCopy(model, batch));

  OdnetConfig other_config = config;
  other_config.seed = config.seed + 1;  // other initial weights
  OdnetModel other(f.hsg.get(), f.dataset.num_users, f.dataset.num_cities,
                   other_config);
  const std::string path = CheckpointPath("other");
  ASSERT_TRUE(nn::SaveParameters(other, path).ok());
  ASSERT_TRUE(nn::LoadParameters(&model, path).ok());
  const Scores loaded = ScoreBoth(&model, batch);
  EXPECT_NE(loaded, retrained);
  EXPECT_EQ(loaded, ScoreWithFreshCopy(model, batch));

  // A write through another handle on the same storage leaves the weights
  // version alone; InvalidateServingPlans() is the lever for it.
  Tensor features;
  for (const auto& [name, t] : model.NamedParameters()) {
    if (name == "origin_encoder.hsgc.city_features.table") features = t;
  }
  ASSERT_TRUE(features.defined());
  Tensor alias = Tensor::Zeros(features.shape());
  alias.AliasStorageOf(features);
  float* values = alias.mutable_data();
  for (int64_t i = 0; i < alias.numel(); ++i) values[i] *= 2.0f;
  model.InvalidateServingPlans();
  const Scores invalidated = ScoreBoth(&model, batch);
  EXPECT_NE(invalidated, loaded);
  EXPECT_EQ(invalidated, ScoreWithFreshCopy(model, batch));
}

// Parameterized: the model trains at every paper-relevant depth/head combo.
struct HyperParams {
  int64_t heads;
  int64_t depth;
};

class OdnetHyperTest : public ::testing::TestWithParam<HyperParams> {};

TEST_P(OdnetHyperTest, TrainsAndPredicts) {
  Fixture& f = SharedFixture();
  OdnetConfig config;
  config.epochs = 1;
  config.num_heads = GetParam().heads;
  config.exploration_depth = GetParam().depth;
  OdnetModel model(f.hsg.get(), f.dataset.num_users, f.dataset.num_cities,
                   config);
  OdnetTrainer trainer(&model, &f.dataset, f.temporal.get());
  TrainStats stats = trainer.Train();
  EXPECT_TRUE(std::isfinite(stats.final_epoch_loss));
  EXPECT_LT(stats.final_epoch_loss, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, OdnetHyperTest,
    ::testing::Values(HyperParams{1, 1}, HyperParams{2, 2}, HyperParams{4, 2},
                      HyperParams{8, 1}, HyperParams{4, 3}));

// ----------------------------------------------------------- HSG builder --

TEST(HsgBuilderTest, GraphMatchesHistories) {
  Fixture& f = SharedFixture();
  EXPECT_EQ(f.hsg->num_users(), f.dataset.num_users);
  EXPECT_EQ(f.hsg->num_cities(), f.dataset.num_cities);
  // Every booking's origin is a departure neighbor of its user.
  const data::UserHistory& h = f.dataset.histories[0];
  for (const data::Booking& b : h.long_term) {
    const auto& nbrs =
        f.hsg->UserNeighborCities(h.user, graph::Metapath::kDeparture);
    EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), b.od.origin), nbrs.end());
  }
}

TEST(HsgBuilderTest, LabelsNotInGraph) {
  // The next booking must not leak into the HSG: if a user's label origin
  // is not in any of their historical bookings, it is not a neighbor.
  Fixture& f = SharedFixture();
  for (const data::UserHistory& h : f.dataset.histories) {
    bool in_history = false;
    for (const data::Booking& b : h.long_term) {
      if (b.od.origin == h.next_booking.origin) in_history = true;
    }
    if (in_history) continue;
    const auto& nbrs =
        f.hsg->UserNeighborCities(h.user, graph::Metapath::kDeparture);
    EXPECT_EQ(std::find(nbrs.begin(), nbrs.end(), h.next_booking.origin),
              nbrs.end());
  }
}

// ------------------------------------------------------- fan-out rule --

// Pool tasks that ran while `fn` ran, read from the threadpool.tasks
// counter with telemetry switched on for the duration.
int64_t PoolTasksDuring(const std::function<void()>& fn) {
  const bool was_enabled = telemetry::Enabled();
  telemetry::SetEnabled(true);
  telemetry::Counter* tasks =
      telemetry::TelemetryRegistry::Get().GetCounter("threadpool.tasks");
  const int64_t before = tasks->Value();
  fn();
  const int64_t ran = tasks->Value() - before;
  telemetry::SetEnabled(was_enabled);
  return ran;
}

// Pool width 4 with the production fan-out rule; restores both on exit.
class WidePoolScope {
 public:
  WidePoolScope()
      : threads_(tensor::ComputeContext::Get().num_threads()),
        force_split_(tensor::ComputeContext::Get().force_split()) {
    tensor::ComputeContext::Get().SetNumThreads(4);
    tensor::ComputeContext::Get().SetForceSplit(false);
  }
  ~WidePoolScope() {
    tensor::ComputeContext::Get().SetNumThreads(threads_);
    tensor::ComputeContext::Get().SetForceSplit(force_split_);
  }

 private:
  int threads_;
  bool force_split_;
};

// At odbench's shapes (default OdnetConfig, batch 128, 200 cities) a
// training step and a serving replay stay on the calling thread on a
// 16-lane tier. The largest kernel, each expert's [128, 136] x [136, 64]
// MatMul, is 1.06 shards of work there and a split needs two; at 8 lanes it
// is 2.1 shards, so narrower tiers split it, as the rule intends.
TEST(FanOutRuleTest, OdnetStepAndReplayStayOnCallingThread) {
  if (tensor::simd::Kernels().narrow.width < 16) {
    GTEST_SKIP() << "a tier under 16 lanes gives ODNET's expert MatMuls "
                    "two shards of work";
  }
  data::FliggyConfig fc;
  fc.num_users = 1200;
  fc.num_cities = 200;
  fc.seed = 2101;
  data::FliggySimulator simulator(fc);
  const data::OdDataset dataset = simulator.Generate();
  auto hsg = BuildHsgFromDataset(dataset, simulator.atlas());
  data::TemporalFeatureIndex temporal(dataset, dataset.num_cities, 800);
  OdnetConfig config;
  OdnetModel model(hsg.get(), dataset.num_users, dataset.num_cities, config);
  data::BatchEncoder encoder(&dataset, &temporal,
                             data::SequenceSpec{config.t_long,
                                                config.t_short});
  const data::OdBatch batch = encoder.EncodeJoint(
      dataset.train_samples, 0, static_cast<size_t>(config.batch_size));
  optim::Adam optimizer(model.Parameters(), config.learning_rate);

  WidePoolScope wide;
  model.Train();
  EXPECT_EQ(PoolTasksDuring([&] {
              tensor::ArenaScope arena(tensor::BufferArena::ThreadLocal());
              Tensor loss = model.Loss(batch);
              optimizer.ZeroGrad();
              loss.Backward();
              optimizer.ClipGradNorm(5.0);
              optimizer.Step();
            }),
            0);
  model.Eval();
  model.PredictPlanned(batch);  // captures the plan
  EXPECT_EQ(PoolTasksDuring([&] { model.PredictPlanned(batch); }), 0);
}

// Work worth tens of µs a shard still fans out: a 128^3 MatMul forward and
// backward, and a dense Adam step over a 4 MB parameter.
TEST(FanOutRuleTest, LargeWorkStillFansOut) {
  WidePoolScope wide;
  util::Rng rng(5);
  Tensor a = Tensor::Randn({128, 128}, &rng, 0.1f, /*requires_grad=*/true);
  Tensor b = Tensor::Randn({128, 128}, &rng, 0.1f, /*requires_grad=*/true);
  EXPECT_GT(PoolTasksDuring([&] {
              tensor::Sum(tensor::MatMul(a, b)).Backward();
            }),
            0);
  Tensor p = Tensor::Randn({1 << 20}, &rng, 0.05f, /*requires_grad=*/true);
  tensor::Sum(tensor::Mul(p, p)).Backward();
  optim::Adam adam({p}, 1e-3);
  EXPECT_GT(PoolTasksDuring([&] { adam.Step(); }), 0);
}

}  // namespace
}  // namespace core
}  // namespace odnet
