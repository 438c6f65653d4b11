#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/baselines/gbdt.h"
#include "src/baselines/most_pop.h"
#include "src/baselines/odnet_recommender.h"
#include "src/baselines/sequential_nets.h"
#include "src/baselines/stl_variants.h"
#include "src/baselines/stp_udgat.h"
#include "src/core/hsg_builder.h"
#include "src/data/fliggy_simulator.h"
#include "src/serving/evaluator.h"

namespace odnet {
namespace baselines {
namespace {

struct Fixture {
  Fixture() : simulator(MakeConfig()), dataset(simulator.Generate()) {
    locations = core::AtlasLocations(simulator.atlas());
  }
  static data::FliggyConfig MakeConfig() {
    data::FliggyConfig config;
    config.num_users = 400;
    config.num_cities = 30;
    config.seed = 23;
    return config;
  }
  data::FliggySimulator simulator;
  data::OdDataset dataset;
  std::vector<graph::CityLocation> locations;
};

Fixture& SharedFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

SingleTaskConfig FastConfig() {
  SingleTaskConfig config;
  config.epochs = 3;
  return config;
}

// ------------------------------------------------------------- MostPop --

TEST(MostPopTest, ScoresTrackPopularity) {
  Fixture& f = SharedFixture();
  MostPop method;
  ASSERT_TRUE(method.Fit(f.dataset).ok());
  // Find the most and least popular destination by counting.
  std::vector<int64_t> counts(static_cast<size_t>(f.dataset.num_cities), 0);
  for (const data::UserHistory& h : f.dataset.histories) {
    for (const data::Booking& b : h.long_term) {
      counts[static_cast<size_t>(b.od.destination)]++;
    }
  }
  int64_t hot = 0;
  int64_t cold = 0;
  for (int64_t c = 0; c < f.dataset.num_cities; ++c) {
    if (counts[static_cast<size_t>(c)] > counts[static_cast<size_t>(hot)]) {
      hot = c;
    }
    if (counts[static_cast<size_t>(c)] < counts[static_cast<size_t>(cold)]) {
      cold = c;
    }
  }
  data::Sample hot_sample{0, {1, hot}, 0, 0, data::SampleKind::kNegNeg, 0};
  data::Sample cold_sample{0, {1, cold}, 0, 0, data::SampleKind::kNegNeg, 0};
  auto scores = method.Score(f.dataset, {hot_sample, cold_sample});
  EXPECT_GT(scores[0].p_d, scores[1].p_d);
}

TEST(MostPopTest, CurrentCityGetsTopOriginScore) {
  Fixture& f = SharedFixture();
  MostPop method;
  ASSERT_TRUE(method.Fit(f.dataset).ok());
  const data::UserHistory& h = f.dataset.histories[0];
  data::Sample current{h.user, {h.current_city, 1}, 0, 0,
                       data::SampleKind::kNegNeg, 0};
  auto scores = method.Score(f.dataset, {current});
  EXPECT_DOUBLE_EQ(scores[0].p_o, 1.0);
}

// ----------------------------------------------------------------- GBDT --

TEST(GbdtTreeTest, FitsSimpleThresholdRule) {
  // One feature, y = 1 iff x > 0.5: a depth-1 tree should nail it.
  std::vector<float> features;
  std::vector<double> grad;
  std::vector<double> hess;
  std::vector<int64_t> rows;
  util::Rng rng(4);
  for (int64_t i = 0; i < 200; ++i) {
    float x = static_cast<float>(rng.UniformDouble());
    features.push_back(x);
    // Logistic-loss gradients around margin 0: grad = p - y = 0.5 - y.
    grad.push_back(x > 0.5f ? -0.5 : 0.5);
    hess.push_back(0.25);
    rows.push_back(i);
  }
  GbdtConfig config;
  config.max_depth = 2;
  config.min_samples_leaf = 5;
  RegressionTree tree;
  tree.Fit(features, 1, grad, hess, rows, config);
  float lo = 0.2f;
  float hi = 0.8f;
  EXPECT_LT(tree.Predict(&lo), 0.0);  // pushes toward y=0
  EXPECT_GT(tree.Predict(&hi), 0.0);  // pushes toward y=1
}

TEST(GbdtClassifierTest, LearnsXorWithDepth2) {
  // XOR needs interaction splits: depth-2 trees suffice.
  std::vector<float> features;
  std::vector<float> labels;
  util::Rng rng(5);
  for (int64_t i = 0; i < 400; ++i) {
    float a = rng.Bernoulli(0.5) ? 1.0f : 0.0f;
    float b = rng.Bernoulli(0.5) ? 1.0f : 0.0f;
    features.push_back(a);
    features.push_back(b);
    labels.push_back(a != b ? 1.0f : 0.0f);
  }
  GbdtConfig config;
  config.num_trees = 20;
  config.max_depth = 2;
  config.min_samples_leaf = 5;
  config.subsample = 1.0;
  GbdtClassifier model(config);
  model.Fit(features, 2, labels);
  float q00[] = {0, 0};
  float q01[] = {0, 1};
  float q10[] = {1, 0};
  float q11[] = {1, 1};
  EXPECT_LT(model.PredictProba(q00), 0.3);
  EXPECT_GT(model.PredictProba(q01), 0.7);
  EXPECT_GT(model.PredictProba(q10), 0.7);
  EXPECT_LT(model.PredictProba(q11), 0.3);
}

TEST(GbdtClassifierTest, ConstantLabelsYieldPrior) {
  std::vector<float> features{1, 2, 3, 4};
  std::vector<float> labels{1, 1, 1, 1};
  GbdtClassifier model(GbdtConfig{});
  model.Fit(features, 1, labels);
  float x = 2.5f;
  EXPECT_GT(model.PredictProba(&x), 0.95);
}

TEST(GbdtRecommenderTest, BeatsChanceOnDataset) {
  Fixture& f = SharedFixture();
  GbdtRecommender method{GbdtConfig{}};
  ASSERT_TRUE(method.Fit(f.dataset).ok());
  serving::EvalOptions options;
  options.num_candidates = 15;
  metrics::OdMetrics m =
      serving::EvaluateOdRecommender(&method, f.dataset, options);
  EXPECT_GT(m.auc_o, 0.7);
  EXPECT_GT(m.auc_d, 0.6);
}

// ---------------------------------------------- single-task framework --

TEST(SingleTaskTest, ScoreRequiresFit) {
  LstmRecommender method(FastConfig());
  EXPECT_DEATH(method.Score(SharedFixture().dataset, {}), "Fit");
}

TEST(SingleTaskTest, DOnlyModeReportsNeutralOrigin) {
  Fixture& f = SharedFixture();
  SingleTaskConfig config = FastConfig();
  config.d_only = true;
  LstmRecommender method(config);
  ASSERT_TRUE(method.Fit(f.dataset).ok());
  auto scores = method.Score(
      f.dataset, {f.dataset.test_samples.begin(),
                  f.dataset.test_samples.begin() + 5});
  for (const OdScore& s : scores) {
    EXPECT_DOUBLE_EQ(s.p_o, 0.5);
    EXPECT_NE(s.p_d, 0.5);
  }
}

// One parameterized battery over every neural baseline: fit one epoch,
// score, verify probabilities are valid and the model beats random AUC.
enum class MethodKind {
  kLstm,
  kStgn,
  kLstpm,
  kStodPpa,
  kStpUdgat,
  kStlNoGraph,
  kStlWithGraph,
  kOdnet,
  kOdnetNoGraph
};

std::unique_ptr<OdRecommender> MakeMethod(MethodKind kind, Fixture& f) {
  SingleTaskConfig stc = FastConfig();
  switch (kind) {
    case MethodKind::kLstm:
      return std::make_unique<LstmRecommender>(stc);
    case MethodKind::kStgn:
      return std::make_unique<StgnRecommender>(stc);
    case MethodKind::kLstpm:
      return std::make_unique<LstpmRecommender>(stc);
    case MethodKind::kStodPpa:
      return std::make_unique<StodPpaRecommender>(stc);
    case MethodKind::kStpUdgat:
      return std::make_unique<StpUdgatRecommender>(stc, f.locations);
    case MethodKind::kStlNoGraph:
      return std::make_unique<StlRecommender>(stc, false, f.locations);
    case MethodKind::kStlWithGraph:
      return std::make_unique<StlRecommender>(stc, true, f.locations);
    case MethodKind::kOdnet: {
      core::OdnetConfig config;
      config.epochs = 2;
      return std::make_unique<OdnetRecommender>("ODNET", &f.simulator.atlas(),
                                                config);
    }
    case MethodKind::kOdnetNoGraph: {
      core::OdnetConfig config;
      config.epochs = 2;
      config.use_hsgc = false;
      config.learning_rate = 0.003;
      return std::make_unique<OdnetRecommender>("ODNET-G",
                                                &f.simulator.atlas(), config);
    }
  }
  return nullptr;
}

class NeuralBaselineTest : public ::testing::TestWithParam<MethodKind> {};

TEST_P(NeuralBaselineTest, FitsAndScoresValidly) {
  Fixture& f = SharedFixture();
  std::unique_ptr<OdRecommender> method = MakeMethod(GetParam(), f);
  ASSERT_TRUE(method->Fit(f.dataset).ok());
  auto scores = method->Score(f.dataset, f.dataset.test_samples);
  ASSERT_EQ(scores.size(), f.dataset.test_samples.size());
  for (const OdScore& s : scores) {
    EXPECT_GE(s.p_o, 0.0);
    EXPECT_LE(s.p_o, 1.0);
    EXPECT_GE(s.p_d, 0.0);
    EXPECT_LE(s.p_d, 1.0);
    EXPECT_TRUE(std::isfinite(s.p_o));
    EXPECT_TRUE(std::isfinite(s.p_d));
  }
  // Even one epoch must beat random on this planted-signal data.
  serving::EvalOptions options;
  options.num_candidates = 15;
  metrics::OdMetrics m =
      serving::EvaluateOdRecommender(method.get(), f.dataset, options);
  EXPECT_GT(m.auc_o, 0.55) << method->name();
  EXPECT_GT(m.auc_d, 0.53) << method->name();
}

INSTANTIATE_TEST_SUITE_P(
    AllNeural, NeuralBaselineTest,
    ::testing::Values(MethodKind::kLstm, MethodKind::kStgn,
                      MethodKind::kLstpm, MethodKind::kStodPpa,
                      MethodKind::kStpUdgat, MethodKind::kStlNoGraph,
                      MethodKind::kStlWithGraph, MethodKind::kOdnet,
                      MethodKind::kOdnetNoGraph));

// ------------------------------------------------------------ STP views --

TEST(StpUdgatTest, SpatialViewPicksNearestCities) {
  std::vector<graph::CityLocation> locations = {
      {0, 0}, {0, 1}, {0, 2}, {0, 10}};
  CityGraphView view = BuildSpatialView(locations, 2);
  EXPECT_EQ(view.num_nodes, 4);
  // City 0's two nearest are 1 and 2, not 3.
  EXPECT_EQ(view.neighbors[0], 1);
  EXPECT_EQ(view.neighbors[1], 2);
  EXPECT_EQ(view.pad[0], 1.0f);
}

TEST(StpUdgatTest, PreferenceViewCountsCoOccurrence) {
  data::OdDataset dataset;
  dataset.num_users = 2;
  dataset.num_cities = 4;
  data::UserHistory a;
  a.user = 0;
  a.long_term = {{{0, 1}, 1}, {{0, 2}, 2}};
  data::UserHistory b;
  b.user = 1;
  b.long_term = {{{0, 1}, 1}, {{0, 3}, 2}};
  dataset.histories = {a, b};
  CityGraphView view = BuildPreferenceView(dataset, 4, /*origin_role=*/false,
                                           /*cap=*/3);
  // Destination 1 co-occurs with 2 (user a) and 3 (user b).
  std::set<int64_t> nbrs;
  for (int64_t j = 0; j < 3; ++j) {
    if (view.pad[static_cast<size_t>(1 * 3 + j)] > 0.5f) {
      nbrs.insert(view.neighbors[static_cast<size_t>(1 * 3 + j)]);
    }
  }
  EXPECT_EQ(nbrs, (std::set<int64_t>{2, 3}));
}

TEST(StpUdgatTest, TemporalViewRespectsWindow) {
  data::OdDataset dataset;
  dataset.num_users = 1;
  dataset.num_cities = 3;
  data::UserHistory h;
  h.user = 0;
  h.long_term = {{{0, 1}, 0}, {{0, 2}, 100}};  // 100 days apart
  dataset.histories = {h};
  CityGraphView narrow = BuildTemporalView(dataset, 3, false, 30, 2);
  // Too far apart for a 30-day window: no temporal edge between 1 and 2.
  EXPECT_EQ(narrow.pad[static_cast<size_t>(1 * 2 + 0)], 0.0f);
  CityGraphView wide = BuildTemporalView(dataset, 3, false, 365, 2);
  EXPECT_EQ(wide.pad[static_cast<size_t>(1 * 2 + 0)], 1.0f);
}

// --------------------------------------------------------------- ODNET --

TEST(OdnetRecommenderTest, ThetaExposedAfterFit) {
  Fixture& f = SharedFixture();
  core::OdnetConfig config;
  config.epochs = 1;
  OdnetRecommender method("ODNET", &f.simulator.atlas(), config);
  EXPECT_DOUBLE_EQ(method.theta(), 0.5);  // before fit: neutral blend
  ASSERT_TRUE(method.Fit(f.dataset).ok());
  EXPECT_GT(method.theta(), 0.3);
  EXPECT_LT(method.theta(), 0.7);
}

TEST(OdnetRecommenderTest, CombinedScoreUsesTheta) {
  Fixture& f = SharedFixture();
  core::OdnetConfig config;
  config.epochs = 1;
  OdnetRecommender method("ODNET", &f.simulator.atlas(), config);
  ASSERT_TRUE(method.Fit(f.dataset).ok());
  OdScore s{0.8, 0.2};
  double t = method.theta();
  EXPECT_NEAR(method.CombinedScore(s), t * 0.8 + (1 - t) * 0.2, 1e-12);
}

// ------------------------------------------------------- pure scoring --

// Scores `rows` by `method` in chunks of `chunk` rows after shuffling them;
// returns the scores in the original row order.
std::vector<OdScore> ScoreShuffledInChunks(
    OdRecommender* method, const data::OdDataset& dataset,
    const std::vector<data::Sample>& rows, size_t chunk, uint64_t seed) {
  std::vector<size_t> order(rows.size());
  std::iota(order.begin(), order.end(), size_t{0});
  util::Rng rng(seed);
  rng.Shuffle(&order);
  std::vector<OdScore> out(rows.size());
  for (size_t begin = 0; begin < order.size(); begin += chunk) {
    const size_t end = std::min(begin + chunk, order.size());
    std::vector<data::Sample> part;
    for (size_t i = begin; i < end; ++i) part.push_back(rows[order[i]]);
    const std::vector<OdScore> scores = method->Score(dataset, part);
    for (size_t i = begin; i < end; ++i) out[order[i]] = scores[i - begin];
  }
  return out;
}

// With the HSGC's inference tables a row's score depends only on the row
// and the weights: shuffled and re-chunked rows score bitwise as in one
// call (which runs in 128-row batches and a ragged tail).
void ExpectRechunkedRowsScoreLikeOneCall(OdRecommender* method) {
  Fixture& f = SharedFixture();
  ASSERT_TRUE(method->Fit(f.dataset).ok());
  const size_t n = std::min<size_t>(300, f.dataset.test_samples.size());
  const std::vector<data::Sample> rows(f.dataset.test_samples.begin(),
                                       f.dataset.test_samples.begin() + n);
  const std::vector<OdScore> whole = method->Score(f.dataset, rows);
  for (size_t chunk : {size_t{1}, size_t{7}, size_t{59}, size_t{128}}) {
    const std::vector<OdScore> got =
        ScoreShuffledInChunks(method, f.dataset, rows, chunk, 1000 + chunk);
    for (size_t i = 0; i < n; ++i) {
      if (got[i].p_o != whole[i].p_o || got[i].p_d != whole[i].p_d) {
        ADD_FAILURE() << method->name() << " chunks of " << chunk << ", row "
                      << i << ": (" << got[i].p_o << ", " << got[i].p_d
                      << ") vs one call (" << whole[i].p_o << ", "
                      << whole[i].p_d << ")";
        break;
      }
    }
  }
}

TEST(PureScoringTest, OdnetRechunkedRowsScoreLikeOneCall) {
  core::OdnetConfig config;
  config.epochs = 1;
  OdnetRecommender method("ODNET", &SharedFixture().simulator.atlas(),
                          config);
  ExpectRechunkedRowsScoreLikeOneCall(&method);
}

TEST(PureScoringTest, StlWithGraphRechunkedRowsScoreLikeOneCall) {
  SingleTaskConfig config;
  config.epochs = 1;
  StlRecommender method(config, /*use_hsgc=*/true, SharedFixture().locations);
  ExpectRechunkedRowsScoreLikeOneCall(&method);
}

}  // namespace
}  // namespace baselines
}  // namespace odnet
