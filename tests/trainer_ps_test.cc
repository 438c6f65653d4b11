// Tests for the sharded-embedding parameter server and the data-parallel
// trainer (DESIGN.md §14).
//
// The contract under test, in increasing integration order:
//   - GradDelta extraction/accumulation partitions a gradient exactly once
//     under any row-ownership split;
//   - ShardedAdam is bitwise identical to plain Adam for every shard count;
//   - the end-to-end training digest is a function of the config and seed
//     only — the same bits for every train_workers and embedding_shards
//     combination;
//   - a config the trainer cannot run is rejected with InvalidArgument
//     before anything is built.

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/baselines/odnet_recommender.h"
#include "src/core/config.h"
#include "src/data/fliggy_simulator.h"
#include "src/data/types.h"
#include "src/nn/sharded_embedding.h"
#include "src/optim/optimizer.h"
#include "src/optim/sharded_adam.h"
#include "src/tensor/grad_delta.h"
#include "src/tensor/tensor.h"
#include "src/util/status.h"

namespace odnet {
namespace {

using tensor::GradDelta;
using tensor::Tensor;

void ExpectBitwiseEqual(const std::vector<float>& a,
                        const std::vector<float>& b, const std::string& tag) {
  ASSERT_EQ(a.size(), b.size()) << tag;
  if (std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0) return;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << tag << " first differs at element " << i;
  }
  FAIL() << tag << " differs bitwise (but compares float-equal: signed zero)";
}

// ---------------------------------------------------------------------------
// GradDelta

void SetRowSparseGrad(const Tensor& t, const std::vector<int64_t>& rows) {
  auto* impl = t.impl();
  impl->EnsureGrad();
  const int64_t width = t.dim(1);
  for (size_t r = 0; r < rows.size(); ++r) {
    for (int64_t j = 0; j < width; ++j) {
      impl->grad[rows[r] * width + j] =
          0.05f * static_cast<float>(rows[r] + 1) +
          0.001f * static_cast<float>(j) - 0.1f;
    }
  }
  impl->MarkGradRows(rows);
}

void SetDenseGrad(const Tensor& t) {
  auto* impl = t.impl();
  impl->EnsureGrad();
  for (size_t i = 0; i < impl->grad.size(); ++i) {
    impl->grad[i] = 0.01f * static_cast<float>(i % 23) - 0.07f;
  }
  impl->MarkGradDense();
}

TEST(GradDeltaTest, RowSparseExtractCopiesOnlyTouchedRows) {
  Tensor table = Tensor::FromVector({6, 3}, std::vector<float>(18, 1.0f),
                                    /*requires_grad=*/true);
  SetRowSparseGrad(table, {1, 4});
  GradDelta delta = tensor::ExtractGradDelta(table);
  EXPECT_TRUE(delta.row_sparse);
  EXPECT_EQ(delta.width, 3);
  EXPECT_EQ(delta.rows, (std::vector<int64_t>{1, 4}));
  ASSERT_EQ(delta.values.size(), 6u);
  for (size_t r = 0; r < 2; ++r) {
    const int64_t row = delta.rows[r];
    for (int64_t j = 0; j < 3; ++j) {
      EXPECT_EQ(delta.values[r * 3 + j], table.grad()[row * 3 + j]);
    }
  }
}

TEST(GradDeltaTest, PartitionedAccumulateMatchesWholeAccumulate) {
  // Row-sparse delta from a table, dense delta from a matrix, dense delta
  // from a bias — each accumulated (a) in one want-everything pass and
  // (b) split into 3 ownership classes by row % 3. Same bits both ways.
  Tensor table = Tensor::FromVector({10, 3}, std::vector<float>(30, 0.5f),
                                    /*requires_grad=*/true);
  SetRowSparseGrad(table, {0, 3, 4, 9});
  Tensor mat = Tensor::FromVector({6, 2}, std::vector<float>(12, 0.5f),
                                  /*requires_grad=*/true);
  SetDenseGrad(mat);
  Tensor bias = Tensor::FromVector({4}, std::vector<float>(4, 0.5f),
                                   /*requires_grad=*/true);
  SetDenseGrad(bias);

  for (const Tensor& src : {table, mat, bias}) {
    GradDelta delta = tensor::ExtractGradDelta(src);
    Tensor whole = Tensor::FromVector(src.shape(), src.vec(),
                                      /*requires_grad=*/true);
    Tensor split = Tensor::FromVector(src.shape(), src.vec(),
                                      /*requires_grad=*/true);
    tensor::MarkDeltaRows(whole, delta);
    tensor::AccumulateGradDeltaRows(whole, delta, 0.25f,
                                    [](int64_t) { return true; });
    tensor::MarkDeltaRows(split, delta);
    for (int64_t part = 0; part < 3; ++part) {
      tensor::AccumulateGradDeltaRows(
          split, delta, 0.25f,
          [part](int64_t row) { return row % 3 == part; });
    }
    ExpectBitwiseEqual(whole.grad(), split.grad(), "partitioned accumulate");
  }
}

// ---------------------------------------------------------------------------
// ShardedEmbeddingStore

TEST(ShardedEmbeddingStoreTest, OwnershipPartitionsRowsExactlyOnce) {
  Tensor table = Tensor::FromVector({32, 4}, std::vector<float>(128, 0.0f));
  Tensor bias = Tensor::FromVector({4}, std::vector<float>(4, 0.0f));
  nn::ShardedEmbeddingStore::Options opts;
  opts.num_shards = 4;
  nn::ShardedEmbeddingStore store({table, bias}, opts);
  EXPECT_TRUE(store.row_sharded(0));
  EXPECT_FALSE(store.row_sharded(1));
  for (int64_t row = 0; row < 32; ++row) {
    int owners = 0;
    for (int s = 0; s < 4; ++s) owners += store.Owns(0, s, row) ? 1 : 0;
    EXPECT_EQ(owners, 1) << "row " << row;
  }
  // Ownership is a pure function of the row id: the same row maps to the
  // same shard in a second store with the same shard count.
  nn::ShardedEmbeddingStore store2({table}, opts);
  for (int64_t row = 0; row < 32; ++row) {
    EXPECT_EQ(store.ShardOfRow(row), store2.ShardOfRow(row));
  }
}

// ---------------------------------------------------------------------------
// ShardedAdam vs plain Adam, bitwise.

std::vector<Tensor> MakeOptParams() {
  auto fill = [](int64_t n, float phase) {
    std::vector<float> v(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      v[static_cast<size_t>(i)] =
          0.05f * static_cast<float>((i * 7 + 3) % 17) - 0.4f + phase;
    }
    return v;
  };
  std::vector<Tensor> params;
  params.push_back(
      Tensor::FromVector({40, 8}, fill(320, 0.0f), /*requires_grad=*/true));
  params.push_back(
      Tensor::FromVector({12, 8}, fill(96, 0.1f), /*requires_grad=*/true));
  params.push_back(
      Tensor::FromVector({8}, fill(8, 0.2f), /*requires_grad=*/true));
  params.push_back(
      Tensor::FromVector({1, 8}, fill(8, 0.3f), /*requires_grad=*/true));
  return params;
}

// Per-step gradient schedule exercising the dense-equivalent bookkeeping:
// fresh rows, decaying rows, a dense step that invalidates the active set,
// a sparse step that forces the active-set rescan, and an all-decay step.
void ApplyStepGrads(const std::vector<Tensor>& params, int step) {
  switch (step) {
    case 0:
      SetRowSparseGrad(params[0], {1, 5, 7, 38});
      break;
    case 1:
      SetRowSparseGrad(params[0], {2, 5, 30});
      break;
    case 2:
      SetDenseGrad(params[0]);
      break;
    case 3:
      SetRowSparseGrad(params[0], {0, 39});
      break;
    default:
      SetRowSparseGrad(params[0], {});
      break;
  }
  SetDenseGrad(params[1]);
  SetDenseGrad(params[2]);
  SetRowSparseGrad(params[3], {0});
}

TEST(ShardedAdamTest, BitwiseMatchesPlainAdamForEveryShardCount) {
  for (int num_shards : {1, 3, 4}) {
    std::vector<Tensor> ref_params = MakeOptParams();
    std::vector<Tensor> sharded_params = MakeOptParams();
    optim::Adam ref(ref_params, 0.01);
    nn::ShardedEmbeddingStore::Options opts;
    opts.num_shards = num_shards;
    nn::ShardedEmbeddingStore store(sharded_params, opts);
    optim::ShardedAdam sharded(&store, 0.01);
    for (int step = 0; step < 6; ++step) {
      for (Tensor& p : ref_params) p.ZeroGrad();
      for (Tensor& p : sharded_params) p.ZeroGrad();
      ApplyStepGrads(ref_params, step);
      ApplyStepGrads(sharded_params, step);
      ref.Step();
      sharded.Step();
      for (size_t i = 0; i < ref_params.size(); ++i) {
        ExpectBitwiseEqual(ref_params[i].vec(), sharded_params[i].vec(),
                           "shards=" + std::to_string(num_shards) + " step=" +
                               std::to_string(step) + " param=" +
                               std::to_string(i));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end data-parallel training.

core::OdnetConfig TinyTrainConfig() {
  core::OdnetConfig mc;
  mc.embed_dim = 8;
  mc.num_heads = 2;
  mc.expert_dim = 16;
  mc.tower_hidden = 8;
  mc.batch_size = 32;
  mc.epochs = 2;
  mc.seed = 13;
  return mc;
}

// Trains ODNET on a tiny fixed-seed Fliggy world and returns every named
// parameter's final values.
std::vector<std::pair<std::string, std::vector<float>>> TrainedParams(
    const core::OdnetConfig& mc, double* final_loss = nullptr) {
  data::FliggyConfig dc;
  dc.num_users = 60;
  dc.num_cities = 15;
  dc.seed = 7;
  data::FliggySimulator simulator(dc);
  data::OdDataset dataset = simulator.Generate();
  baselines::OdnetRecommender odnet("ODNET-ps-test", &simulator.atlas(), mc);
  util::Status status = odnet.Fit(dataset);
  EXPECT_TRUE(status.ok()) << status.ToString();
  if (final_loss != nullptr) {
    *final_loss = odnet.train_stats().final_epoch_loss;
  }
  std::vector<std::pair<std::string, std::vector<float>>> out;
  for (const auto& [name, param] : odnet.model()->NamedParameters()) {
    out.emplace_back(name, param.vec());
  }
  return out;
}

void ExpectSameTrainedParams(
    const std::vector<std::pair<std::string, std::vector<float>>>& a,
    const std::vector<std::pair<std::string, std::vector<float>>>& b,
    const std::string& tag) {
  ASSERT_EQ(a.size(), b.size()) << tag;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].first, b[i].first) << tag;
    ExpectBitwiseEqual(a[i].second, b[i].second, tag + " " + a[i].first);
  }
}

TEST(DataParallelTrainerTest, SyncDigestStableAcrossWorkersAndShards) {
  core::OdnetConfig base = TinyTrainConfig();
  base.train_workers = 2;
  base.embedding_shards = 1;
  const auto reference = TrainedParams(base);
  ASSERT_FALSE(reference.empty());
  for (int64_t workers : {2, 4}) {
    for (int64_t shards : {1, 4}) {
      if (workers == 2 && shards == 1) continue;
      core::OdnetConfig mc = TinyTrainConfig();
      mc.train_workers = workers;
      mc.embedding_shards = shards;
      ExpectSameTrainedParams(
          reference, TrainedParams(mc),
          "workers=" + std::to_string(workers) + " shards=" +
              std::to_string(shards));
    }
  }
}

TEST(DataParallelTrainerTest, SingleWorkerDispatchIgnoresShardKnobs) {
  // train_workers == 1 must run the legacy single-threaded loop bit for
  // bit, whatever the other parameter-server knobs say.
  const auto reference = TrainedParams(TinyTrainConfig());
  core::OdnetConfig mc = TinyTrainConfig();
  mc.train_workers = 1;
  mc.embedding_shards = 8;
  mc.train_grad_slices = 16;
  ExpectSameTrainedParams(reference, TrainedParams(mc),
                          "single-worker dispatch");
}

// ---------------------------------------------------------------------------
// Config validation: each rejected value fails Fit with InvalidArgument
// before anything is built.

void ExpectFitRejects(const core::OdnetConfig& mc, const std::string& what) {
  data::FliggyConfig dc;
  dc.num_users = 20;
  dc.num_cities = 10;
  dc.seed = 7;
  data::FliggySimulator simulator(dc);
  data::OdDataset dataset = simulator.Generate();
  EXPECT_EQ(core::ValidateTrainConfig(mc).code(),
            util::StatusCode::kInvalidArgument)
      << what;
  baselines::OdnetRecommender odnet("ODNET-invalid", &simulator.atlas(), mc);
  const util::Status status = odnet.Fit(dataset);
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument) << what;
  EXPECT_NE(status.message().find(what), std::string::npos)
      << status.ToString();
  EXPECT_EQ(odnet.model(), nullptr) << what;
}

TEST(TrainConfigValidationTest, AcceptsTheDefaultsAndTheParameterServer) {
  core::OdnetConfig mc;
  EXPECT_TRUE(core::ValidateTrainConfig(mc).ok());
  mc.train_workers = 4;
  mc.embedding_shards = 3;
  EXPECT_TRUE(core::ValidateTrainConfig(mc).ok());
}

TEST(TrainConfigValidationTest, RejectsPsModeOtherThanSync) {
  core::OdnetConfig mc = TinyTrainConfig();
  mc.train_workers = 2;
  mc.ps_mode = "stale";
  ExpectFitRejects(mc, "ps_mode");
}

TEST(TrainConfigValidationTest, RejectsZeroEmbeddingShards) {
  core::OdnetConfig mc = TinyTrainConfig();
  mc.train_workers = 2;
  mc.embedding_shards = 0;
  ExpectFitRejects(mc, "embedding_shards");
}

TEST(TrainConfigValidationTest, RejectsZeroTrainWorkers) {
  core::OdnetConfig mc = TinyTrainConfig();
  mc.train_workers = 0;
  ExpectFitRejects(mc, "train_workers");
}

TEST(TrainConfigValidationTest, RejectsZeroGradSlices) {
  core::OdnetConfig mc = TinyTrainConfig();
  mc.train_grad_slices = 0;
  ExpectFitRejects(mc, "train_grad_slices");
}

TEST(TrainConfigValidationTest, RejectsZeroBatchSize) {
  core::OdnetConfig mc = TinyTrainConfig();
  mc.batch_size = 0;
  ExpectFitRejects(mc, "batch_size");
}

TEST(TrainConfigValidationTest, RejectsZeroEpochs) {
  core::OdnetConfig mc = TinyTrainConfig();
  mc.epochs = 0;
  ExpectFitRejects(mc, "epochs must be >= 1, got 0");
  mc.epochs = -3;
  ExpectFitRejects(mc, "epochs must be >= 1, got -3");
}

}  // namespace
}  // namespace odnet
