#include "src/optim/optimizer.h"

#include <cmath>
#include <cstring>
#include <vector>

#include "gtest/gtest.h"
#include "src/tensor/compute_context.h"
#include "src/tensor/ops.h"

namespace odnet {
namespace optim {
namespace {

using tensor::Tensor;

// Minimizes f(x) = sum((x - target)^2) with Adam and returns the final x
// values.
std::vector<float> MinimizeQuadratic(int steps, double lr) {
  Tensor x = Tensor::FromVector({3}, {5.0f, -4.0f, 2.0f},
                                /*requires_grad=*/true);
  Tensor target = Tensor::FromVector({3}, {1.0f, 2.0f, -1.0f});
  Adam opt({x}, lr);
  for (int i = 0; i < steps; ++i) {
    Tensor diff = tensor::Sub(x, target);
    Tensor loss = tensor::Sum(tensor::Mul(diff, diff));
    opt.ZeroGrad();
    loss.Backward();
    opt.Step();
  }
  return x.vec();
}

TEST(AdamTest, ConvergesOnQuadratic) {
  auto x = MinimizeQuadratic(400, 0.05);
  EXPECT_NEAR(x[0], 1.0f, 1e-2f);
  EXPECT_NEAR(x[1], 2.0f, 1e-2f);
  EXPECT_NEAR(x[2], -1.0f, 1e-2f);
}

TEST(AdamTest, FirstStepIsLearningRateSized) {
  // Bias correction makes the very first Adam update ~= lr * sign(grad).
  Tensor x = Tensor::FromVector({1}, {1.0f}, true);
  Adam opt({x}, 0.01);
  Tensor loss = tensor::Sum(tensor::MulScalar(x, 3.0f));
  opt.ZeroGrad();
  loss.Backward();
  opt.Step();
  EXPECT_NEAR(x.vec()[0], 1.0f - 0.01f, 1e-4f);
}

TEST(OptimizerTest, ClipGradNormRescales) {
  Tensor x = Tensor::FromVector({2}, {0.0f, 0.0f}, true);
  Adam opt({x}, 0.1);
  Tensor grad_source = Tensor::FromVector({2}, {3.0f, 4.0f});
  Tensor loss = tensor::Sum(tensor::Mul(x, grad_source));
  opt.ZeroGrad();
  loss.Backward();
  double norm = opt.ClipGradNorm(1.0);  // pre-clip norm = 5
  EXPECT_NEAR(norm, 5.0, 1e-5);
  double post = std::sqrt(x.grad()[0] * x.grad()[0] +
                          x.grad()[1] * x.grad()[1]);
  EXPECT_NEAR(post, 1.0, 1e-4);
}

TEST(OptimizerTest, ClipGradNormNoOpBelowThreshold) {
  Tensor x = Tensor::FromVector({1}, {0.0f}, true);
  Adam opt({x}, 0.1);
  Tensor loss = tensor::Sum(tensor::MulScalar(x, 0.5f));
  opt.ZeroGrad();
  loss.Backward();
  opt.ClipGradNorm(10.0);
  EXPECT_NEAR(x.grad()[0], 0.5f, 1e-6f);
}

// Scripted training loop over a [6, 2] embedding table: a mix of sparse
// lookup steps (with duplicates and never-touched rows), one fully dense
// step (so the touched-row metadata drops and the optimizer rebuilds its
// active-row set), and gradient clipping tight enough to actually rescale.
// Returns the final weights.
std::vector<float> RunScriptedEmbeddingTraining(Adam* opt,
                                                tensor::Tensor table) {
  const std::vector<std::vector<int64_t>> batches = {
      {0, 2, 2}, {1}, {/*dense step*/}, {0, 5}, {2, 2, 2, 1}, {4}};
  int step = 0;
  for (const auto& idx : batches) {
    opt->ZeroGrad();
    if (step == 2) {
      tensor::Sum(tensor::Mul(table, table)).Backward();
    } else {
      tensor::Tensor out = tensor::EmbeddingLookup(
          table, idx, {static_cast<int64_t>(idx.size())});
      tensor::Sum(tensor::MulScalar(out, 1.5f + static_cast<float>(step)))
          .Backward();
    }
    opt->ClipGradNorm(0.5);
    opt->Step();
    ++step;
  }
  return table.vec();
}

tensor::Tensor ScriptedTable() {
  return Tensor::FromVector({6, 2},
                            {0.5f, -0.25f, 1.0f, 2.0f, -1.5f, 0.75f, 0.1f,
                             -0.9f, 3.0f, -2.0f, 0.4f, 0.6f},
                            /*requires_grad=*/true);
}

void ExpectBitwiseEqual(const std::vector<float>& a,
                        const std::vector<float>& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)));
}

TEST(AdamTest, DenseEquivalentSparseModeIsBitwiseDense) {
  Tensor t1 = ScriptedTable();
  Adam a1({t1}, 0.05);
  auto sparse = RunScriptedEmbeddingTraining(&a1, t1);

  Tensor t2 = ScriptedTable();
  Adam a2({t2}, 0.05);
  a2.set_force_dense(true);  // the pre-sparse dense code path
  auto dense = RunScriptedEmbeddingTraining(&a2, t2);

  ExpectBitwiseEqual(sparse, dense);
}

TEST(OptimizerTest, ClipGradNormThreadCountAndSparsityInvariant) {
  auto& ctx = tensor::ComputeContext::Get();
  const int prev_threads = ctx.num_threads();
  const bool prev_force_split = ctx.force_split();

  auto run = [](bool force_dense) {
    // Mixed parameter set: a row-sparse embedding grad plus a dense one.
    Tensor table = ScriptedTable();
    Tensor w = Tensor::FromVector({4}, {2.0f, -3.0f, 4.0f, -5.0f},
                                  /*requires_grad=*/true);
    Adam opt({table, w}, 0.1);
    opt.set_force_dense(force_dense);
    opt.ZeroGrad();
    tensor::Tensor out = tensor::EmbeddingLookup(table, {0, 3, 3, 5}, {4});
    tensor::Tensor loss = tensor::Add(tensor::Sum(tensor::Mul(out, out)),
                                      tensor::Sum(tensor::Mul(w, w)));
    loss.Backward();
    double norm = opt.ClipGradNorm(1.0);
    std::vector<float> grads = table.grad();
    grads.insert(grads.end(), w.grad().begin(), w.grad().end());
    return std::make_pair(norm, grads);
  };

  ctx.SetNumThreads(1);
  auto [norm_ref, grads_ref] = run(/*force_dense=*/false);
  for (int threads : {1, 2, 8}) {
    for (bool force_split : {true, false}) {
      ctx.SetNumThreads(threads);
      ctx.SetForceSplit(force_split);
      auto [norm_sparse, grads_sparse] = run(/*force_dense=*/false);
      auto [norm_dense, grads_dense] = run(/*force_dense=*/true);
      EXPECT_EQ(norm_ref, norm_sparse);
      EXPECT_EQ(norm_ref, norm_dense);
      ExpectBitwiseEqual(grads_ref, grads_sparse);
      ExpectBitwiseEqual(grads_ref, grads_dense);
    }
  }

  ctx.SetNumThreads(prev_threads);
  ctx.SetForceSplit(prev_force_split);
}

TEST(AdamTest, LossDecreasesOnRegression) {
  util::Rng rng(21);
  Tensor w = Tensor::Randn({4, 1}, &rng, 0.5f, true);
  Tensor x = Tensor::Randn({32, 4}, &rng);
  Tensor y = Tensor::Randn({32, 1}, &rng);
  Adam opt({w}, 0.05);
  auto loss_value = [&] {
    return tensor::MseLoss(tensor::MatMul(x, w), y).item();
  };
  double initial = loss_value();
  for (int step = 0; step < 60; ++step) {
    Tensor loss = tensor::MseLoss(tensor::MatMul(x, w), y);
    opt.ZeroGrad();
    loss.Backward();
    opt.Step();
  }
  EXPECT_LT(loss_value(), initial * 0.8);
}

}  // namespace
}  // namespace optim
}  // namespace odnet
