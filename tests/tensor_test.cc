#include "src/tensor/tensor.h"

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "gtest/gtest.h"
#include "src/tensor/compute_context.h"
#include "src/tensor/ops.h"
#include "src/tensor/shape.h"
#include "tests/test_util.h"

namespace odnet {
namespace tensor {
namespace {

using ::odnet::testing::ExpectGradCheck;
using ::odnet::testing::ExpectTensorNear;

// ---------------------------------------------------------------- Shape --

TEST(ShapeTest, NumelScalarIsOne) { EXPECT_EQ(Numel({}), 1); }

TEST(ShapeTest, NumelProduct) { EXPECT_EQ(Numel({2, 3, 4}), 24); }

TEST(ShapeTest, ContiguousStridesRowMajor) {
  auto strides = ContiguousStrides({2, 3, 4});
  EXPECT_EQ(strides, (std::vector<int64_t>{12, 4, 1}));
}

TEST(ShapeTest, BroadcastCompatible) {
  auto result = BroadcastShapes({2, 1, 4}, {3, 1});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), (Shape{2, 3, 4}));
}

TEST(ShapeTest, BroadcastScalar) {
  auto result = BroadcastShapes({}, {5, 2});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), (Shape{5, 2}));
}

TEST(ShapeTest, BroadcastIncompatible) {
  auto result = BroadcastShapes({2, 3}, {4, 3});
  EXPECT_FALSE(result.ok());
}

TEST(ShapeTest, IsBroadcastableTo) {
  EXPECT_TRUE(IsBroadcastableTo({1, 4}, {3, 4}));
  EXPECT_TRUE(IsBroadcastableTo({4}, {3, 4}));
  EXPECT_FALSE(IsBroadcastableTo({3, 4}, {4}));
  EXPECT_FALSE(IsBroadcastableTo({2, 4}, {3, 4}));
}

// --------------------------------------------------------------- Tensor --

TEST(TensorTest, ZerosHasCorrectShapeAndValues) {
  Tensor t = Tensor::Zeros({2, 3});
  EXPECT_EQ(t.shape(), (Shape{2, 3}));
  EXPECT_EQ(t.numel(), 6);
  for (int64_t i = 0; i < 6; ++i) EXPECT_EQ(t.data()[i], 0.0f);
}

TEST(TensorTest, FromVectorRoundTrip) {
  Tensor t = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.at({0, 0}), 1.0f);
  EXPECT_EQ(t.at({0, 1}), 2.0f);
  EXPECT_EQ(t.at({1, 0}), 3.0f);
  EXPECT_EQ(t.at({1, 1}), 4.0f);
}

TEST(TensorTest, ScalarItem) {
  EXPECT_FLOAT_EQ(Tensor::Scalar(2.5f).item(), 2.5f);
}

TEST(TensorTest, CopyAliasesStorage) {
  Tensor a = Tensor::Zeros({3});
  Tensor b = a;
  b.mutable_data()[0] = 7.0f;
  EXPECT_EQ(a.data()[0], 7.0f);
  EXPECT_TRUE(a.IsSameAs(b));
}

TEST(TensorTest, CloneIsDeep) {
  Tensor a = Tensor::Zeros({3});
  Tensor b = a.Clone();
  b.mutable_data()[0] = 7.0f;
  EXPECT_EQ(a.data()[0], 0.0f);
  EXPECT_FALSE(a.IsSameAs(b));
}

TEST(TensorTest, RandnIsDeterministic) {
  util::Rng rng1(7);
  util::Rng rng2(7);
  Tensor a = Tensor::Randn({4, 4}, &rng1);
  Tensor b = Tensor::Randn({4, 4}, &rng2);
  for (int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_EQ(a.data()[i], b.data()[i]);
  }
}

TEST(TensorTest, UniformRespectsRange) {
  util::Rng rng(3);
  Tensor t = Tensor::Uniform({100}, &rng, -0.5f, 0.5f);
  for (int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_GE(t.data()[i], -0.5f);
    EXPECT_LT(t.data()[i], 0.5f);
  }
}

// ------------------------------------------------------- Forward values --

TEST(OpsTest, AddSameShape) {
  Tensor a = Tensor::FromVector({3}, {1, 2, 3});
  Tensor b = Tensor::FromVector({3}, {10, 20, 30});
  ExpectTensorNear(Add(a, b), {11, 22, 33});
}

TEST(OpsTest, AddBroadcastRow) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3}, {10, 20, 30});
  ExpectTensorNear(Add(a, b), {11, 22, 33, 14, 25, 36});
}

TEST(OpsTest, AddBroadcastColumn) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({2, 1}, {100, 200});
  ExpectTensorNear(Add(a, b), {101, 102, 103, 204, 205, 206});
}

TEST(OpsTest, MulBroadcast3d) {
  Tensor a = Tensor::FromVector({2, 1, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({2, 1}, {10, 100});
  Tensor c = Mul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2, 2}));
  ExpectTensorNear(c, {10, 20, 100, 200, 30, 40, 300, 400});
}

TEST(OpsTest, SubDivValues) {
  Tensor a = Tensor::FromVector({2}, {10, 9});
  Tensor b = Tensor::FromVector({2}, {4, 3});
  ExpectTensorNear(Sub(a, b), {6, 6});
  ExpectTensorNear(Div(a, b), {2.5f, 3.0f});
}

TEST(OpsTest, ScalarOps) {
  Tensor a = Tensor::FromVector({2}, {1, -2});
  ExpectTensorNear(AddScalar(a, 5), {6, 3});
  ExpectTensorNear(MulScalar(a, -3), {-3, 6});
  ExpectTensorNear(Neg(a), {-1, 2});
}

TEST(OpsTest, ReluClampsNegatives) {
  Tensor a = Tensor::FromVector({4}, {-1, 0, 2, -3});
  ExpectTensorNear(Relu(a), {0, 0, 2, 0});
}

TEST(OpsTest, LeakyReluSlope) {
  Tensor a = Tensor::FromVector({2}, {-10, 10});
  ExpectTensorNear(LeakyRelu(a, 0.1f), {-1, 10});
}

TEST(OpsTest, SigmoidValues) {
  Tensor a = Tensor::FromVector({3}, {0, 100, -100});
  Tensor s = Sigmoid(a);
  EXPECT_NEAR(s.data()[0], 0.5f, 1e-6f);
  EXPECT_NEAR(s.data()[1], 1.0f, 1e-6f);
  EXPECT_NEAR(s.data()[2], 0.0f, 1e-6f);
}

TEST(OpsTest, TanhExpLogValues) {
  Tensor a = Tensor::FromVector({2}, {0, 1});
  EXPECT_NEAR(Tanh(a).data()[1], std::tanh(1.0f), 1e-6f);
  EXPECT_NEAR(Exp(a).data()[1], std::exp(1.0f), 1e-5f);
  Tensor b = Tensor::FromVector({2}, {1.0f, static_cast<float>(M_E)});
  EXPECT_NEAR(Log(b).data()[0], 0.0f, 1e-6f);
  EXPECT_NEAR(Log(b).data()[1], 1.0f, 1e-6f);
}

TEST(OpsTest, MatMul2d) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2}));
  ExpectTensorNear(c, {58, 64, 139, 154});
}

TEST(OpsTest, MatMulBatched) {
  Tensor a = Tensor::FromVector({2, 1, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({2, 2, 1}, {5, 6, 7, 8});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 1, 1}));
  ExpectTensorNear(c, {17, 53});
}

TEST(OpsTest, MatMulBatchedLhsSharedRhs) {
  Tensor a = Tensor::FromVector({2, 1, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({2, 2}, {1, 0, 0, 1});  // identity
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 1, 2}));
  ExpectTensorNear(c, {1, 2, 3, 4});
}

TEST(OpsTest, TransposeLast2) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = TransposeLast2(a);
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  ExpectTensorNear(t, {1, 4, 2, 5, 3, 6});
}

TEST(OpsTest, TransposeBatched) {
  Tensor a = Tensor::FromVector({2, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor t = TransposeLast2(a);
  ExpectTensorNear(t, {1, 3, 2, 4, 5, 7, 6, 8});
}

TEST(OpsTest, ReshapePreservesData) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = Reshape(a, {3, 2});
  EXPECT_EQ(r.shape(), (Shape{3, 2}));
  ExpectTensorNear(r, {1, 2, 3, 4, 5, 6});
}

TEST(OpsTest, ConcatLastAxis) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({2, 1}, {9, 10});
  Tensor c = Concat({a, b}, -1);
  EXPECT_EQ(c.shape(), (Shape{2, 3}));
  ExpectTensorNear(c, {1, 2, 9, 3, 4, 10});
}

TEST(OpsTest, ConcatAxis0) {
  Tensor a = Tensor::FromVector({1, 2}, {1, 2});
  Tensor b = Tensor::FromVector({2, 2}, {3, 4, 5, 6});
  Tensor c = Concat({a, b}, 0);
  EXPECT_EQ(c.shape(), (Shape{3, 2}));
  ExpectTensorNear(c, {1, 2, 3, 4, 5, 6});
}

TEST(OpsTest, SliceMiddle) {
  Tensor a = Tensor::FromVector({4, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor s = Slice(a, 0, 1, 2);
  EXPECT_EQ(s.shape(), (Shape{2, 2}));
  ExpectTensorNear(s, {3, 4, 5, 6});
}

TEST(OpsTest, SliceLastAxis) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor s = Slice(a, 1, 2, 1);
  EXPECT_EQ(s.shape(), (Shape{2, 1}));
  ExpectTensorNear(s, {3, 6});
}

TEST(OpsTest, StackMakesLeadingAxis) {
  Tensor a = Tensor::FromVector({2}, {1, 2});
  Tensor b = Tensor::FromVector({2}, {3, 4});
  Tensor s = Stack({a, b});
  EXPECT_EQ(s.shape(), (Shape{2, 2}));
  ExpectTensorNear(s, {1, 2, 3, 4});
}

TEST(OpsTest, EmbeddingLookupGathersRows) {
  Tensor table = Tensor::FromVector({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor out = EmbeddingLookup(table, {2, 0, 2}, {3});
  EXPECT_EQ(out.shape(), (Shape{3, 2}));
  ExpectTensorNear(out, {5, 6, 1, 2, 5, 6});
}

TEST(OpsTest, EmbeddingLookup2dIndexShape) {
  Tensor table = Tensor::FromVector({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor out = EmbeddingLookup(table, {0, 1, 1, 2}, {2, 2});
  EXPECT_EQ(out.shape(), (Shape{2, 2, 2}));
  ExpectTensorNear(out, {1, 2, 3, 4, 3, 4, 5, 6});
}

TEST(OpsTest, EmbeddingLookupDuplicateIndicesAccumulate) {
  // Duplicated rows must sum their upstream gradients, under both backends.
  for (Backend backend : {Backend::kOptimized, Backend::kReference}) {
    BackendGuard guard(backend);
    Tensor table = Tensor::FromVector({4, 2}, {1, 2, 3, 4, 5, 6, 7, 8},
                                      /*requires_grad=*/true);
    Tensor out = EmbeddingLookup(table, {2, 0, 2, 2}, {4});
    Tensor w = Tensor::FromVector({4, 2}, {1, 1, 1, 1, 1, 1, 1, 1});
    Sum(Mul(out, w)).Backward();
    // Row 2 looked up three times, row 0 once, rows 1/3 never.
    ExpectTensorNear(Tensor::FromVector({4, 2}, table.grad()),
                     {1, 1, 0, 0, 3, 3, 0, 0});
  }
}

TEST(OpsTest, EmbeddingLookupEmptyIndices) {
  Tensor table = Tensor::FromVector({3, 2}, {1, 2, 3, 4, 5, 6},
                                    /*requires_grad=*/true);
  Tensor out = EmbeddingLookup(table, {}, {0});
  EXPECT_EQ(out.shape(), (Shape{0, 2}));
  Sum(out).Backward();
  for (float g : table.grad()) EXPECT_EQ(g, 0.0f);
  EXPECT_TRUE(table.grad_rows_valid());
  EXPECT_TRUE(table.grad_rows().empty());
}

TEST(OpsTest, EmbeddingLookupOutOfRangeDeath) {
  Tensor table = Tensor::FromVector({3, 2}, {1, 2, 3, 4, 5, 6});
  EXPECT_DEATH(EmbeddingLookup(table, {3}, {1}), "out of range");
  EXPECT_DEATH(EmbeddingLookup(table, {-1}, {1}), "out of range");
}

TEST(OpsTest, EmbeddingLookupRecordsTouchedRows) {
  Tensor table = Tensor::FromVector({5, 2}, std::vector<float>(10, 1.0f),
                                    /*requires_grad=*/true);
  Tensor out = EmbeddingLookup(table, {3, 1, 3, 0}, {4});
  Sum(out).Backward();
  EXPECT_TRUE(table.grad_rows_valid());
  EXPECT_EQ(table.grad_rows(), (std::vector<int64_t>{0, 1, 3}));

  // ZeroGrad resets the set to valid-and-empty and clears only what was
  // touched (the buffer must come back fully zero).
  table.ZeroGrad();
  EXPECT_TRUE(table.grad_rows_valid());
  EXPECT_TRUE(table.grad_rows().empty());
  for (float g : table.grad()) EXPECT_EQ(g, 0.0f);

  // An op that scatters densely into the table invalidates the metadata.
  Sum(Mul(table, table)).Backward();
  EXPECT_FALSE(table.grad_rows_valid());
}

TEST(OpsTest, SumAndMean) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(Sum(a).item(), 10.0f);
  EXPECT_FLOAT_EQ(Mean(a).item(), 2.5f);
}

TEST(OpsTest, SumAxisMiddle) {
  Tensor a = Tensor::FromVector({2, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor s = SumAxis(a, 1);
  EXPECT_EQ(s.shape(), (Shape{2, 2}));
  ExpectTensorNear(s, {4, 6, 12, 14});
}

TEST(OpsTest, SumAxisKeepdim) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor s = SumAxis(a, 1, /*keepdim=*/true);
  EXPECT_EQ(s.shape(), (Shape{2, 1}));
  ExpectTensorNear(s, {6, 15});
}

TEST(OpsTest, MeanAxisNegativeIndex) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 3, 5, 7});
  Tensor m = MeanAxis(a, -1);
  ExpectTensorNear(m, {2, 6});
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 1000, 1000, 1000});
  Tensor s = Softmax(a);
  EXPECT_NEAR(s.data()[0] + s.data()[1] + s.data()[2], 1.0f, 1e-6f);
  // Large equal logits must not overflow.
  EXPECT_NEAR(s.data()[3], 1.0f / 3.0f, 1e-6f);
}

TEST(OpsTest, SoftmaxOverEmptyAxisIsEmpty) {
  // Like MatMul with k = 0 and SumAxis over an empty axis: no rows, no
  // work, an empty result and an empty gradient, under both backends.
  for (Backend backend : {Backend::kOptimized, Backend::kReference}) {
    BackendGuard guard(backend);
    for (const Shape& shape : {Shape{3, 0}, Shape{0}, Shape{0, 4}}) {
      Tensor a = Tensor::Zeros(shape);
      a.set_requires_grad(true);
      Tensor s = Softmax(a);
      EXPECT_EQ(s.shape(), shape);
      EXPECT_EQ(s.numel(), 0);
      Sum(s).Backward();
      EXPECT_TRUE(a.grad().empty());
    }
  }
}

TEST(OpsTest, ZeroSizeShapesAreNoOps) {
  // Narrow-width MatMuls, broadcasts and last-axis sums with an empty dim:
  // empty or all-zero results, and backward passes that write nothing.
  using Binary = Tensor (*)(const Tensor&, const Tensor&);
  for (Backend backend : {Backend::kOptimized, Backend::kReference}) {
    BackendGuard guard(backend);
    const std::vector<std::pair<Shape, Shape>> matmuls = {
        {{0, 4}, {4, 3}}, {{5, 0}, {0, 3}}, {{5, 4}, {4, 0}},
        {{2, 0, 4}, {2, 4, 3}}, {{2, 5, 0}, {0, 3}}};
    for (const auto& [sa, sb] : matmuls) {
      Tensor a = Tensor::Zeros(sa);
      Tensor b = Tensor::Zeros(sb);
      a.set_requires_grad(true);
      b.set_requires_grad(true);
      Tensor c = MatMul(a, b);
      for (float v : c.vec()) EXPECT_EQ(v, 0.0f);
      Sum(c).Backward();
      for (float g : a.grad()) EXPECT_EQ(g, 0.0f);
      for (float g : b.grad()) EXPECT_EQ(g, 0.0f);
    }
    const std::vector<std::pair<Shape, Shape>> broadcasts = {
        {{0, 16}, {16}}, {{3, 0, 1}, {3, 1, 5}}, {{4, 0}, {4, 1}}};
    for (Binary op : {Binary{Add}, Binary{Mul}, Binary{Div}}) {
      for (const auto& [sa, sb] : broadcasts) {
        Tensor a = Tensor::Zeros(sa);
        Tensor b = Tensor::Ones(sb);
        a.set_requires_grad(true);
        b.set_requires_grad(true);
        Tensor c = op(a, b);
        EXPECT_EQ(c.numel(), 0);
        Sum(c).Backward();
        for (float g : b.grad()) EXPECT_EQ(g, 0.0f);
      }
    }
    Tensor s = SumAxis(Tensor::Zeros({4, 0}), -1);
    EXPECT_EQ(s.shape(), (Shape{4}));
    for (float v : s.vec()) EXPECT_EQ(v, 0.0f);
    EXPECT_EQ(SumAxis(Tensor::Zeros({0, 5}), -1).numel(), 0);
  }
}

TEST(OpsTest, SoftmaxOrderingPreserved) {
  Tensor a = Tensor::FromVector({1, 3}, {1, 3, 2});
  Tensor s = Softmax(a);
  EXPECT_GT(s.data()[1], s.data()[2]);
  EXPECT_GT(s.data()[2], s.data()[0]);
}

TEST(OpsTest, DropoutInferenceIsIdentity) {
  util::Rng rng(1);
  Tensor a = Tensor::FromVector({4}, {1, 2, 3, 4});
  Tensor d = Dropout(a, 0.5f, &rng, /*training=*/false);
  ExpectTensorNear(d, {1, 2, 3, 4});
}

TEST(OpsTest, DropoutZeroesAndScales) {
  util::Rng rng(1);
  Tensor a = Tensor::Ones({1000});
  Tensor d = Dropout(a, 0.5f, &rng, /*training=*/true);
  int64_t zeros = 0;
  for (int64_t i = 0; i < d.numel(); ++i) {
    float v = d.data()[i];
    EXPECT_TRUE(v == 0.0f || std::fabs(v - 2.0f) < 1e-6f);
    if (v == 0.0f) ++zeros;
  }
  EXPECT_GT(zeros, 400);
  EXPECT_LT(zeros, 600);
}

TEST(OpsTest, DropoutRejectsPOne) {
  util::Rng rng(151);
  Tensor a = Tensor::Ones({4});
  EXPECT_DEATH(Dropout(a, 1.0f, &rng, /*training=*/true), "");
}

TEST(OpsTest, BceWithLogitsMatchesManual) {
  Tensor x = Tensor::FromVector({2}, {0.0f, 2.0f});
  Tensor t = Tensor::FromVector({2}, {1.0f, 0.0f});
  float l0 = -std::log(0.5f);
  float l1 = -std::log(1.0f - 1.0f / (1.0f + std::exp(-2.0f)));
  EXPECT_NEAR(BceWithLogits(x, t).item(), (l0 + l1) / 2.0f, 1e-5f);
}

TEST(OpsTest, BceWithLogitsExtremeLogitsStable) {
  Tensor x = Tensor::FromVector({2}, {500.0f, -500.0f});
  Tensor t = Tensor::FromVector({2}, {1.0f, 0.0f});
  float loss = BceWithLogits(x, t).item();
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_NEAR(loss, 0.0f, 1e-5f);
}

TEST(OpsTest, MseLossValue) {
  Tensor p = Tensor::FromVector({2}, {1, 3});
  Tensor t = Tensor::FromVector({2}, {0, 1});
  EXPECT_FLOAT_EQ(MseLoss(p, t).item(), 2.5f);
}

// ------------------------------------------------------------ Backward --

TEST(AutogradTest, AddBackwardIsOnes) {
  Tensor a = Tensor::FromVector({3}, {1, 2, 3}, /*requires_grad=*/true);
  Tensor b = Tensor::FromVector({3}, {4, 5, 6}, /*requires_grad=*/true);
  Sum(Add(a, b)).Backward();
  for (int i = 0; i < 3; ++i) {
    EXPECT_FLOAT_EQ(a.grad()[i], 1.0f);
    EXPECT_FLOAT_EQ(b.grad()[i], 1.0f);
  }
}

TEST(AutogradTest, BroadcastBackwardReduces) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4}, true);
  Tensor b = Tensor::FromVector({2}, {1, 1}, true);
  Sum(Add(a, b)).Backward();
  // b participated in 2 rows -> grad 2 per element.
  EXPECT_FLOAT_EQ(b.grad()[0], 2.0f);
  EXPECT_FLOAT_EQ(b.grad()[1], 2.0f);
}

TEST(AutogradTest, GradAccumulatesAcrossBackward) {
  Tensor a = Tensor::FromVector({1}, {2}, true);
  Sum(Mul(a, a)).Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 4.0f);
  Sum(Mul(a, a)).Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 8.0f);  // accumulated
  a.ZeroGrad();
  EXPECT_FLOAT_EQ(a.grad()[0], 0.0f);
}

TEST(AutogradTest, DiamondGraphAccumulates) {
  // y = x*x + x*x: grad should be 4x.
  Tensor x = Tensor::FromVector({1}, {3}, true);
  Tensor sq = Mul(x, x);
  Sum(Add(sq, sq)).Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 12.0f);
}

TEST(AutogradTest, NoGradGuardDetaches) {
  Tensor a = Tensor::FromVector({2}, {1, 2}, true);
  tensor::NoGradGuard guard;
  Tensor b = Mul(a, a);
  EXPECT_FALSE(b.requires_grad());
}

TEST(AutogradTest, NoGradGuardNestedScopesRestoreCorrectly) {
  Tensor a = Tensor::FromVector({2}, {1, 2}, true);
  EXPECT_TRUE(GradModeEnabled());
  {
    NoGradGuard outer;
    EXPECT_FALSE(GradModeEnabled());
    {
      NoGradGuard inner;
      EXPECT_FALSE(GradModeEnabled());
      EXPECT_FALSE(Mul(a, a).requires_grad());
    }
    // Leaving the inner guard restores the *outer* guard's state, not the
    // global default: grad mode must stay off.
    EXPECT_FALSE(GradModeEnabled());
    EXPECT_FALSE(Mul(a, a).requires_grad());
  }
  EXPECT_TRUE(GradModeEnabled());
  EXPECT_TRUE(Mul(a, a).requires_grad());
}

TEST(AutogradTest, GradCheckMulDiv) {
  util::Rng rng(11);
  Tensor a = Tensor::Uniform({2, 3}, &rng, 0.5f, 2.0f);
  Tensor b = Tensor::Uniform({2, 3}, &rng, 0.5f, 2.0f);
  odnet::testing::ExpectGradCheck(
      {a, b}, [](const std::vector<Tensor>& in) {
        return Sum(Div(Mul(in[0], in[1]), AddScalar(in[1], 1.0f)));
      });
}

TEST(AutogradTest, GradCheckBroadcastMul) {
  util::Rng rng(12);
  Tensor a = Tensor::Uniform({2, 3}, &rng, -1.0f, 1.0f);
  Tensor b = Tensor::Uniform({3}, &rng, 0.5f, 1.5f);
  ExpectGradCheck({a, b}, [](const std::vector<Tensor>& in) {
    return Sum(Mul(in[0], in[1]));
  });
}

TEST(AutogradTest, GradCheckMatMul) {
  util::Rng rng(13);
  Tensor a = Tensor::Uniform({3, 4}, &rng, -1.0f, 1.0f);
  Tensor b = Tensor::Uniform({4, 2}, &rng, -1.0f, 1.0f);
  ExpectGradCheck({a, b}, [](const std::vector<Tensor>& in) {
    return Sum(MatMul(in[0], in[1]));
  });
}

TEST(AutogradTest, GradCheckBatchedMatMul) {
  util::Rng rng(14);
  Tensor a = Tensor::Uniform({2, 2, 3}, &rng, -1.0f, 1.0f);
  Tensor b = Tensor::Uniform({2, 3, 2}, &rng, -1.0f, 1.0f);
  ExpectGradCheck({a, b}, [](const std::vector<Tensor>& in) {
    return Sum(MatMul(in[0], in[1]));
  });
}

TEST(AutogradTest, GradCheckMatMulSharedRhs) {
  util::Rng rng(15);
  Tensor a = Tensor::Uniform({2, 2, 3}, &rng, -1.0f, 1.0f);
  Tensor b = Tensor::Uniform({3, 2}, &rng, -1.0f, 1.0f);
  ExpectGradCheck({a, b}, [](const std::vector<Tensor>& in) {
    return Sum(MatMul(in[0], in[1]));
  });
}

TEST(AutogradTest, GradCheckSoftmaxChain) {
  util::Rng rng(16);
  Tensor a = Tensor::Uniform({2, 4}, &rng, -2.0f, 2.0f);
  Tensor w = Tensor::Uniform({2, 4}, &rng, -1.0f, 1.0f);
  ExpectGradCheck({a, w}, [](const std::vector<Tensor>& in) {
    return Sum(Mul(Softmax(in[0]), in[1]));
  });
}

TEST(AutogradTest, GradCheckActivations) {
  util::Rng rng(17);
  Tensor a = Tensor::Uniform({6}, &rng, -2.0f, 2.0f);
  ExpectGradCheck({a}, [](const std::vector<Tensor>& in) {
    return Sum(Sigmoid(Tanh(in[0])));
  });
  Tensor b = Tensor::Uniform({6}, &rng, 0.5f, 2.0f);
  ExpectGradCheck({b}, [](const std::vector<Tensor>& in) {
    return Sum(Log(Exp(in[0])));
  });
}

TEST(AutogradTest, GradCheckConcatSlice) {
  util::Rng rng(18);
  Tensor a = Tensor::Uniform({2, 2}, &rng, -1.0f, 1.0f);
  Tensor b = Tensor::Uniform({2, 3}, &rng, -1.0f, 1.0f);
  ExpectGradCheck({a, b}, [](const std::vector<Tensor>& in) {
    Tensor c = Concat({in[0], in[1]}, 1);
    return Sum(Mul(Slice(c, 1, 1, 3), Slice(c, 1, 2, 3)));
  });
}

TEST(AutogradTest, GradCheckTransposeReshape) {
  util::Rng rng(19);
  Tensor a = Tensor::Uniform({2, 3}, &rng, -1.0f, 1.0f);
  ExpectGradCheck({a}, [](const std::vector<Tensor>& in) {
    Tensor t = TransposeLast2(in[0]);
    return Sum(Mul(Reshape(t, {2, 3}), in[0]));
  });
}

TEST(AutogradTest, GradCheckEmbedding) {
  util::Rng rng(20);
  Tensor table = Tensor::Uniform({4, 3}, &rng, -1.0f, 1.0f);
  ExpectGradCheck({table}, [](const std::vector<Tensor>& in) {
    // Repeated index 1 ensures scatter-add accumulation is exercised.
    Tensor e = EmbeddingLookup(in[0], {1, 1, 3}, {3});
    return Sum(Mul(e, e));
  });
}

TEST(AutogradTest, GradCheckSumAxisMean) {
  util::Rng rng(21);
  Tensor a = Tensor::Uniform({2, 3, 2}, &rng, -1.0f, 1.0f);
  ExpectGradCheck({a}, [](const std::vector<Tensor>& in) {
    return Mean(SumAxis(in[0], 1));
  });
}

TEST(AutogradTest, GradCheckBceWithLogits) {
  util::Rng rng(22);
  Tensor x = Tensor::Uniform({5}, &rng, -2.0f, 2.0f);
  Tensor t = Tensor::FromVector({5}, {1, 0, 1, 0, 1});
  ExpectGradCheck({x}, [t](const std::vector<Tensor>& in) {
    return BceWithLogits(in[0], t);
  });
}

TEST(AutogradTest, GradCheckStack) {
  util::Rng rng(23);
  Tensor a = Tensor::Uniform({3}, &rng, -1.0f, 1.0f);
  Tensor b = Tensor::Uniform({3}, &rng, -1.0f, 1.0f);
  ExpectGradCheck({a, b}, [](const std::vector<Tensor>& in) {
    Tensor s = Stack({in[0], in[1]});
    return Sum(Mul(s, s));
  });
}

TEST(AutogradTest, GradCheckAttentionPattern) {
  // The HSGC aggregation pattern: scores = sum(self * nbr, -1), softmax,
  // weighted sum. This is the exact computation of Eq. 1 in the paper.
  util::Rng rng(24);
  Tensor self_emb = Tensor::Uniform({2, 1, 3}, &rng, -1.0f, 1.0f);
  Tensor nbr_emb = Tensor::Uniform({2, 4, 3}, &rng, -1.0f, 1.0f);
  ExpectGradCheck({self_emb, nbr_emb}, [](const std::vector<Tensor>& in) {
    Tensor scores = SumAxis(Mul(in[0], in[1]), -1);       // [2,4]
    Tensor alpha = Softmax(Relu(scores));                 // [2,4]
    Tensor alpha3 = Reshape(alpha, {2, 4, 1});
    Tensor agg = SumAxis(Mul(alpha3, in[1]), 1);          // [2,3]
    return Sum(Mul(agg, agg));
  });
}

TEST(AutogradTest, DropoutBackwardMatchesMask) {
  util::Rng rng(5);
  Tensor a = Tensor::Ones({100});
  a.set_requires_grad(true);
  Tensor d = Dropout(a, 0.3f, &rng, true);
  Sum(d).Backward();
  for (int64_t i = 0; i < a.numel(); ++i) {
    float g = a.grad()[static_cast<size_t>(i)];
    float v = d.data()[i];
    if (v == 0.0f) {
      EXPECT_FLOAT_EQ(g, 0.0f);
    } else {
      EXPECT_NEAR(g, 1.0f / 0.7f, 1e-5f);
    }
  }
}

// ------------------------------------------------------- Zero-copy views --

TEST(OpsTest, ReshapeIsZeroCopyView) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = Reshape(a, {3, 2});
  EXPECT_EQ(r.data(), a.data());  // same storage, not a copy
  EXPECT_EQ(r.shape(), (Shape{3, 2}));
}

TEST(AutogradTest, ReshapeViewGradFlows) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4}, /*requires_grad=*/true);
  Tensor r = Reshape(a, {4});
  EXPECT_EQ(r.data(), a.data());
  Sum(Mul(r, r)).Backward();
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(a.grad()[static_cast<size_t>(i)],
                    2.0f * a.data()[i]);  // d(x^2)/dx
  }
}

TEST(OpsTest, DropoutEvalIsZeroCopyIdentity) {
  util::Rng rng(3);
  Tensor a = Tensor::Randn({4, 4}, &rng);
  EXPECT_TRUE(Dropout(a, 0.5f, &rng, /*training=*/false).IsSameAs(a));
  EXPECT_TRUE(Dropout(a, 0.0f, &rng, /*training=*/true).IsSameAs(a));
}

TEST(OpsTest, DropoutPZeroIdentityOnBothBackends) {
  // p == 0 keeps every element with scale 1/(1-p) == 1. The optimized
  // backend returns the input itself; the reference backend materializes a
  // copy node. Values and gradients must agree either way.
  util::Rng rng(3);
  Tensor a = Tensor::Randn({4, 4}, &rng, 1.0f, /*requires_grad=*/true);
  {
    Tensor d = Dropout(a, 0.0f, &rng, /*training=*/true);
    EXPECT_TRUE(d.IsSameAs(a));
  }
  {
    BackendGuard reference(Backend::kReference);
    Tensor d = Dropout(a, 0.0f, &rng, /*training=*/true);
    EXPECT_FALSE(d.IsSameAs(a));  // oracle path: a real tape node
    for (int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(d.data()[i], a.data()[i]);
    a.ZeroGrad();
    Sum(d).Backward();
    for (int64_t i = 0; i < a.numel(); ++i) {
      EXPECT_EQ(a.grad()[static_cast<size_t>(i)], 1.0f);
    }
  }
}

TEST(OpsTest, DropoutPOneIsRejectedOnBothBackends) {
  // p == 1 would zero everything and scale by 1/0: disallowed outright
  // rather than producing infinities.
  util::Rng rng(3);
  Tensor a = Tensor::Randn({4, 4}, &rng);
  EXPECT_DEATH(Dropout(a, 1.0f, &rng, /*training=*/true), "");
  {
    BackendGuard reference(Backend::kReference);
    EXPECT_DEATH(Dropout(a, 1.0f, &rng, /*training=*/true), "");
  }
}

// ------------------------------------------------------ Compute backend --

// Restores the process-wide compute configuration on scope exit so tests
// cannot leak thread-count or forced-split changes into each other.
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

// A mixed graph touching every parallelized kernel family: plain and
// batched/shared-rhs MatMul, broadcast Add, same-shape Mul, Softmax,
// SumAxis, unary activations — forward and backward. Returns all forward
// values and input gradients flattened for bitwise comparison.
std::vector<float> RunMixedGraphOnce() {
  util::Rng rng(1234);
  Tensor a = Tensor::Randn({5, 7}, &rng, 1.0f, /*requires_grad=*/true);
  Tensor b = Tensor::Randn({7, 3}, &rng, 1.0f, /*requires_grad=*/true);
  Tensor bias = Tensor::Randn({1, 3}, &rng, 1.0f, /*requires_grad=*/true);
  Tensor a3 = Tensor::Randn({3, 5, 7}, &rng, 1.0f, /*requires_grad=*/true);

  Tensor h = Add(MatMul(a, b), bias);
  Tensor s = Softmax(h);
  Tensor r = SumAxis(Mul(s, h), 0);
  Tensor h3 = MatMul(a3, b);  // batched lhs, shared rhs
  Tensor loss = Add(Sum(Relu(r)), Sum(Tanh(h3)));
  loss.Backward();

  std::vector<float> out;
  for (const std::vector<float>* v :
       {&h.vec(), &s.vec(), &r.vec(), &h3.vec(), &loss.vec(), &a.grad(),
        &b.grad(), &bias.grad(), &a3.grad()}) {
    out.insert(out.end(), v->begin(), v->end());
  }
  return out;
}

TEST(ComputeContextTest, ParseNumThreadsAcceptsOnlyAnIntegerInRange) {
  for (const char* good : {"1", "4", "256"}) {
    util::Result<int> parsed = tensor::ParseNumThreads(good);
    ASSERT_TRUE(parsed.ok()) << good;
    EXPECT_EQ(parsed.value(), std::atoi(good));
  }
  // Never handed to SetNumThreads: a rejected value must build no pool.
  for (const char* bad : {"", "abc", "4x", " 4", "0", "-2", "257", "100000",
                          "99999999999999999999"}) {
    util::Result<int> parsed = tensor::ParseNumThreads(bad);
    ASSERT_FALSE(parsed.ok()) << "\"" << bad << "\"";
    EXPECT_EQ(parsed.status().code(), util::StatusCode::kInvalidArgument);
  }
}

TEST(ComputeContextTest, BitwiseDeterministicAcrossThreadCounts) {
  ComputeConfigGuard guard;
  ComputeContext& ctx = ComputeContext::Get();
  // A forced split drives the parallel dispatch path even for tiny
  // tensors; odd sizes in the graph make the range partitions uneven.
  ctx.SetForceSplit(true);
  std::vector<std::vector<float>> runs;
  for (int threads : {1, 2, 8}) {
    ctx.SetNumThreads(threads);
    runs.push_back(RunMixedGraphOnce());
  }
  ASSERT_EQ(runs[0].size(), runs[1].size());
  ASSERT_EQ(runs[0].size(), runs[2].size());
  EXPECT_EQ(0, std::memcmp(runs[0].data(), runs[1].data(),
                           runs[0].size() * sizeof(float)))
      << "2-thread run differs from serial";
  EXPECT_EQ(0, std::memcmp(runs[0].data(), runs[2].data(),
                           runs[0].size() * sizeof(float)))
      << "8-thread run differs from serial";
}

// Ten SGD steps on a small MLP; returns the final weights.
std::vector<float> TrainTinyMlpOnce() {
  util::Rng rng(99);
  Tensor x = Tensor::Randn({17, 9}, &rng);
  Tensor y = Tensor::Randn({17, 1}, &rng);
  Tensor w1 = Tensor::Randn({9, 11}, &rng, 0.3f, /*requires_grad=*/true);
  Tensor w2 = Tensor::Randn({11, 1}, &rng, 0.3f, /*requires_grad=*/true);
  for (int step = 0; step < 10; ++step) {
    w1.ZeroGrad();
    w2.ZeroGrad();
    Tensor pred = MatMul(Relu(MatMul(x, w1)), w2);
    MseLoss(pred, y).Backward();
    for (Tensor* w : {&w1, &w2}) {
      float* d = w->mutable_data();
      const std::vector<float>& g = w->grad();
      for (size_t i = 0; i < g.size(); ++i) d[i] -= 0.05f * g[i];
    }
  }
  std::vector<float> out(w1.vec());
  out.insert(out.end(), w2.vec().begin(), w2.vec().end());
  return out;
}

TEST(ComputeContextTest, TrainedWeightsIdenticalAcrossThreadCounts) {
  ComputeConfigGuard guard;
  ComputeContext& ctx = ComputeContext::Get();
  ctx.SetForceSplit(true);
  std::vector<std::vector<float>> runs;
  for (int threads : {1, 2, 8}) {
    ctx.SetNumThreads(threads);
    runs.push_back(TrainTinyMlpOnce());
  }
  ASSERT_EQ(runs[0].size(), runs[1].size());
  ASSERT_EQ(runs[0].size(), runs[2].size());
  EXPECT_EQ(0, std::memcmp(runs[0].data(), runs[1].data(),
                           runs[0].size() * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(runs[0].data(), runs[2].data(),
                           runs[0].size() * sizeof(float)));
}

}  // namespace
}  // namespace tensor
}  // namespace odnet
