// Differential correctness harness for the tensor backend.
//
// Every program below is a pure function of its seed. The harness runs it
// once under the naive reference backend (src/tensor/reference_backend.*)
// to produce the oracle, then under the optimized backend at every
// CPU-capability tier compiled in and supported by the host (scalar /
// AVX2 / AVX-512, see src/tensor/cpu_capability.h) across a
// (threads, split) sweep, and asserts agreement of all forward values,
// the loss, and every input gradient. The scalar tier must agree
// *bitwise* (ULP distance 0) at every (threads in {1,2,8}) x (split in
// {forced, rule}) point — a forced split (ComputeContext::SetForceSplit)
// drives the parallel dispatch path even for tiny tensors; the fan-out
// rule keeps them serial. Vector tiers run threads {1,8} with the split
// forced and must also agree bitwise, except for
// programs touching the vector-exp kernel family (Sigmoid / Tanh / Exp /
// Softmax), which are tolerance-matched per the numerics policy in
// DESIGN.md §11. Forcing ODNET_CPU_CAPABILITY=scalar in the environment
// collapses the tier sweep to the scalar leg.
//
// The file also carries the finite-difference cross-check (both backends
// must match numeric derivatives, not just each other) and the fixed-seed
// golden regression digests of tiny end-to-end ODNET training runs.

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/baselines/odnet_recommender.h"
#include "src/core/config.h"
#include "src/optim/optimizer.h"
#include "src/data/fliggy_simulator.h"
#include "src/data/types.h"
#include "src/metrics/metrics.h"
#include "src/serving/evaluator.h"
#include "src/tensor/buffer_arena.h"
#include "src/tensor/compute_context.h"
#include "src/tensor/cpu_capability.h"
#include "src/tensor/graph_plan.h"
#include "src/tensor/ops.h"
#include "src/tensor/simd/simd_kernels.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace odnet {
namespace {

using tensor::Backend;
using tensor::BackendGuard;
using tensor::ComputeContext;
using tensor::CpuCapability;
using tensor::CpuCapabilityName;
using tensor::CpuCapabilityScope;
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

// A differential program: builds a graph from `seed`, runs forward and
// backward, and appends everything observable (forward values, loss,
// gradients) to `out`.
using Program = std::function<void(uint64_t seed, std::vector<float>* out)>;

std::vector<float> RunProgram(const Program& program, uint64_t seed) {
  std::vector<float> out;
  program(seed, &out);
  return out;
}

// Comparison policy for the vector capability tiers. Bitwise (the default)
// applies to every kernel family outside the vector-exp group; programs
// that evaluate Sigmoid / Tanh / Exp / Softmax through the optimized
// backend pass a tolerance instead (the scalar tier is always bitwise
// regardless).
struct VecTol {
  float rtol = 0.0f;
  float atol = 0.0f;
  bool bitwise() const { return rtol == 0.0f && atol == 0.0f; }
};

// Single ops straight through one vector-exp kernel.
constexpr VecTol kExpFamilyOpTol{1e-5f, 1e-6f};
// Deep random chains compound vector-exp error through matmuls and
// gradients, so they get a looser budget.
constexpr VecTol kExpFamilyChainTol{1e-3f, 1e-5f};

void ExpectBackendsAgree(const Program& program, uint64_t seed,
                         const std::string& tag, VecTol vec_tol = {}) {
  ComputeConfigGuard guard;
  std::vector<float> oracle;
  {
    BackendGuard reference(Backend::kReference);
    oracle = RunProgram(program, seed);
  }
  ComputeContext& ctx = ComputeContext::Get();
  for (CpuCapability cap : tensor::AvailableCpuCapabilities()) {
    CpuCapabilityScope cap_scope(cap);
    const bool scalar_tier = cap == CpuCapability::kScalar;
    const std::vector<int> thread_sweep =
        scalar_tier ? std::vector<int>{1, 2, 8} : std::vector<int>{1, 8};
    const std::vector<bool> split_sweep =
        scalar_tier ? std::vector<bool>{true, false} : std::vector<bool>{true};
    for (int threads : thread_sweep) {
      for (bool force_split : split_sweep) {
        ctx.SetNumThreads(threads);
        ctx.SetForceSplit(force_split);
        std::vector<float> optimized = RunProgram(program, seed);
        const std::string point_tag =
            tag + " [cap=" + CpuCapabilityName(cap) +
            " threads=" + std::to_string(threads) +
            " split=" + (force_split ? "forced" : "rule") + "]";
        if (scalar_tier || vec_tol.bitwise()) {
          testing::ExpectUlpClose(optimized, oracle, /*max_ulps=*/0,
                                  point_tag);
        } else {
          testing::ExpectClose(optimized, oracle, vec_tol.rtol, vec_tol.atol,
                               point_tag);
        }
      }
    }
  }
}

void Emit(const Tensor& t, std::vector<float>* out) {
  out->insert(out->end(), t.vec().begin(), t.vec().end());
}

void EmitGrad(const Tensor& t, std::vector<float>* out) {
  out->insert(out->end(), t.grad().begin(), t.grad().end());
}

// Scalarizes `y` by a weighted sum with a deterministic random weight, so
// every output element receives a distinct upstream gradient (Sum alone
// would seed all-ones and hide transposition bugs in backward kernels).
Tensor WeightedSum(const Tensor& y, util::Rng* rng) {
  Tensor w = testing::RandomTensor(y.shape(), rng);
  return tensor::Sum(tensor::Mul(y, w));
}

// Shared driver for single-op cases: `build` constructs the op under test
// from seeded randomness and registers its grad-bearing leaves.
void CheckOp(const std::string& tag, uint64_t seed,
             const std::function<Tensor(std::vector<Tensor>* leaves,
                                        util::Rng* rng)>& build,
             VecTol vec_tol = {}) {
  ExpectBackendsAgree(
      [&build](uint64_t s, std::vector<float>* out) {
        util::Rng rng(s);
        std::vector<Tensor> leaves;
        Tensor y = build(&leaves, &rng);
        Emit(y, out);
        Tensor loss = WeightedSum(y, &rng);
        for (Tensor& leaf : leaves) leaf.ZeroGrad();
        loss.Backward();
        Emit(loss, out);
        for (const Tensor& leaf : leaves) EmitGrad(leaf, out);
      },
      seed, tag, vec_tol);
}

// ------------------------------------------------------------ binary ops --

TEST(DifferentialOpTest, BinaryBroadcastSweep) {
  struct Kind {
    const char* name;
    Tensor (*fn)(const Tensor&, const Tensor&);
  };
  const Kind kinds[] = {{"Add", tensor::Add},
                        {"Sub", tensor::Sub},
                        {"Mul", tensor::Mul},
                        {"Div", tensor::Div}};
  for (const Kind& kind : kinds) {
    for (uint64_t variant = 0; variant < 8; ++variant) {
      const bool is_div = kind.fn == tensor::Div;
      CheckOp(std::string("Binary/") + kind.name + "/v" +
                  std::to_string(variant),
              1000 + variant,
              [&kind, is_div](std::vector<Tensor>* leaves, util::Rng* rng) {
                Shape out = testing::RandomShape(rng, 1, 4, 5);
                Shape sa = testing::RandomBroadcastVariant(out, rng);
                Shape sb = testing::RandomBroadcastVariant(out, rng);
                Tensor a = testing::RandomTensor(sa, rng, true);
                // Denominators bounded away from zero keep Div finite.
                Tensor b = is_div
                               ? testing::RandomTensor(sb, rng, true, 0.5f,
                                                       2.5f)
                               : testing::RandomTensor(sb, rng, true);
                leaves->push_back(a);
                leaves->push_back(b);
                return kind.fn(a, b);
              });
    }
  }
}

// ------------------------------------------------------ scalar and unary --

TEST(DifferentialOpTest, ScalarOps) {
  struct Kind {
    const char* name;
    std::function<Tensor(const Tensor&)> fn;
  };
  const std::vector<Kind> kinds = {
      {"AddScalar", [](const Tensor& a) { return tensor::AddScalar(a, 0.75f); }},
      {"MulScalar",
       [](const Tensor& a) { return tensor::MulScalar(a, -1.5f); }},
      {"Neg", [](const Tensor& a) { return tensor::Neg(a); }}};
  for (const Kind& kind : kinds) {
    for (uint64_t variant = 0; variant < 3; ++variant) {
      CheckOp(std::string("Scalar/") + kind.name + "/v" +
                  std::to_string(variant),
              2000 + variant,
              [&kind](std::vector<Tensor>* leaves, util::Rng* rng) {
                Tensor a = testing::RandomTensor(
                    testing::RandomShape(rng, 1, 3, 6), rng, true);
                leaves->push_back(a);
                return kind.fn(a);
              });
    }
  }
}

TEST(DifferentialOpTest, UnaryOps) {
  struct Kind {
    const char* name;
    std::function<Tensor(const Tensor&)> fn;
    VecTol vec_tol;
  };
  // Log's default inputs straddle the <= 0 clamp branch on purpose.
  // Sigmoid / Tanh / Exp are vector-exp family: tolerance under vector
  // tiers, bitwise under the scalar tier.
  const std::vector<Kind> kinds = {
      {"Relu", [](const Tensor& a) { return tensor::Relu(a); }, {}},
      {"LeakyRelu", [](const Tensor& a) { return tensor::LeakyRelu(a, 0.2f); },
       {}},
      {"Sigmoid", [](const Tensor& a) { return tensor::Sigmoid(a); },
       kExpFamilyOpTol},
      {"Tanh", [](const Tensor& a) { return tensor::Tanh(a); },
       kExpFamilyOpTol},
      {"Exp", [](const Tensor& a) { return tensor::Exp(a); },
       kExpFamilyOpTol},
      {"Log", [](const Tensor& a) { return tensor::Log(a); }, {}}};
  for (const Kind& kind : kinds) {
    for (uint64_t variant = 0; variant < 3; ++variant) {
      CheckOp(std::string("Unary/") + kind.name + "/v" +
                  std::to_string(variant),
              3000 + variant,
              [&kind](std::vector<Tensor>* leaves, util::Rng* rng) {
                Tensor a = testing::RandomTensor(
                    testing::RandomShape(rng, 1, 4, 5), rng, true);
                leaves->push_back(a);
                return kind.fn(a);
              },
              kind.vec_tol);
    }
  }
}

// ---------------------------------------------------------- linear algebra --

TEST(DifferentialOpTest, MatMulShapes) {
  // mode 0: [M,K]x[K,N]; mode 1: [B,M,K]x[B,K,N]; mode 2: [B,M,K]x[K,N]
  // (shared rhs, whose dB accumulates across the batch).
  for (int mode = 0; mode < 3; ++mode) {
    for (uint64_t variant = 0; variant < 4; ++variant) {
      CheckOp("MatMul/mode" + std::to_string(mode) + "/v" +
                  std::to_string(variant),
              4000 + variant,
              [mode](std::vector<Tensor>* leaves, util::Rng* rng) {
                const int64_t bt = rng->UniformInt(1, 3);
                const int64_t m = rng->UniformInt(1, 6);
                const int64_t k = rng->UniformInt(1, 6);
                const int64_t n = rng->UniformInt(1, 6);
                Shape sa = mode == 0 ? Shape{m, k} : Shape{bt, m, k};
                Shape sb = mode == 1 ? Shape{bt, k, n} : Shape{k, n};
                Tensor a = testing::RandomTensor(sa, rng, true);
                Tensor b = testing::RandomTensor(sb, rng, true);
                leaves->push_back(a);
                leaves->push_back(b);
                return tensor::MatMul(a, b);
              });
    }
  }
}

TEST(DifferentialOpTest, TransposeLast2) {
  for (int rank = 2; rank <= 4; ++rank) {
    CheckOp("TransposeLast2/rank" + std::to_string(rank), 4500 + rank,
            [rank](std::vector<Tensor>* leaves, util::Rng* rng) {
              Tensor a = testing::RandomTensor(
                  testing::RandomShape(rng, rank, rank, 5), rng, true);
              leaves->push_back(a);
              return tensor::TransposeLast2(a);
            });
  }
}

// -------------------------------------------------------------- reshaping --

TEST(DifferentialOpTest, ReshapeViewVsCopy) {
  // The optimized Reshape is a zero-copy view; the reference backend
  // materializes a copy node. Chaining an activation after the reshape
  // forces gradient flow through the view machinery.
  for (uint64_t variant = 0; variant < 4; ++variant) {
    CheckOp("Reshape/v" + std::to_string(variant), 5000 + variant,
            [](std::vector<Tensor>* leaves, util::Rng* rng) {
              Tensor a = testing::RandomTensor(
                  testing::RandomShape(rng, 2, 3, 4), rng, true);
              leaves->push_back(a);
              Tensor flat = tensor::Reshape(a, {a.numel()});
              Tensor back = tensor::Reshape(flat, {1, a.numel()});
              return tensor::Tanh(back);
            },
            kExpFamilyOpTol);  // ends in Tanh
  }
}

TEST(DifferentialOpTest, ConcatSliceStack) {
  for (uint64_t variant = 0; variant < 4; ++variant) {
    CheckOp("Concat/v" + std::to_string(variant), 5100 + variant,
            [](std::vector<Tensor>* leaves, util::Rng* rng) {
              Shape base = testing::RandomShape(rng, 2, 3, 4);
              const int axis =
                  static_cast<int>(rng->UniformInt(0, base.size() - 1));
              std::vector<Tensor> parts;
              for (int i = 0; i < 3; ++i) {
                Shape s = base;
                s[static_cast<size_t>(axis)] = rng->UniformInt(1, 3);
                parts.push_back(testing::RandomTensor(s, rng, true));
                leaves->push_back(parts.back());
              }
              return tensor::Concat(parts, axis);
            });
    CheckOp("Slice/v" + std::to_string(variant), 5200 + variant,
            [](std::vector<Tensor>* leaves, util::Rng* rng) {
              Shape s = testing::RandomShape(rng, 2, 4, 5);
              const int axis =
                  static_cast<int>(rng->UniformInt(0, s.size() - 1));
              const int64_t dim = s[static_cast<size_t>(axis)];
              const int64_t length = rng->UniformInt(1, dim);
              const int64_t start = rng->UniformInt(0, dim - length);
              Tensor a = testing::RandomTensor(s, rng, true);
              leaves->push_back(a);
              return tensor::Slice(a, axis, start, length);
            });
    CheckOp("Stack/v" + std::to_string(variant), 5300 + variant,
            [](std::vector<Tensor>* leaves, util::Rng* rng) {
              Shape s = testing::RandomShape(rng, 1, 3, 4);
              std::vector<Tensor> parts;
              for (int i = 0; i < 3; ++i) {
                parts.push_back(testing::RandomTensor(s, rng, true));
                leaves->push_back(parts.back());
              }
              return tensor::Stack(parts);
            });
  }
}

TEST(DifferentialOpTest, EmbeddingLookup) {
  for (uint64_t variant = 0; variant < 4; ++variant) {
    CheckOp("EmbeddingLookup/v" + std::to_string(variant), 5400 + variant,
            [](std::vector<Tensor>* leaves, util::Rng* rng) {
              const int64_t vocab = rng->UniformInt(3, 8);
              const int64_t dim = rng->UniformInt(1, 5);
              Tensor table = testing::RandomTensor({vocab, dim}, rng, true);
              leaves->push_back(table);
              // Duplicate indices exercise the scatter-add backward.
              Shape index_shape = {2, 3};
              std::vector<int64_t> indices;
              for (int i = 0; i < 6; ++i) {
                indices.push_back(rng->UniformInt(0, vocab - 1));
              }
              return tensor::EmbeddingLookup(table, indices, index_shape);
            });
  }
}

TEST(DifferentialOpTest, EmbeddingLookupDuplicateHeavy) {
  // Large lookup counts with tiny vocabularies: every row collects many
  // duplicate contributions, stressing the grouped-scatter accumulation
  // order against the serial reference scatter.
  for (uint64_t variant = 0; variant < 3; ++variant) {
    CheckOp("EmbeddingLookupDup/v" + std::to_string(variant), 5500 + variant,
            [](std::vector<Tensor>* leaves, util::Rng* rng) {
              const int64_t vocab = rng->UniformInt(2, 4);
              const int64_t dim = rng->UniformInt(1, 6);
              Tensor table = testing::RandomTensor({vocab, dim}, rng, true);
              leaves->push_back(table);
              const int64_t count = rng->UniformInt(24, 48);
              Shape index_shape = {count};
              std::vector<int64_t> indices;
              for (int64_t i = 0; i < count; ++i) {
                indices.push_back(rng->UniformInt(0, vocab - 1));
              }
              return tensor::EmbeddingLookup(table, indices, index_shape);
            });
  }
}

// ------------------------------------------------------------- train step --

// A complete optimization loop over an embedding table and a dense
// projection: lookup -> matmul -> squared loss, ZeroGrad/Backward/
// ClipGradNorm/Adam::Step for several steps, with some rows left untouched
// for stretches. Pure function of its inputs, so the sparse path (default)
// must reproduce the forced-dense pre-sparse path bit for bit at every
// (threads, split) point and under the reference backend.
std::vector<float> RunEmbeddingTrainLoop(bool force_dense) {
  util::Rng rng(97531);
  Tensor table = testing::RandomTensor({12, 3}, &rng, true);
  Tensor w = testing::RandomTensor({3, 1}, &rng, true);
  optim::Adam opt({table, w}, 0.05);
  opt.set_force_dense(force_dense);
  std::vector<float> out;
  for (int step = 0; step < 6; ++step) {
    std::vector<int64_t> indices;
    for (int i = 0; i < 5; ++i) indices.push_back(rng.UniformInt(0, 11));
    opt.ZeroGrad();
    Tensor emb = tensor::EmbeddingLookup(table, indices, {5});
    Tensor h = tensor::MatMul(emb, w);
    Tensor loss = tensor::Sum(tensor::Mul(h, h));
    loss.Backward();
    opt.ClipGradNorm(0.5);
    opt.Step();
    out.push_back(loss.item());
  }
  out.insert(out.end(), table.vec().begin(), table.vec().end());
  out.insert(out.end(), w.vec().begin(), w.vec().end());
  return out;
}

TEST(DifferentialTrainStepTest, SparseAdamMatchesDenseAcrossThreads) {
  ComputeConfigGuard guard;
  ComputeContext& ctx = ComputeContext::Get();
  ctx.SetNumThreads(1);
  ctx.SetForceSplit(false);
  // Oracle: the pre-sparse dense path, serial. The whole loop (embedding
  // lookup, matmul, Mul/Sum loss, clip, Adam) is built from bitwise-tier
  // kernels, so every capability tier must reproduce it exactly.
  const std::vector<float> oracle = RunEmbeddingTrainLoop(/*force_dense=*/true);
  for (CpuCapability cap : tensor::AvailableCpuCapabilities()) {
    CpuCapabilityScope cap_scope(cap);
    for (int threads : {1, 2, 8}) {
      for (bool force_split : {true, false}) {
        ctx.SetNumThreads(threads);
        ctx.SetForceSplit(force_split);
        const std::string tag = std::string(" [cap=") + CpuCapabilityName(cap) +
                                " threads=" + std::to_string(threads) +
                                " split=" + (force_split ? "forced" : "rule") +
                                "]";
        testing::ExpectUlpClose(RunEmbeddingTrainLoop(false), oracle,
                                /*max_ulps=*/0, "TrainStep/sparse" + tag);
        testing::ExpectUlpClose(RunEmbeddingTrainLoop(true), oracle,
                                /*max_ulps=*/0, "TrainStep/dense" + tag);
      }
    }
  }
  // Under the reference backend the embedding forward/backward kernels are
  // swapped for the naive oracle versions; the trained weights must not
  // move by a single bit.
  {
    BackendGuard reference(Backend::kReference);
    ctx.SetNumThreads(1);
    ctx.SetForceSplit(false);
    testing::ExpectUlpClose(RunEmbeddingTrainLoop(false), oracle,
                            /*max_ulps=*/0, "TrainStep/reference");
  }
}

// -------------------------------------------------------------- reductions --

TEST(DifferentialOpTest, Reductions) {
  for (uint64_t variant = 0; variant < 3; ++variant) {
    CheckOp("Sum/v" + std::to_string(variant), 6000 + variant,
            [](std::vector<Tensor>* leaves, util::Rng* rng) {
              Tensor a = testing::RandomTensor(
                  testing::RandomShape(rng, 1, 4, 5), rng, true);
              leaves->push_back(a);
              return tensor::Sum(a);
            });
    CheckOp("Mean/v" + std::to_string(variant), 6100 + variant,
            [](std::vector<Tensor>* leaves, util::Rng* rng) {
              Tensor a = testing::RandomTensor(
                  testing::RandomShape(rng, 1, 4, 5), rng, true);
              leaves->push_back(a);
              return tensor::Mean(a);
            });
  }
  // Axis reductions: every axis of a rank-3 tensor, both keepdim settings.
  for (int axis = 0; axis < 3; ++axis) {
    for (bool keepdim : {false, true}) {
      const std::string suffix =
          "/axis" + std::to_string(axis) + (keepdim ? "/keep" : "/drop");
      CheckOp("SumAxis" + suffix, 6200 + static_cast<uint64_t>(axis),
              [axis, keepdim](std::vector<Tensor>* leaves, util::Rng* rng) {
                Tensor a = testing::RandomTensor(
                    {rng->UniformInt(1, 4), rng->UniformInt(1, 4),
                     rng->UniformInt(1, 4)},
                    rng, true);
                leaves->push_back(a);
                return tensor::SumAxis(a, axis, keepdim);
              });
      CheckOp("MeanAxis" + suffix, 6300 + static_cast<uint64_t>(axis),
              [axis, keepdim](std::vector<Tensor>* leaves, util::Rng* rng) {
                Tensor a = testing::RandomTensor(
                    {rng->UniformInt(1, 4), rng->UniformInt(1, 4),
                     rng->UniformInt(1, 4)},
                    rng, true);
                leaves->push_back(a);
                return tensor::MeanAxis(a, axis, keepdim);
              });
    }
  }
}

// ------------------------------------------------- softmax / dropout / loss --

TEST(DifferentialOpTest, Softmax) {
  const std::vector<Shape> shapes = {{5}, {3, 4}, {2, 3, 5}, {4, 1}};
  for (size_t i = 0; i < shapes.size(); ++i) {
    CheckOp("Softmax/v" + std::to_string(i), 6500 + i,
            [&shapes, i](std::vector<Tensor>* leaves, util::Rng* rng) {
              Tensor a = testing::RandomTensor(shapes[i], rng, true);
              leaves->push_back(a);
              return tensor::Softmax(a);
            },
            kExpFamilyOpTol);
  }
}

TEST(DifferentialOpTest, Dropout) {
  // Training: the mask RNG stream is consumed identically by both backends,
  // so the masked outputs must match bitwise.
  CheckOp("Dropout/train", 6600,
          [](std::vector<Tensor>* leaves, util::Rng* rng) {
            Tensor a = testing::RandomTensor({4, 5}, rng, true);
            leaves->push_back(a);
            util::Rng mask_rng(rng->NextUint64());
            return tensor::Dropout(a, 0.4f, &mask_rng, true);
          });
  // Inference and p == 0: the optimized path returns the input itself
  // (zero-copy, no tape node); the oracle materializes an identity node.
  // Forward values and gradients must agree regardless.
  CheckOp("Dropout/eval", 6601,
          [](std::vector<Tensor>* leaves, util::Rng* rng) {
            Tensor a = testing::RandomTensor({4, 5}, rng, true);
            leaves->push_back(a);
            return tensor::Dropout(a, 0.4f, nullptr, false);
          });
  CheckOp("Dropout/p0", 6602,
          [](std::vector<Tensor>* leaves, util::Rng* rng) {
            Tensor a = testing::RandomTensor({4, 5}, rng, true);
            leaves->push_back(a);
            util::Rng mask_rng(7);
            return tensor::Dropout(a, 0.0f, &mask_rng, true);
          });
}

TEST(DifferentialOpTest, Losses) {
  for (uint64_t variant = 0; variant < 3; ++variant) {
    CheckOp("BceWithLogits/v" + std::to_string(variant), 6700 + variant,
            [](std::vector<Tensor>* leaves, util::Rng* rng) {
              Shape s = testing::RandomShape(rng, 1, 2, 6);
              Tensor logits = testing::RandomTensor(s, rng, true);
              // Soft labels exercise the d/dt = -x/n branch too.
              Tensor targets = testing::RandomTensor(s, rng, true, 0.0f, 1.0f);
              leaves->push_back(logits);
              leaves->push_back(targets);
              return tensor::BceWithLogits(logits, targets);
            });
    CheckOp("MseLoss/v" + std::to_string(variant), 6800 + variant,
            [](std::vector<Tensor>* leaves, util::Rng* rng) {
              Shape s = testing::RandomShape(rng, 1, 3, 5);
              Tensor pred = testing::RandomTensor(s, rng, true);
              Tensor target = testing::RandomTensor(s, rng, true);
              leaves->push_back(pred);
              leaves->push_back(target);
              return tensor::MseLoss(pred, target);
            });
  }
}

// ------------------------------------------------- loss/clamp edge cases --

// Log's eps clamp and BceWithLogits' log1p(exp(-|x|)) stability path are
// deliberately NOT dispatched to vector tiers; these cases pin their scalar
// semantics at the awkward inputs (signed zeros, denormals, the eps
// boundary, saturating logits) under every capability tier — the
// surrounding graph (Mul/Sum) runs dispatched, the edge-case math must not.
TEST(DifferentialOpTest, LogEpsClampEdgeCases) {
  // Below-eps inputs (including -0.0 and denormals) clamp to log(eps);
  // straddling values pin the exact boundary behavior.
  const std::vector<float> xs = {0.0f,    -0.0f,  1e-45f, -1e-45f, 1e-12f,
                                 0.5e-12f, 2e-12f, 1.0f,   -3.0f,  1e30f};
  ExpectBackendsAgree(
      [&xs](uint64_t, std::vector<float>* out) {
        Tensor a = Tensor::FromVector({static_cast<int64_t>(xs.size())}, xs,
                                      /*requires_grad=*/true);
        Tensor y = tensor::Log(a);
        Emit(y, out);
        util::Rng rng(424242);
        Tensor loss = WeightedSum(y, &rng);
        a.ZeroGrad();
        loss.Backward();
        Emit(loss, out);
        EmitGrad(a, out);
      },
      /*seed=*/0, "LogEdge");
}

TEST(DifferentialOpTest, BceWithLogitsSaturatedLogits) {
  // Large logits would overflow a naive log(1+exp(x)); the stable form must
  // stay finite and bitwise reproducible. Soft targets exercise both grad
  // branches.
  const std::vector<float> logits = {88.0f, -88.0f, 100.0f, -100.0f, 0.0f,
                                     -0.0f, 17.5f,  -17.5f, 1e-4f,   -1e-4f};
  const std::vector<float> targets = {0.0f, 1.0f, 0.25f, 0.75f, 0.5f,
                                      0.5f, 1.0f, 0.0f,  0.9f,  0.1f};
  ExpectBackendsAgree(
      [&logits, &targets](uint64_t, std::vector<float>* out) {
        const int64_t n = static_cast<int64_t>(logits.size());
        Tensor x = Tensor::FromVector({n}, logits, /*requires_grad=*/true);
        Tensor t = Tensor::FromVector({n}, targets, /*requires_grad=*/true);
        Tensor loss = tensor::BceWithLogits(x, t);
        EXPECT_TRUE(std::isfinite(loss.item()));
        x.ZeroGrad();
        t.ZeroGrad();
        loss.Backward();
        Emit(loss, out);
        EmitGrad(x, out);
        EmitGrad(t, out);
      },
      /*seed=*/0, "BceEdge");
}

// ----------------------------------------------------------- vector tails --

// Lengths straddling the 8-lane (AVX2) and 16-lane (AVX-512) vector widths:
// sub-width tensors, exact multiples, and one-off lengths. Vector kernels
// must handle their scalar/padded tails identically to the scalar tier
// (bitwise for non-exp families, within tolerance for the exp family).
TEST(DifferentialOpTest, VectorTailShapes) {
  for (int64_t n : {int64_t{1}, int64_t{3}, int64_t{7}, int64_t{8},
                    int64_t{9}, int64_t{15}, int64_t{16}, int64_t{17},
                    int64_t{31}, int64_t{33}}) {
    const std::string suffix = "/n" + std::to_string(n);
    const uint64_t s = static_cast<uint64_t>(n);
    CheckOp("Tail/Mul" + suffix, 9000 + s,
            [n](std::vector<Tensor>* leaves, util::Rng* rng) {
              Tensor a = testing::RandomTensor({n}, rng, true);
              Tensor b = testing::RandomTensor({n}, rng, true);
              leaves->push_back(a);
              leaves->push_back(b);
              return tensor::Mul(a, b);
            });
    CheckOp("Tail/Relu" + suffix, 9100 + s,
            [n](std::vector<Tensor>* leaves, util::Rng* rng) {
              Tensor a = testing::RandomTensor({2, n}, rng, true);
              leaves->push_back(a);
              return tensor::Relu(a);
            });
    CheckOp("Tail/Tanh" + suffix, 9200 + s,
            [n](std::vector<Tensor>* leaves, util::Rng* rng) {
              Tensor a = testing::RandomTensor({2, n}, rng, true);
              leaves->push_back(a);
              return tensor::Tanh(a);
            },
            kExpFamilyOpTol);
    CheckOp("Tail/Softmax" + suffix, 9300 + s,
            [n](std::vector<Tensor>* leaves, util::Rng* rng) {
              Tensor a = testing::RandomTensor({3, n}, rng, true);
              leaves->push_back(a);
              return tensor::Softmax(a);
            },
            kExpFamilyOpTol);
    CheckOp("Tail/MatMul" + suffix, 9400 + s,
            [n](std::vector<Tensor>* leaves, util::Rng* rng) {
              Tensor a = testing::RandomTensor({3, n}, rng, true);
              Tensor b = testing::RandomTensor({n, 2}, rng, true);
              leaves->push_back(a);
              leaves->push_back(b);
              return tensor::MatMul(a, b);
            });
    CheckOp("Tail/SumAxis" + suffix, 9500 + s,
            [n](std::vector<Tensor>* leaves, util::Rng* rng) {
              Tensor a = testing::RandomTensor({2, 3, n}, rng, true);
              leaves->push_back(a);
              return tensor::SumAxis(a, 1, false);
            });
  }
}

// ------------------------------------------------------------ narrow rows --

// Rows narrower than one vector (8 lanes on AVX2, 16 on AVX-512) take the
// narrow-row kernels, which put a block of rows in the lanes. Row counts
// straddle both widths so full and partial blocks run on every tier.
const std::vector<int64_t> kNarrowRowCounts = {1, 7, 8, 15, 16, 37};

// Fills `t` so a third of its entries are zero, some of them -0.0.
void ZeroAThird(Tensor* t) {
  float* p = t->mutable_data();
  for (int64_t i = 0; i < t->numel(); i += 3) {
    p[i] = (i % 2 == 0) ? 0.0f : -0.0f;
  }
}

// [M,K]x[K,N] (mode 0), [B,M,K]x[B,K,N] (mode 1) or [B,M,K]x[K,N] (mode 2)
// with a third of A zero, some of it -0.0. With `inf_opposite_zero`, A's
// column 0 is all zero and B[0, 0] (of batch entry 0) is +inf.
Tensor NarrowMatMulCase(int mode, int64_t m, int64_t k, int64_t n,
                        bool inf_opposite_zero, std::vector<Tensor>* leaves,
                        util::Rng* rng) {
  const int64_t bt = 3;
  Shape sa = mode == 0 ? Shape{m, k} : Shape{bt, m, k};
  Shape sb = mode == 1 ? Shape{bt, k, n} : Shape{k, n};
  Tensor a = testing::RandomTensor(sa, rng);
  Tensor b = testing::RandomTensor(sb, rng);
  ZeroAThird(&a);
  if (inf_opposite_zero) {
    for (int64_t r = 0; r < a.numel() / k; ++r) a.mutable_data()[r * k] = 0.0f;
    b.mutable_data()[0] = std::numeric_limits<float>::infinity();
  }
  a.set_requires_grad(true);
  b.set_requires_grad(true);
  leaves->push_back(a);
  leaves->push_back(b);
  return tensor::MatMul(a, b);
}

TEST(DifferentialOpTest, NarrowMatMul) {
  for (int mode = 0; mode < 3; ++mode) {
    for (int64_t m : kNarrowRowCounts) {
      for (int64_t n : {int64_t{1}, int64_t{3}, int64_t{4}, int64_t{10},
                        int64_t{15}}) {
        for (int64_t k : {int64_t{4}, int64_t{16}, int64_t{84}}) {
          CheckOp("NarrowMatMul/mode" + std::to_string(mode) + "/m" +
                      std::to_string(m) + "/n" + std::to_string(n) + "/k" +
                      std::to_string(k),
                  9600 + static_cast<uint64_t>(m * 131 + n * 7 + k),
                  [mode, m, n, k](std::vector<Tensor>* leaves,
                                  util::Rng* rng) {
                    return NarrowMatMulCase(mode, m, k, n, false, leaves, rng);
                  });
        }
      }
    }
  }
}

// MatMul skips zero entries of A (a sparse one-hot fast path), so an inf in
// B opposite a zero in A never reaches the output; the reference oracle
// multiplies through (inf * 0 = NaN), so here every tier and thread count
// is checked against the scalar tier, and the forward must stay finite.
TEST(DifferentialOpTest, NarrowMatMulSkipKeepsInfOut) {
  ComputeConfigGuard guard;
  ComputeContext& ctx = ComputeContext::Get();
  for (int mode = 0; mode < 3; ++mode) {
    for (int64_t m : kNarrowRowCounts) {
      for (int64_t n : {int64_t{1}, int64_t{4}, int64_t{10}, int64_t{15}}) {
        const std::string tag = "NarrowMatMulInf/mode" + std::to_string(mode) +
                                "/m" + std::to_string(m) + "/n" +
                                std::to_string(n);
        const Program program = [mode, m, n](uint64_t s,
                                             std::vector<float>* out) {
          util::Rng rng(s);
          std::vector<Tensor> leaves;
          Tensor y = NarrowMatMulCase(mode, m, 16, n, true, &leaves, &rng);
          for (float v : y.vec()) EXPECT_TRUE(std::isfinite(v));
          Emit(y, out);
          Tensor loss = WeightedSum(y, &rng);
          for (Tensor& leaf : leaves) leaf.ZeroGrad();
          loss.Backward();
          for (const Tensor& leaf : leaves) EmitGrad(leaf, out);
        };
        std::vector<float> want;
        {
          CpuCapabilityScope scalar(CpuCapability::kScalar);
          ctx.SetNumThreads(1);
          want = RunProgram(program, 9650);
        }
        for (CpuCapability cap : tensor::AvailableCpuCapabilities()) {
          CpuCapabilityScope cap_scope(cap);
          for (int threads : {1, 8}) {
            ctx.SetNumThreads(threads);
            ctx.SetForceSplit(true);
            testing::ExpectUlpClose(
                RunProgram(program, 9650), want, 0,
                tag + " [cap=" + CpuCapabilityName(cap) +
                    " threads=" + std::to_string(threads) + "]");
          }
        }
      }
    }
  }
}

TEST(DifferentialOpTest, NarrowSoftmax) {
  // A third of the entries carry the -1e9 padding mask; row 2 is NaN.
  for (int64_t c : {int64_t{1}, int64_t{3}, int64_t{5}, int64_t{10},
                    int64_t{15}}) {
    CheckOp("NarrowSoftmax/c" + std::to_string(c),
            9700 + static_cast<uint64_t>(c),
            [c](std::vector<Tensor>* leaves, util::Rng* rng) {
              Tensor a = testing::RandomTensor({37, c}, rng);
              float* p = a.mutable_data();
              for (int64_t i = 1; i < a.numel(); i += 3) p[i] = -1e9f;
              p[2 * c] = std::numeric_limits<float>::quiet_NaN();
              a.set_requires_grad(true);
              leaves->push_back(a);
              return tensor::Softmax(a);
            },
            kExpFamilyOpTol);
  }
}

TEST(DifferentialOpTest, NarrowBroadcasts) {
  // ODNET's broadcast patterns: HSGC attention and pooling, PEC pooling,
  // DotProductAttention, the MHA key mask, Linear bias and the MMoE gates.
  const std::vector<std::pair<Shape, Shape>> patterns = {
      {{7, 1, 16}, {7, 5, 16}}, {{7, 5, 1}, {7, 5, 16}},
      {{6, 5, 16}, {6, 5, 1}},  {{6, 1, 16}, {6, 10, 16}},
      {{6, 10, 10}, {6, 1, 10}}, {{9, 16}, {16}},
      {{6, 1}, {6, 32}}};
  struct Kind {
    const char* name;
    Tensor (*fn)(const Tensor&, const Tensor&);
  };
  const Kind kinds[] = {{"Add", tensor::Add},
                        {"Sub", tensor::Sub},
                        {"Mul", tensor::Mul},
                        {"Div", tensor::Div}};
  for (const Kind& kind : kinds) {
    for (size_t i = 0; i < patterns.size(); ++i) {
      for (bool swap : {false, true}) {
        const Shape& sa = swap ? patterns[i].second : patterns[i].first;
        const Shape& sb = swap ? patterns[i].first : patterns[i].second;
        const bool is_div = kind.fn == tensor::Div;
        CheckOp(std::string("NarrowBroadcast/") + kind.name + "/p" +
                    std::to_string(i) + (swap ? "/swap" : ""),
                9800 + i,
                [&kind, &sa, &sb, is_div](std::vector<Tensor>* leaves,
                                          util::Rng* rng) {
                  Tensor a = testing::RandomTensor(sa, rng, true);
                  Tensor b = is_div ? testing::RandomTensor(sb, rng, true,
                                                            0.5f, 2.5f)
                                    : testing::RandomTensor(sb, rng, true);
                  leaves->push_back(a);
                  leaves->push_back(b);
                  return kind.fn(a, b);
                });
      }
    }
  }
}

TEST(DifferentialOpTest, NarrowSumAxisLast) {
  for (bool keepdim : {false, true}) {
    CheckOp(std::string("NarrowSumAxisLast") + (keepdim ? "/keep" : "/drop"),
            9900, [keepdim](std::vector<Tensor>* leaves, util::Rng* rng) {
              Tensor a = testing::RandomTensor({37, 5, 16}, rng);
              ZeroAThird(&a);
              a.set_requires_grad(true);
              leaves->push_back(a);
              return tensor::SumAxis(a, -1, keepdim);
            });
  }
}

// The vector tiers' Softmax is only tolerance-matched against the oracle,
// so the narrow kernels are pinned bitwise to their own tier's row kernels
// instead: forward through the op, backward kernel against kernel.
TEST(SimdNarrowTest, NarrowSoftmaxMatchesRowKernelBitwise) {
  ComputeConfigGuard guard;
  ComputeContext& ctx = ComputeContext::Get();
  for (CpuCapability cap : tensor::AvailableCpuCapabilities()) {
    const tensor::simd::KernelTable& kt = tensor::simd::KernelsFor(cap);
    if (kt.narrow.width == 0) continue;
    CpuCapabilityScope cap_scope(cap);
    for (int64_t rows : kNarrowRowCounts) {
      for (int64_t cols = 1; cols < kt.narrow.width; ++cols) {
        const std::string tag = std::string("NarrowSoftmaxRow [cap=") +
                                CpuCapabilityName(cap) + " rows=" +
                                std::to_string(rows) +
                                " cols=" + std::to_string(cols) + "]";
        util::Rng rng(static_cast<uint64_t>(rows * 100 + cols));
        std::vector<float> x = testing::RandomTensor({rows, cols}, &rng).vec();
        std::vector<float> g = testing::RandomTensor({rows, cols}, &rng).vec();
        for (size_t i = 1; i < x.size(); i += 3) x[i] = -1e9f;
        x[0] = -0.0f;
        if (rows > 2) x[static_cast<size_t>(2 * cols)] = std::nanf("");
        std::vector<float> want(x.size());
        std::vector<float> want_dx(x.size(), 0.5f);
        for (int64_t r = 0; r < rows; ++r) {
          kt.softmax_row(x.data() + r * cols, want.data() + r * cols, cols);
          kt.softmax_bwd_row(g.data() + r * cols, want.data() + r * cols,
                             want_dx.data() + r * cols, cols);
        }
        for (int threads : {1, 8}) {
          ctx.SetNumThreads(threads);
          ctx.SetForceSplit(true);
          Tensor y = tensor::Softmax(Tensor::FromVector({rows, cols}, x));
          testing::ExpectUlpClose(y.vec(), want, 0,
                                  tag + " threads=" + std::to_string(threads));
        }
        std::vector<float> dx(x.size(), 0.5f);
        kt.narrow.softmax_bwd_rows(g.data(), want.data(), dx.data(), rows,
                                   cols);
        testing::ExpectUlpClose(dx, want_dx, 0, tag + " backward");
      }
    }
  }
}

// ------------------------------------------------ vector-exp ULP budgets --

// ExpV flushes every input below its clamp bound (-87.34) to exactly +0.0f
// without forming a denormal on the way; Exp, Sigmoid and Softmax (whose
// -1e9 padding masks land there) inherit that on every vector tier.
TEST(SimdMathTest, UnderflowingExpFamilyIsExactlyPositiveZero) {
  const std::vector<float> xs = {-87.35f, -88.0f, -100.0f, -1e4f, -1e9f,
                                 -std::numeric_limits<float>::max(),
                                 -std::numeric_limits<float>::infinity()};
  const int64_t n = static_cast<int64_t>(xs.size());
  auto expect_plus_zero = [](const std::vector<float>& ys, size_t from,
                             size_t step, const std::string& tag) {
    for (size_t i = from; i < ys.size(); i += step) {
      EXPECT_EQ(std::fpclassify(ys[i]), FP_ZERO) << tag << " at " << i;
      EXPECT_FALSE(std::signbit(ys[i])) << tag << " at " << i;
    }
  };
  for (CpuCapability cap : tensor::AvailableCpuCapabilities()) {
    if (cap == CpuCapability::kScalar) continue;
    CpuCapabilityScope cap_scope(cap);
    const std::string tier = std::string(" [cap=") + CpuCapabilityName(cap) +
                             "]";
    Tensor x = Tensor::FromVector({n}, xs);
    expect_plus_zero(tensor::Exp(x).vec(), 0, 1, "Exp" + tier);
    expect_plus_zero(tensor::Sigmoid(x).vec(), 0, 1, "Sigmoid" + tier);
    // Rows [0, x, x, ...] of narrow and wide widths: every x entry is +0.
    for (int64_t cols : {int64_t{2}, int64_t{10}, int64_t{40}}) {
      std::vector<float> rows;
      for (float v : xs) {
        rows.push_back(0.0f);
        for (int64_t c = 1; c < cols; ++c) rows.push_back(v);
      }
      Tensor s = tensor::Softmax(Tensor::FromVector({n, cols}, rows));
      std::vector<float> ys = s.vec();
      for (int64_t r = 0; r < n; ++r) {
        EXPECT_EQ(ys[static_cast<size_t>(r * cols)], 1.0f) << "Softmax" << tier;
        ys[static_cast<size_t>(r * cols)] = 0.0f;
      }
      expect_plus_zero(ys, 0, 1,
                       "Softmax/cols" + std::to_string(cols) + tier);
    }
  }
}

// The vector exp family is tolerance-tier against the scalar tier, but each
// kernel also carries an absolute accuracy contract against correctly
// rounded double-precision libm. Sweeps include signed zeros, NaN,
// denormal inputs, and the saturation regions; Exp stays inside the vector
// clamp window [-87.336, 88.377] (outside it the vector tier saturates to
// 0 / exp(hi) by design while libm returns denormals / inf).
TEST(SimdMathTest, VectorExpFamilyMatchesLibmWithinUlps) {
  ComputeConfigGuard guard;
  ComputeContext& ctx = ComputeContext::Get();
  ctx.SetNumThreads(1);
  ctx.SetForceSplit(true);

  struct Case {
    const char* name;
    std::function<Tensor(const Tensor&)> op;
    std::function<double(double)> ref;
    float lo, hi;      // dense sweep window
    int64_t max_ulps;  // vs double-evaluated libm rounded to float
  };
  const std::vector<Case> cases = {
      {"Exp", [](const Tensor& a) { return tensor::Exp(a); },
       [](double x) { return std::exp(x); }, -87.0f, 88.0f, 8},
      // Below ~-87.3 the true sigmoid is denormal and the vector tier
      // flushes it to 0 (the ExpV clamp), so the sweep stays in the
      // normal-result window.
      {"Sigmoid", [](const Tensor& a) { return tensor::Sigmoid(a); },
       [](double x) { return 1.0 / (1.0 + std::exp(-x)); }, -87.0f, 87.0f,
       8},
      {"Tanh", [](const Tensor& a) { return tensor::Tanh(a); },
       [](double x) { return std::tanh(x); }, -20.0f, 20.0f, 16}};

  for (const Case& c : cases) {
    std::vector<float> xs;
    constexpr int kSweep = 4096;
    for (int i = 0; i < kSweep; ++i) {
      xs.push_back(c.lo + (c.hi - c.lo) * static_cast<float>(i) /
                              static_cast<float>(kSweep - 1));
    }
    for (float special : {0.0f, -0.0f, 1e-45f, -1e-45f, 1e-38f, -1e-38f,
                          std::numeric_limits<float>::quiet_NaN()}) {
      xs.push_back(special);
    }
    std::vector<float> expected;
    expected.reserve(xs.size());
    for (float x : xs) {
      expected.push_back(static_cast<float>(c.ref(static_cast<double>(x))));
    }
    const int64_t n = static_cast<int64_t>(xs.size());
    for (CpuCapability cap : tensor::AvailableCpuCapabilities()) {
      CpuCapabilityScope cap_scope(cap);
      Tensor x = Tensor::FromVector({n}, xs);
      testing::ExpectUlpClose(
          c.op(x).vec(), expected, c.max_ulps,
          std::string("UlpSweep/") + c.name + " [cap=" +
              CpuCapabilityName(cap) + "]");
    }
  }
}

// --------------------------------------------------------- random op chains --

// Seeded random graph fuzzer body: grows a DAG by repeatedly applying a
// random op to a random live node, then backprops a weighted sum of every
// live node. All structural decisions derive from shapes and the seeded
// Rng, so reference and optimized runs build the identical graph. Shared
// by the backend-differential and arena-differential tests below.
void RunRandomChain(uint64_t s, std::vector<float>* out) {
  constexpr int kSteps = 8;
  constexpr int64_t kMaxLiveNumel = 2048;
  util::Rng rng(s);
  util::Rng mask_rng(s ^ 0x9e3779b97f4a7c15ULL);
  std::vector<Tensor> leaves;
  std::vector<Tensor> live;
  Tensor x0 = testing::RandomTensor(testing::RandomShape(&rng, 1, 3, 4),
                                    &rng, true);
  leaves.push_back(x0);
  live.push_back(x0);
  for (int step = 0; step < kSteps; ++step) {
    Tensor t = live[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1))];
    const int choice = static_cast<int>(rng.UniformInt(0, 9));
    Tensor y;
    switch (choice) {
      case 0: {  // squashing unaries keep magnitudes bounded
        const int u = static_cast<int>(rng.UniformInt(0, 4));
        y = u == 0   ? tensor::Relu(t)
            : u == 1 ? tensor::LeakyRelu(t, 0.2f)
            : u == 2 ? tensor::Sigmoid(t)
            : u == 3 ? tensor::Tanh(t)
                     : tensor::Neg(t);
        break;
      }
      case 1: {  // binary against a fresh broadcast-shaped leaf
        Shape sb = testing::RandomBroadcastVariant(t.shape(), &rng);
        const int k = static_cast<int>(rng.UniformInt(0, 3));
        Tensor b = k == 3
                       ? testing::RandomTensor(sb, &rng, true, 0.5f,
                                               2.5f)
                       : testing::RandomTensor(sb, &rng, true);
        leaves.push_back(b);
        y = k == 0   ? tensor::Add(t, b)
            : k == 1 ? tensor::Sub(t, b)
            : k == 2 ? tensor::Mul(t, b)
                     : tensor::Div(t, b);
        break;
      }
      case 2: {  // flatten-then-matmul against a fresh weight
        Tensor flat = tensor::Reshape(t, {1, t.numel()});
        const int64_t r = rng.UniformInt(1, 3);
        Tensor w = testing::RandomTensor({t.numel(), r}, &rng, true);
        leaves.push_back(w);
        y = tensor::MatMul(flat, w);
        break;
      }
      case 3:
        y = t.rank() > 0 ? tensor::Softmax(t) : tensor::Tanh(t);
        break;
      case 4: {
        if (t.rank() > 0) {
          const int ax = static_cast<int>(
              rng.UniformInt(0, t.rank() - 1));
          y = tensor::SumAxis(t, ax, rng.Bernoulli(0.5));
        } else {
          y = tensor::Tanh(t);
        }
        break;
      }
      case 5:
        y = t.rank() >= 2 ? tensor::TransposeLast2(t)
                          : tensor::Sigmoid(t);
        break;
      case 6:
        y = tensor::Reshape(t, {t.numel()});
        break;
      case 7:
        y = tensor::Dropout(t, 0.3f, &mask_rng, true);
        break;
      case 8: {  // self-concat: one impl appears as two parents
        if (t.rank() > 0) {
          const int ax = static_cast<int>(
              rng.UniformInt(0, t.rank() - 1));
          y = tensor::Concat({t, t}, ax);
        } else {
          y = tensor::Stack({t, t});
        }
        break;
      }
      default:
        y = tensor::Stack({t, t});
        break;
    }
    // Size cap keeps chains cheap; the decision depends only on
    // shapes, so both backends grow the same graph.
    if (y.numel() <= kMaxLiveNumel) live.push_back(y);
  }
  Tensor loss = tensor::Sum(live[0]);
  for (size_t i = 1; i < live.size(); ++i) {
    loss = tensor::Add(loss, tensor::Sum(live[i]));
  }
  for (Tensor& leaf : leaves) leaf.ZeroGrad();
  loss.Backward();
  Emit(loss, out);
  for (const Tensor& t : live) Emit(t, out);
  for (const Tensor& leaf : leaves) EmitGrad(leaf, out);
}

TEST(DifferentialFuzzTest, RandomOpChains) {
  constexpr int kChains = 24;
  for (uint64_t chain = 0; chain < kChains; ++chain) {
    // Chains draw Sigmoid/Tanh/Softmax, so vector tiers compare under the
    // compounded exp-family tolerance.
    ExpectBackendsAgree(RunRandomChain, 8000 + chain,
                        "Chain/" + std::to_string(chain),
                        kExpFamilyChainTol);
  }
}

// Arena differential: the same chains, run with op results leased from a
// BufferArena. Consecutive scopes on one arena hand recycled — dirty —
// buffers to every kernel flagged ZeroInit::kSkip, so any kernel that does
// not actually overwrite its whole output (or any accumulating kernel
// missing its kZeroed flag) diverges from the owned-allocation oracle here.
TEST(DifferentialFuzzTest, ArenaScopedChainsMatchOwnedAllocation) {
  // The oracle is recomputed under each capability tier (owned allocations,
  // same tier as the arena runs), so the comparison stays bitwise even for
  // exp-family ops: this test isolates buffer recycling, and every vector
  // kernel must fully overwrite its output regardless of what the recycled
  // arena buffer held — including the padded-tail lanes.
  constexpr int kChains = 12;
  for (CpuCapability cap : tensor::AvailableCpuCapabilities()) {
    CpuCapabilityScope cap_scope(cap);
    for (uint64_t chain = 0; chain < kChains; ++chain) {
      const uint64_t seed = 8000 + chain;  // same chains as RandomOpChains
      const std::vector<float> oracle = RunProgram(RunRandomChain, seed);
      tensor::BufferArena arena;
      for (int round = 0; round < 3; ++round) {  // round > 0 recycles buffers
        tensor::ArenaScope scope(&arena);
        testing::ExpectUlpClose(
            RunProgram(RunRandomChain, seed), oracle,
            /*max_ulps=*/0,
            "ArenaChain/" + std::to_string(chain) + "/round" +
                std::to_string(round) + " [cap=" + CpuCapabilityName(cap) +
                "]");
      }
      EXPECT_GT(arena.stats().reuse_hits, 0) << "chain " << chain;
    }
  }
}

// -------------------------------------------------------- capture/replay --

// Replaying a captured plan must be bitwise identical to running the same
// program eagerly — for every backend, thread count, and replay index. The
// program routes all host data through HostTensor closures over stable
// objects (the ODNET consumer pattern) and includes Dropout, so the test
// also pins the RNG-stream contract: replay k consumes exactly the random
// numbers eager run k would have consumed.
TEST(DifferentialPlanTest, CaptureReplayMatchesEagerRunForRun) {
  ComputeConfigGuard guard;
  ComputeContext& ctx = ComputeContext::Get();
  constexpr int kRuns = 4;
  constexpr int64_t kB = 4;
  constexpr int64_t kD = 6;
  for (Backend backend : {Backend::kOptimized, Backend::kReference}) {
    BackendGuard bg(backend);
    for (int threads : {1, 2, 8}) {
      ctx.SetNumThreads(threads);
      ctx.SetForceSplit(true);

      // Host-side state: contents refreshed per run, objects stable.
      struct HostState {
        util::Rng data_rng{515};
        util::Rng mask_rng{707};
        std::vector<float> values = std::vector<float>(kB * kD);
        void Refresh() {
          for (float& v : values) {
            v = static_cast<float>(data_rng.UniformDouble(-1.0, 1.0));
          }
        }
      };
      util::Rng weight_rng(99);
      Tensor w1 = testing::RandomTensor({kD, 8}, &weight_rng);
      Tensor w2 = testing::RandomTensor({8, 3}, &weight_rng);
      auto program = [&w1, &w2](HostState* host) {
        const std::vector<float>* vals = &host->values;
        Tensor x = tensor::HostTensor({kB, kD}, [vals](float* out) {
          std::copy(vals->begin(), vals->end(), out);
        });
        Tensor h = tensor::Tanh(tensor::MatMul(x, w1));
        Tensor d = tensor::Dropout(h, 0.3f, &host->mask_rng, true);
        return std::vector<Tensor>{tensor::Softmax(tensor::MatMul(d, w2))};
      };

      // Oracle stream: kRuns eager executions with persistent host RNGs.
      HostState eager_host;
      std::vector<float> eager_stream;
      {
        tensor::NoGradGuard no_grad;
        for (int run = 0; run < kRuns; ++run) {
          eager_host.Refresh();
          Emit(program(&eager_host)[0], &eager_stream);
        }
      }

      // Plan stream: identical fresh host state, capture once, replay the
      // remaining runs.
      HostState plan_host;
      std::vector<float> plan_stream;
      plan_host.Refresh();
      std::vector<Tensor> captured;
      std::shared_ptr<tensor::GraphPlan> plan =
          tensor::GraphPlan::CaptureInference(
              [&program, &plan_host]() { return program(&plan_host); },
              &captured);
      EXPECT_TRUE(plan->has_host_stages());
      Emit(captured[0], &plan_stream);
      for (int run = 1; run < kRuns; ++run) {
        plan_host.Refresh();
        Emit(plan->Replay()[0], &plan_stream);
      }

      testing::ExpectUlpClose(
          plan_stream, eager_stream, /*max_ulps=*/0,
          std::string("CaptureReplay [backend=") +
              (backend == Backend::kReference ? "ref" : "opt") +
              " threads=" + std::to_string(threads) + "]");
    }
  }
}

// Plans stamp the SIMD capability tier at capture; replaying under any
// other tier must abort loudly (the recorded kernel closures re-resolve the
// dispatch table per execution, so a silent tier switch would change the
// numerics of a "captured" program).
TEST(DifferentialPlanDeathTest, ReplayRejectsCapabilitySwitch) {
  if (tensor::AvailableCpuCapabilities().size() < 2) {
    GTEST_SKIP() << "only the scalar tier is available; no switch to reject";
  }
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  util::Rng rng(31337);
  Tensor a = testing::RandomTensor({3, 4}, &rng);
  Tensor b = testing::RandomTensor({4, 2}, &rng);

  // Inference plan captured under the dispatched (max) tier.
  std::shared_ptr<tensor::GraphPlan> plan =
      tensor::GraphPlan::CaptureInference([&a, &b]() {
        return std::vector<Tensor>{tensor::Tanh(tensor::MatMul(a, b))};
      });
  plan->Replay();  // same tier: fine
  EXPECT_DEATH(
      {
        CpuCapabilityScope scope(CpuCapability::kScalar);
        plan->Replay();
      },
      "captured under CPU capability");
}

// ------------------------------------------------------ finite differences --

// Both backends must agree with numeric derivatives, not only with each
// other — a bug shared by both implementations would survive the
// differential tests but not central differences. Kink-free activations
// keep the numeric estimates clean.
TEST(DifferentialGradCheckTest, CompositeGraphsUnderBothBackends) {
  ComputeConfigGuard config_guard;
  for (Backend backend : {Backend::kOptimized, Backend::kReference}) {
    BackendGuard guard(backend);
    for (int threads : {1, 8}) {
      ComputeContext::Get().SetNumThreads(threads);
      ComputeContext::Get().SetForceSplit(true);
      util::Rng rng(11);
      Tensor a = testing::RandomTensor({3, 4}, &rng);
      Tensor b = testing::RandomTensor({4, 2}, &rng);
      Tensor c = testing::RandomTensor({1, 2}, &rng);
      testing::ExpectGradCheck(
          {a, b, c}, [](const std::vector<Tensor>& in) {
            Tensor y = tensor::Softmax(tensor::MatMul(in[0], in[1]));
            return tensor::Sum(tensor::Mul(y, in[2]));
          });

      Tensor d = testing::RandomTensor({2, 3, 1}, &rng);
      Tensor e = testing::RandomTensor({3, 4}, &rng, false, 0.5f, 2.5f);
      testing::ExpectGradCheck({d, e}, [](const std::vector<Tensor>& in) {
        return tensor::Mean(tensor::Tanh(tensor::Div(in[0], in[1])));
      });

      Tensor logits = testing::RandomTensor({5, 1}, &rng);
      Tensor targets = testing::RandomTensor({5, 1}, &rng, false, 0.05f,
                                             0.95f);
      testing::ExpectGradCheck(
          {logits, targets}, [](const std::vector<Tensor>& in) {
            return tensor::BceWithLogits(in[0], in[1]);
          });
    }
  }
}

// --------------------------------------------------------- golden digests --

// Fixed-seed tiny end-to-end ODNET training run, reduced to a digest of
// per-parameter statistics (count / mean / L2, accumulated in double) plus
// the Table-3 metric block. The digest is (a) asserted thread-count
// invariant — the determinism contract, environment-independent — and
// (b) compared against the checked-in golden file, which pins the exact
// training trajectory on the reference toolchain. Two runs are pinned: the
// single-worker loop and the synchronous parameter server (2 workers x 2
// shards, DESIGN.md §14), whose trajectories differ. Regenerate with
//   ODNET_UPDATE_GOLDEN=1 ctest -R Golden
// after an intentional numerics change, and eyeball the metric drift.

struct GoldenEntry {
  std::string name;
  double value = 0.0;
};

std::vector<GoldenEntry> ComputeTinyTrainDigest(int64_t train_workers,
                                                int64_t embedding_shards) {
  data::FliggyConfig dc;
  dc.num_users = 120;
  dc.num_cities = 25;
  dc.seed = 7;
  data::FliggySimulator simulator(dc);
  data::OdDataset dataset = simulator.Generate();

  core::OdnetConfig mc;
  mc.embed_dim = 8;
  mc.num_heads = 2;
  mc.expert_dim = 16;
  mc.tower_hidden = 8;
  mc.batch_size = 64;
  mc.epochs = 2;
  mc.seed = 13;
  mc.train_workers = train_workers;
  mc.embedding_shards = embedding_shards;
  baselines::OdnetRecommender odnet("ODNET-golden", &simulator.atlas(), mc);
  util::Status status = odnet.Fit(dataset);
  EXPECT_TRUE(status.ok()) << status.ToString();

  serving::EvalOptions options;
  options.num_candidates = 15;
  metrics::OdMetrics m =
      serving::EvaluateOdRecommender(&odnet, dataset, options);

  std::vector<GoldenEntry> digest;
  digest.push_back(
      {"dataset.train_samples",
       static_cast<double>(dataset.train_samples.size())});
  digest.push_back({"dataset.test_samples",
                    static_cast<double>(dataset.test_samples.size())});
  digest.push_back({"metric.auc_o", m.auc_o});
  digest.push_back({"metric.auc_d", m.auc_d});
  digest.push_back({"metric.hr1", m.hr1});
  digest.push_back({"metric.hr5", m.hr5});
  digest.push_back({"metric.hr10", m.hr10});
  digest.push_back({"metric.mrr5", m.mrr5});
  digest.push_back({"metric.mrr10", m.mrr10});
  for (const auto& [name, param] : odnet.model()->NamedParameters()) {
    double sum = 0.0;
    double sq = 0.0;
    for (float v : param.vec()) {
      sum += v;
      sq += static_cast<double>(v) * v;
    }
    const double n = static_cast<double>(param.numel());
    digest.push_back({"param." + name + ".count", n});
    digest.push_back({"param." + name + ".mean", sum / n});
    digest.push_back({"param." + name + ".l2", std::sqrt(sq)});
  }
  return digest;
}

// One pinned training run: its golden file stem, the description written
// into the file's header, and the trainer shape.
struct GoldenRun {
  const char* stem;
  const char* what;
  int64_t train_workers;
  int64_t embedding_shards;
};

// The scalar tier runs the verbatim pre-SIMD loop bodies, so its digest is
// pinned by the original golden file. Vector tiers route the exp family
// through polynomial kernels and own per-capability golden files (the
// digest is still asserted exactly thread-count invariant per tier —
// the padded-tail design makes vector kernels pure per-element maps).
std::string GoldenPathFor(const GoldenRun& run, CpuCapability cap) {
  std::string path = std::string(ODNET_GOLDEN_DIR) + "/" + run.stem;
  if (cap != CpuCapability::kScalar) {
    path += std::string(".") + CpuCapabilityName(cap);
  }
  return path + ".txt";
}

void ExpectTinyTrainDigestMatchesGolden(const GoldenRun& run) {
  ComputeConfigGuard guard;
  ComputeContext& ctx = ComputeContext::Get();
  ctx.SetForceSplit(true);

  // Forced-scalar and dispatched tiers verified in the same process: a
  // capability switch between runs must be possible outside plans (each run
  // captures and discards its own plans within the scope).
  for (CpuCapability cap : tensor::AvailableCpuCapabilities()) {
    CpuCapabilityScope cap_scope(cap);
    const std::string cap_tag =
        std::string(" [cap=") + CpuCapabilityName(cap) + "]";

    ctx.SetNumThreads(1);
    std::vector<GoldenEntry> digest =
        ComputeTinyTrainDigest(run.train_workers, run.embedding_shards);
    ASSERT_FALSE(digest.empty());

    // Thread-count invariance first: the whole train + eval trajectory must
    // be exactly reproducible under a parallel pool, for every tier.
    ctx.SetNumThreads(8);
    std::vector<GoldenEntry> digest8 =
        ComputeTinyTrainDigest(run.train_workers, run.embedding_shards);
    ASSERT_EQ(digest.size(), digest8.size());
    for (size_t i = 0; i < digest.size(); ++i) {
      EXPECT_EQ(digest[i].name, digest8[i].name);
      EXPECT_EQ(digest[i].value, digest8[i].value)
          << digest[i].name << " differs between 1 and 8 threads" << cap_tag;
    }

    const std::string golden_path = GoldenPathFor(run, cap);
    if (std::getenv("ODNET_UPDATE_GOLDEN") != nullptr) {
      std::ofstream out(golden_path);
      ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
      out << "# Golden digest of the " << run.what
          << " (cap=" << CpuCapabilityName(cap) << ").\n"
          << "# Regenerate: ODNET_UPDATE_GOLDEN=1 ctest -R Golden\n";
      out.precision(17);
      for (const GoldenEntry& e : digest) {
        out << e.name << " " << e.value << "\n";
      }
      continue;
    }

    std::ifstream in(golden_path);
    ASSERT_TRUE(in.good())
        << "missing golden file " << golden_path
        << "; run with ODNET_UPDATE_GOLDEN=1 to create it";
    std::map<std::string, double> golden;
    std::string name;
    double value = 0.0;
    while (in >> name) {
      if (!name.empty() && name[0] == '#') {
        std::string rest;
        std::getline(in, rest);
        continue;
      }
      ASSERT_TRUE(static_cast<bool>(in >> value))
          << "malformed line: " << name;
      golden[name] = value;
    }
    ASSERT_EQ(golden.size(), digest.size())
        << "golden entry count drifted; regenerate with ODNET_UPDATE_GOLDEN=1";
    for (const GoldenEntry& e : digest) {
      auto it = golden.find(e.name);
      ASSERT_NE(it, golden.end()) << "no golden entry for " << e.name;
      const double tol =
          1e-6 * std::max(1.0, std::max(std::fabs(e.value),
                                        std::fabs(it->second)));
      EXPECT_NEAR(e.value, it->second, tol) << e.name << cap_tag;
    }
  }
  if (std::getenv("ODNET_UPDATE_GOLDEN") != nullptr) {
    GTEST_SKIP() << "golden files regenerated under " << ODNET_GOLDEN_DIR;
  }
}

TEST(GoldenTest, TinyTrainDigestMatchesGolden) {
  ExpectTinyTrainDigestMatchesGolden(
      {"odnet_tiny_train_digest", "tiny fixed-seed ODNET train run", 1, 1});
}

// The parameter-server path has its own trajectory (per-slice sampling
// streams, slice-weighted gradient reduction), so it is pinned separately.
TEST(GoldenTest, TinyPsTrainDigestMatchesGolden) {
  ExpectTinyTrainDigestMatchesGolden(
      {"odnet_tiny_ps_train_digest",
       "tiny fixed-seed ODNET train run on the sync parameter server, 2 "
       "workers x 2 shards",
       2, 2});
}

}  // namespace
}  // namespace odnet
