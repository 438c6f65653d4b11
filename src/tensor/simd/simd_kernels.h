#ifndef ODNET_TENSOR_SIMD_SIMD_KERNELS_H_
#define ODNET_TENSOR_SIMD_SIMD_KERNELS_H_

#include <cstdint>

#include "src/tensor/cpu_capability.h"

// DispatchStub-style per-kernel dispatch table (DESIGN.md §11).
//
// Every hot loop in the optimized backend and the optimizer row updates is
// expressed as a free-function kernel with a capability-indexed entry in
// `KernelTable`. The scalar tier is the verbatim portable loop (the numerics
// oracle); AVX2/AVX-512 tiers are compiled into dedicated translation units
// with the matching -m flags and registered here when
// ODNET_HAVE_AVX2_KERNELS / ODNET_HAVE_AVX512_KERNELS are defined.
//
// Numerics contract per kernel family:
//   bitwise    — the vector kernel produces bit-identical results to the
//                scalar tier for every input (lanes map to distinct output
//                elements; per-element accumulation order is preserved;
//                mul+add stays unfused). Covers binaries, scalar ops,
//                Relu/LeakyRelu, MatMul fwd/bwd, AddInto/Scale, and all
//                optimizer row updates.
//   tolerance  — the kernel uses the shared vector exp approximation and is
//                validated against the scalar tier by ULP/relative bounds in
//                the differential harness. Covers Sigmoid/Tanh/Exp forward
//                and Softmax fwd/bwd rows (whose horizontal sums also use a
//                fixed lane-tree order that differs from the scalar
//                left-to-right order).
// The active tier must not change under a captured plan: plans stamp the
// capture-time capability and their replays CHECK it (graph_plan.cc).

namespace odnet {
namespace tensor {
namespace simd {

/// Index into KernelTable::unary_fwd / unary_bwd. Log is deliberately not
/// dispatched: its eps-clamp semantics stay pinned to the scalar loop.
enum class UnaryEw : int {
  kRelu = 0,
  kLeakyRelu = 1,
  kSigmoid = 2,
  kTanh = 3,
  kExp = 4,
  kAddScalar = 5,
  kMulScalar = 6,
};
inline constexpr int kNumUnaryEw = 7;

/// Index into KernelTable::binary. Must match reference_backend.h's
/// BinaryKind order (kAdd, kSub, kMul, kDiv).
inline constexpr int kNumBinaryEw = 4;

// o[i] = a[i] op b[i]
using BinaryEwFn = void (*)(const float* a, const float* b, float* o,
                            int64_t n);
// y[i] = f(x[i], param)
using UnaryFwdFn = void (*)(const float* x, float param, float* y, int64_t n);
// dx[i] += g[i] * f'(x[i], y[i], param)
using UnaryBwdFn = void (*)(const float* g, const float* x, const float* y,
                            float param, float* dx, int64_t n);
// dst[i] += g[i] * other[i]   (Mul backward and Dropout backward)
using MulAccumFn = void (*)(const float* g, const float* other, float* dst,
                            int64_t n);
// da[i] += g[i] / b[i]
using DivBwdAFn = void (*)(const float* g, const float* b, float* da,
                           int64_t n);
// db[i] += -g[i] * a[i] / (b[i] * b[i])
using DivBwdBFn = void (*)(const float* g, const float* a, const float* b,
                           float* db, int64_t n);
// crow[j] += arow[p] * B[p * n + j] for p in [p0, p1), all j; rows with
// arow[p] == 0.0f are skipped (sparse one-hot fast path).
using MatMulRowFn = void (*)(const float* arow, const float* B, float* crow,
                             int64_t p0, int64_t p1, int64_t n);
// dbrow[j] += A[i * k + p] * G[i * n + j] for i in [0, m), all j.
using MatMulDbRowFn = void (*)(const float* A, const float* G, float* dbrow,
                               int64_t p, int64_t m, int64_t k, int64_t n);
// dst[i] += src[i]
using AddIntoFn = void (*)(const float* src, float* dst, int64_t n);
// p[i] *= s
using ScaleFn = void (*)(float* p, float s, int64_t n);
// y = softmax(x) over one row of `cols` elements.
using SoftmaxRowFn = void (*)(const float* x, float* y, int64_t cols);
// dx[c] += (g[c] - dot(g, y)) * y[c] over one row.
using SoftmaxBwdRowFn = void (*)(const float* g, const float* y, float* dx,
                                 int64_t cols);
// MatMulRowFn over `rows` consecutive rows of A and C at once (p over all of
// [0, k)), for a C row of n < NarrowKernels::width.
using MatMulRowsNarrowFn = void (*)(const float* A, const float* B, float* C,
                                    int64_t rows, int64_t k, int64_t n);
// MatMulDbRowFn for every dB row p in [p0, p1), n < NarrowKernels::width.
using MatMulDbRowsNarrowFn = void (*)(const float* A, const float* G,
                                      float* dB, int64_t p0, int64_t p1,
                                      int64_t m, int64_t k, int64_t n);
// SoftmaxRowFn / SoftmaxBwdRowFn over `rows` consecutive rows of
// cols < NarrowKernels::width.
using SoftmaxRowsNarrowFn = void (*)(const float* x, float* y, int64_t rows,
                                     int64_t cols);
using SoftmaxBwdRowsNarrowFn = void (*)(const float* g, const float* y,
                                        float* dx, int64_t rows, int64_t cols);
// m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g; w -= lr_t * m / (sqrt(v)+eps).
// g == nullptr means a decay row (g[j] treated as +0.0f).
using AdamRowFn = void (*)(float* w, float* m, float* v, const float* g,
                           float lr_t, float b1, float b2, float eps,
                           int64_t n);

// Narrow-row kernels (DESIGN.md §11): for rows narrower than one vector they
// put `width` rows in the lanes, one vector per column, and give each
// element exactly the row kernel's operation sequence — so they return the
// row kernels' bits. The scalar tier has none (width 0, null kernels).
struct NarrowKernels {
  int64_t width;  // the tier's lane count: rows narrower than this qualify
  MatMulRowsNarrowFn matmul_rows;
  MatMulDbRowsNarrowFn matmul_db_rows;
  SoftmaxRowsNarrowFn softmax_rows;
  SoftmaxBwdRowsNarrowFn softmax_bwd_rows;
};

struct KernelTable {
  BinaryEwFn binary[kNumBinaryEw];
  UnaryFwdFn unary_fwd[kNumUnaryEw];
  UnaryBwdFn unary_bwd[kNumUnaryEw];
  MulAccumFn mul_accum;
  DivBwdAFn div_bwd_a;
  DivBwdBFn div_bwd_b;
  MatMulRowFn matmul_row;
  MatMulDbRowFn matmul_db_row;
  AddIntoFn add_into;
  ScaleFn scale;
  SoftmaxRowFn softmax_row;
  SoftmaxBwdRowFn softmax_bwd_row;
  AdamRowFn adam_row;
  NarrowKernels narrow;
};

/// Table for an explicit tier; CHECK-fails if that tier is not compiled in.
const KernelTable& KernelsFor(CpuCapability cap);

/// Table for ActiveCpuCapability(). Kernel closures call this on every
/// execution (not at capture time) so replays re-resolve — and the plan's
/// capability stamp guarantees they resolve to the same tier.
inline const KernelTable& Kernels() { return KernelsFor(ActiveCpuCapability()); }

/// Highest tier with kernels compiled into this binary.
CpuCapability MaxCompiledCpuCapability();

// Each vector tier defines this exact kernel set inside its own namespace
// (see simd_vec_kernels.inc); the tier TUs are the only place the bodies are
// compiled, with the matching -m flags.
#define ODNET_SIMD_DECLARE_TIER(ns)                                           \
  namespace ns {                                                              \
  void AddEw(const float* a, const float* b, float* o, int64_t n);            \
  void SubEw(const float* a, const float* b, float* o, int64_t n);            \
  void MulEw(const float* a, const float* b, float* o, int64_t n);            \
  void DivEw(const float* a, const float* b, float* o, int64_t n);            \
  void ReluFwd(const float* x, float param, float* y, int64_t n);             \
  void LeakyReluFwd(const float* x, float param, float* y, int64_t n);        \
  void SigmoidFwd(const float* x, float param, float* y, int64_t n);          \
  void TanhFwd(const float* x, float param, float* y, int64_t n);             \
  void ExpFwd(const float* x, float param, float* y, int64_t n);              \
  void AddScalarFwd(const float* x, float param, float* y, int64_t n);        \
  void MulScalarFwd(const float* x, float param, float* y, int64_t n);        \
  void ReluBwd(const float* g, const float* x, const float* y, float param,   \
               float* dx, int64_t n);                                         \
  void LeakyReluBwd(const float* g, const float* x, const float* y,           \
                    float param, float* dx, int64_t n);                       \
  void SigmoidBwd(const float* g, const float* x, const float* y,             \
                  float param, float* dx, int64_t n);                         \
  void TanhBwd(const float* g, const float* x, const float* y, float param,   \
               float* dx, int64_t n);                                         \
  void ExpBwd(const float* g, const float* x, const float* y, float param,    \
              float* dx, int64_t n);                                          \
  void AddScalarBwd(const float* g, const float* x, const float* y,           \
                    float param, float* dx, int64_t n);                       \
  void MulScalarBwd(const float* g, const float* x, const float* y,           \
                    float param, float* dx, int64_t n);                       \
  void MulAccum(const float* g, const float* other, float* dst, int64_t n);   \
  void DivBwdA(const float* g, const float* b, float* da, int64_t n);         \
  void DivBwdB(const float* g, const float* a, const float* b, float* db,     \
               int64_t n);                                                    \
  void MatMulRow(const float* arow, const float* B, float* crow, int64_t p0,  \
                 int64_t p1, int64_t n);                                      \
  void MatMulDbRow(const float* A, const float* G, float* dbrow, int64_t p,   \
                   int64_t m, int64_t k, int64_t n);                          \
  void AddInto(const float* src, float* dst, int64_t n);                      \
  void Scale(float* p, float s, int64_t n);                                   \
  void SoftmaxRow(const float* x, float* y, int64_t cols);                    \
  void SoftmaxBwdRow(const float* g, const float* y, float* dx,               \
                     int64_t cols);                                           \
  void MatMulRowsNarrow(const float* A, const float* B, float* C,             \
                        int64_t rows, int64_t k, int64_t n);                  \
  void MatMulDbRowsNarrow(const float* A, const float* G, float* dB,          \
                          int64_t p0, int64_t p1, int64_t m, int64_t k,       \
                          int64_t n);                                         \
  void SoftmaxRowsNarrow(const float* x, float* y, int64_t rows,              \
                         int64_t cols);                                       \
  void SoftmaxBwdRowsNarrow(const float* g, const float* y, float* dx,        \
                            int64_t rows, int64_t cols);                      \
  void AdamRow(float* w, float* m, float* v, const float* g, float lr_t,      \
               float b1, float b2, float eps, int64_t n);                     \
  }  // namespace ns

#if defined(ODNET_HAVE_AVX2_KERNELS)
ODNET_SIMD_DECLARE_TIER(avx2)
#endif
#if defined(ODNET_HAVE_AVX512_KERNELS)
ODNET_SIMD_DECLARE_TIER(avx512)
#endif

}  // namespace simd
}  // namespace tensor
}  // namespace odnet

#endif  // ODNET_TENSOR_SIMD_SIMD_KERNELS_H_
