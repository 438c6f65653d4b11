#ifndef ODNET_TENSOR_REFERENCE_BACKEND_H_
#define ODNET_TENSOR_REFERENCE_BACKEND_H_

#include <cstdint>
#include <functional>

#include "src/tensor/shape.h"

namespace odnet {
namespace tensor {
namespace reference {

// The correctness oracle behind Backend::kReference: naive, obviously-
// correct, single-threaded kernels for every op family that the optimized
// backend parallelizes or tiles. ops.cc routes through these when the
// calling thread selects the reference backend (ComputeContext::SetBackend),
// so the public op signatures are identical on both paths.
//
// Independence: these kernels share no iteration machinery with ops.cc —
// broadcast offsets are recomputed per element by plain div/mod (no
// incremental odometer, no effective-stride table), MatMul is the textbook
// triple loop (no tiling, no micro-kernels, no zero-skip), and nothing here
// touches the thread pool.
//
// Bitwise contract: per output element the *accumulation order* matches the
// serial order the optimized kernels guarantee (MatMul sums p ascending, dA
// sums j ascending, dB sums (batch, i) ascending, SumAxis sums the axis
// ascending, Softmax normalizes by multiplying with the reciprocal), so for
// finite inputs the optimized and reference results agree bit-for-bit — the
// differential fuzzer asserts exactly that.

// Scalar-op selector shared with ops.cc.
enum class BinaryKind { kAdd, kSub, kMul, kDiv };

/// Offset into contiguous `op_shape` storage of the element that broadcasts
/// to flat index `index` of `out_shape` (NumPy right-aligned semantics).
/// O(rank) div/mod per call — deliberately the slow, obvious formulation.
int64_t BroadcastOffset(const Shape& out_shape, const Shape& op_shape,
                        int64_t index);

// -- Elementwise binary (full broadcast) ----------------------------------

/// out[i] = op(a[broadcast(i)], b[broadcast(i)]) for every out element.
void BinaryForward(BinaryKind kind, const Shape& out_shape,
                   const Shape& a_shape, const Shape& b_shape, const float* a,
                   const float* b, float* out);

/// Accumulates d(out)/d(a) into `da` and d(out)/d(b) into `db` (either may
/// be null), iterating output elements ascending — the optimized path's
/// reduction order.
void BinaryBackward(BinaryKind kind, const Shape& out_shape,
                    const Shape& a_shape, const Shape& b_shape, const float* g,
                    const float* a, const float* b, float* da, float* db);

// -- Elementwise unary ------------------------------------------------------

/// out[i] = fwd(a[i]).
void UnaryForward(int64_t n, const float* a, float* out,
                  const std::function<float(float)>& fwd);

/// da[i] += g[i] * bwd(x[i], y[i]) where y is the forward output.
void UnaryBackward(int64_t n, const float* g, const float* x, const float* y,
                   float* da, const std::function<float(float, float)>& bwd);

// -- MatMul (forward + both backward products) ------------------------------

/// C[bt] = A[bt] * B[bt or 0]: textbook i/j loops with a p-ascending float
/// accumulator per output element.
void MatMulForward(const float* a, const float* b, float* out, int64_t batch,
                   int64_t m, int64_t k, int64_t n, bool b_batched);

/// dA[bt] += G[bt] * B[bt or 0]^T, summing j ascending per element.
void MatMulBackwardA(const float* b, const float* g, float* da, int64_t batch,
                     int64_t m, int64_t k, int64_t n, bool b_batched);

/// dB[bt] += A[bt]^T * G[bt] (batched) or dB += sum_bt A[bt]^T * G[bt]
/// (shared rhs), summing (batch, i) ascending per element.
void MatMulBackwardB(const float* a, const float* g, float* db, int64_t batch,
                     int64_t m, int64_t k, int64_t n, bool b_batched);

// -- Transpose --------------------------------------------------------------

/// out[.., j, i] = a[.., i, j] per batch of `rows` x `cols`.
void TransposeLast2Forward(const float* a, float* out, int64_t batch,
                           int64_t rows, int64_t cols);

/// da[.., i, j] += g[.., j, i].
void TransposeLast2Backward(const float* g, float* da, int64_t batch,
                            int64_t rows, int64_t cols);

// -- Reductions -------------------------------------------------------------

/// out[o, i] = sum_k a[o, k, i] with k ascending ([outer, axis, inner]).
void SumAxisForward(const float* a, float* out, int64_t outer,
                    int64_t axis_dim, int64_t inner);

/// da[o, k, i] += g[o, i].
void SumAxisBackward(const float* g, float* da, int64_t outer,
                     int64_t axis_dim, int64_t inner);

// -- Embedding lookup -------------------------------------------------------

/// out[i] = table[indices[i]] row copy, i ascending, one element at a time.
void EmbeddingLookupForward(const float* table, const int64_t* indices,
                            int64_t count, int64_t dim, float* out);

/// dtable[indices[i]] += g[i] scatter-add with i ascending — the order the
/// optimized scatter also follows.
void EmbeddingLookupBackward(const float* g, const int64_t* indices,
                             int64_t count, int64_t dim, float* dtable);

// -- Softmax ----------------------------------------------------------------

/// Row-wise stable softmax: max, exp(x - max) summed ascending, multiply by
/// the reciprocal of the total (the op's defined numerics).
void SoftmaxForward(const float* a, float* out, int64_t rows, int64_t cols);

/// dx = (dy - sum(dy * y)) * y per row, dot summed ascending.
void SoftmaxBackward(const float* g, const float* y, float* da, int64_t rows,
                     int64_t cols);

}  // namespace reference
}  // namespace tensor
}  // namespace odnet

#endif  // ODNET_TENSOR_REFERENCE_BACKEND_H_
