#include "src/tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/telemetry/telemetry.h"
#include "src/tensor/buffer_arena.h"
#include "src/tensor/compute_context.h"
#include "src/tensor/cpu_capability.h"
#include "src/tensor/graph_plan.h"
#include "src/tensor/reference_backend.h"
#include "src/tensor/simd/simd_kernels.h"

// Per-op dispatch telemetry (DESIGN.md §12): maintains CurrentOpName() for
// plan-node naming and, when telemetry is enabled, bumps the
// `tensor.op.<name>.<tier>` counter (and records a span when tracing). The
// tier string is resolved here — not inside OpScope — so the disabled path
// never touches the capability registry.
#define ODNET_OP_SCOPE(name)                                       \
  ::odnet::telemetry::OpScope _odnet_op_scope(                     \
      (name), ::odnet::telemetry::Enabled()                        \
                  ? CpuCapabilityName(ActiveCpuCapability())       \
                  : nullptr)

namespace odnet {
namespace tensor {

namespace {

using internal::TensorImpl;
using reference::BinaryKind;

ComputeContext& Ctx() { return ComputeContext::Get(); }

// True when the calling thread selected the reference oracle backend:
// kernels below route to the naive serial implementations in
// reference_backend.cc instead of the parallel tiled ones. Checked at
// forward *and* backward execution time — and at *replay* time, since the
// recorded plan kernels are the very closures below.
bool RefMode() { return ComputeContext::backend() == Backend::kReference; }

// Work per element, in scalar ops, that the fan-out sites report to
// ComputeContext::ParallelFor; a multiply-add counts once. One evaluation
// of the vector exp behind Sigmoid, Tanh, Exp and Softmax is about twenty
// instructions (simd_vec_kernels.inc, ExpV).
constexpr int64_t kExpOps = 20;
constexpr int64_t kSoftmaxOps = kExpOps + 4;  // max, subtract, sum, scale

int64_t UnaryWork(simd::UnaryEw kind) {
  switch (kind) {
    case simd::UnaryEw::kSigmoid:
    case simd::UnaryEw::kTanh:
    case simd::UnaryEw::kExp:
      return kExpOps;
    default:
      return 1;
  }
}

// MatMul tiling: process kMatMulRowBlock output rows against
// kMatMulKBlock-row slabs of B, so a slab (kKBlock * n floats) is reused
// across the row block while hot in cache. Accumulation order over p stays
// ascending per output element, so the tiled kernel is bitwise identical to
// the naive i/p/j loop.
constexpr int64_t kMatMulRowBlock = 16;
constexpr int64_t kMatMulKBlock = 64;

// The narrow-row kernels address a block's rows through int32 lane
// offsets (lane * stride); strides past this bound keep the row kernels.
constexpr int64_t kMaxNarrowStride = int64_t{1} << 26;

// Forward kernel over global output rows r = bt*m + i in [row_begin,
// row_end): C[r] += A[r] * B[bt]. The rank-1 row micro-kernel
// (crow += sum_p arow[p] * B[p], ascending p, zero rows of A skipped) comes
// from the capability dispatch table; every tier preserves that per-element
// accumulation order, so the tiled result stays bitwise identical to the
// naive i/p/j loop on any tier. Output rows narrower than a vector go to the
// tier's narrow kernel instead, which keeps that per-element order with a
// block of rows in the lanes; its blocks never span two batch entries, so
// every lane reads its own B. Free function with by-value arguments so the
// hot loops optimize independently of any closure.
void MatMulForwardRows(const simd::KernelTable& kt, const float* pa,
                       const float* pb, float* po, int64_t row_begin,
                       int64_t row_end, int64_t m, int64_t k, int64_t n,
                       bool b_batched) {
  const bool narrow = n < kt.narrow.width && k < kMaxNarrowStride;
  int64_t r = row_begin;
  while (r < row_end) {
    const int64_t bt = b_batched ? r / m : 0;
    const int64_t batch_lim =
        b_batched ? std::min(row_end, (bt + 1) * m) : row_end;
    const float* B = pb + (b_batched ? bt * k * n : 0);
    if (narrow) {
      kt.narrow.matmul_rows(pa + r * k, B, po + r * n, batch_lim - r, k, n);
      r = batch_lim;
      continue;
    }
    for (int64_t r0 = r; r0 < batch_lim; r0 += kMatMulRowBlock) {
      const int64_t r1 = std::min(batch_lim, r0 + kMatMulRowBlock);
      for (int64_t p0 = 0; p0 < k; p0 += kMatMulKBlock) {
        const int64_t p1 = std::min(k, p0 + kMatMulKBlock);
        for (int64_t rr = r0; rr < r1; ++rr) {
          kt.matmul_row(pa + rr * k, B, po + rr * n, p0, p1, n);
        }
      }
    }
    r = batch_lim;
  }
}

// A broadcast binary op's output walked as runs along its last dim: per
// run, each operand either advances with the run (step 1) or stays on one
// element (step 0, broadcast). Only the leading dims step an odometer, once
// per run. Rank 0 is one run of one element.
struct RunGrid {
  Shape outer;                      // the output's leading dims
  std::vector<int64_t> a_str;       // operand strides over `outer`
  std::vector<int64_t> b_str;
  int64_t len = 1;                  // run length: the output's last dim
  int64_t a_step = 0;               // operand strides along a run: 0 or 1
  int64_t b_step = 0;
  int64_t num_runs = 1;
};

// Effective strides of `shape` when broadcast to `out_shape`: right-aligned,
// 0 on broadcast/missing dims.
std::vector<int64_t> EffectiveStrides(const Shape& shape,
                                      const Shape& out_shape) {
  std::vector<int64_t> natural = ContiguousStrides(shape);
  std::vector<int64_t> eff(out_shape.size(), 0);
  for (size_t i = 0; i < shape.size(); ++i) {
    size_t out_dim = out_shape.size() - shape.size() + i;
    eff[out_dim] = (shape[i] == 1) ? 0 : natural[i];
  }
  return eff;
}

RunGrid MakeRunGrid(const Shape& out_shape, const Shape& a_shape,
                    const Shape& b_shape) {
  RunGrid grid;
  grid.a_str = EffectiveStrides(a_shape, out_shape);
  grid.b_str = EffectiveStrides(b_shape, out_shape);
  if (!out_shape.empty()) {
    grid.outer.assign(out_shape.begin(), out_shape.end() - 1);
    grid.len = out_shape.back();
    grid.a_step = grid.a_str.back();
    grid.b_step = grid.b_str.back();
    grid.a_str.pop_back();
    grid.b_str.pop_back();
    grid.num_runs = grid.len == 0 ? 0 : Numel(grid.outer);
  }
  return grid;
}

// Calls fn(run, a_off, b_off) for every run in order, with each operand's
// offset at the run's first element.
template <typename Fn>
void ForEachRun(const RunGrid& grid, Fn&& fn) {
  const Shape& dims = grid.outer;
  const int64_t rank = static_cast<int64_t>(dims.size());
  std::vector<int64_t> counter(dims.size(), 0);
  int64_t a_off = 0;
  int64_t b_off = 0;
  for (int64_t run = 0; run < grid.num_runs; ++run) {
    fn(run, a_off, b_off);
    for (int64_t d = rank - 1; d >= 0; --d) {
      ++counter[d];
      a_off += grid.a_str[d];
      b_off += grid.b_str[d];
      if (counter[d] < dims[d]) break;
      a_off -= grid.a_str[d] * dims[d];
      b_off -= grid.b_str[d] * dims[d];
      counter[d] = 0;
    }
  }
}

// o[t] = op(x[t], y[t]) over one run of `len` with one side broadcast:
// x stays on x[0] when `x_fixed`, else y stays on y[0].
template <typename Op>
void RunLoop(const float* x, const float* y, bool x_fixed, float* o,
             int64_t len, Op op) {
  if (x_fixed) {
    const float xv = *x;
    for (int64_t t = 0; t < len; ++t) o[t] = op(xv, y[t]);
  } else {
    const float yv = *y;
    for (int64_t t = 0; t < len; ++t) o[t] = op(x[t], yv);
  }
}

// Accumulates `grad` (laid out as `from` shape) scaled by `scale` into
// `accum` (laid out as `to`, which `to` broadcasts to `from`). Serial, run
// by run, so every slot of `accum` sums its contributions in ascending
// element order.
void ReduceGradToShape(const std::vector<float>& grad, const Shape& from,
                       const Shape& to, float scale,
                       std::vector<float>* accum) {
  float* dst = accum->data();
  if (SameShape(from, to)) {
    if (scale == 1.0f) {
      for (size_t i = 0; i < grad.size(); ++i) dst[i] += grad[i];
    } else {
      for (size_t i = 0; i < grad.size(); ++i) dst[i] += scale * grad[i];
    }
    return;
  }
  const RunGrid grid = MakeRunGrid(from, to, to);  // one operand: `to`
  const int64_t len = grid.len;
  ForEachRun(grid, [&](int64_t run, int64_t t_off, int64_t) {
    const float* g = grad.data() + run * len;
    float* d = dst + t_off;
    if (grid.a_step == 0) {
      float sum = *d;
      for (int64_t t = 0; t < len; ++t) sum += scale * g[t];
      *d = sum;
    } else {
      for (int64_t t = 0; t < len; ++t) d[t] += scale * g[t];
    }
  });
}

Shape BroadcastOrDie(const Shape& a, const Shape& b) {
  auto result = BroadcastShapes(a, b);
  ODNET_CHECK(result.ok()) << result.status().ToString();
  return result.value();
}

// Dispatches `kind` once into a specialized scalar op so the inner loops
// carry no switch.
template <typename Fn>
auto WithBinaryKernel(BinaryKind kind, Fn&& fn) {
  switch (kind) {
    case BinaryKind::kAdd:
      return fn([](float x, float y) { return x + y; });
    case BinaryKind::kSub:
      return fn([](float x, float y) { return x - y; });
    case BinaryKind::kMul:
      return fn([](float x, float y) { return x * y; });
    case BinaryKind::kDiv:
      return fn([](float x, float y) { return x / y; });
  }
  ODNET_CHECK(false) << "unreachable";
  return fn([](float, float) { return 0.0f; });
}

void BinaryBackward(BinaryKind kind, const Shape& out_shape,
                    const Shape& a_shape, const Shape& b_shape,
                    TensorImpl* self) {
  TensorImpl* ia = self->parents[0].get();
  TensorImpl* ib = self->parents[1].get();
  const bool need_a = ia->requires_grad;
  const bool need_b = ib->requires_grad;
  if (!need_a && !need_b) return;
  const std::vector<float>& g = self->grad;

  if (RefMode()) {
    reference::BinaryBackward(kind, out_shape, a_shape, b_shape, g.data(),
                              ia->data().data(), ib->data().data(),
                              need_a ? ia->grad.data() : nullptr,
                              need_b ? ib->grad.data() : nullptr);
    return;
  }

  if (kind == BinaryKind::kAdd || kind == BinaryKind::kSub) {
    // d/da = g and d/db = +/-g: reduce the output gradient directly, with
    // no staging buffers and no operand iteration.
    if (need_a) ReduceGradToShape(g, out_shape, a_shape, 1.0f, &ia->grad);
    if (need_b) {
      ReduceGradToShape(g, out_shape, b_shape,
                        kind == BinaryKind::kAdd ? 1.0f : -1.0f, &ib->grad);
    }
    return;
  }

  const bool same_shapes =
      SameShape(out_shape, a_shape) && SameShape(out_shape, b_shape);
  if (same_shapes) {
    // No broadcasting: accumulate in place, each index disjoint.
    const float* pg = g.data();
    const float* pa = ia->data().data();
    const float* pb = ib->data().data();
    float* da = need_a ? ia->grad.data() : nullptr;
    float* db = need_b ? ib->grad.data() : nullptr;
    const int64_t n = Numel(out_shape);
    const simd::KernelTable& kt = simd::Kernels();
    if (kind == BinaryKind::kMul) {
      if (da != nullptr) kt.mul_accum(pg, pb, da, n);
      if (db != nullptr) kt.mul_accum(pg, pa, db, n);
    } else {  // kDiv
      if (da != nullptr) kt.div_bwd_a(pg, pb, da, n);
      if (db != nullptr) kt.div_bwd_b(pg, pa, pb, db, n);
    }
    return;
  }

  // Broadcasting mul/div: one pass building only the needed sides in output
  // layout, run by run, then reduce into each parent's shape.
  const int64_t n = Numel(out_shape);
  std::vector<float> ga;
  std::vector<float> gb;
  if (need_a) ga.resize(static_cast<size_t>(n));
  if (need_b) gb.resize(static_cast<size_t>(n));
  const float* pg = g.data();
  const float* pa = ia->data().data();
  const float* pb = ib->data().data();
  const RunGrid grid = MakeRunGrid(out_shape, a_shape, b_shape);
  const int64_t len = grid.len;
  const simd::KernelTable& kt = simd::Kernels();
  // d = g op other over one run, `other` advancing with `step` (0 or 1).
  auto run_op = [&](const float* gr, const float* other, int64_t step,
                    float* d) {
    if (step == 1) {
      kt.binary[static_cast<int>(kind)](gr, other, d, len);
      return;
    }
    WithBinaryKernel(kind, [&](auto op) {
      RunLoop(gr, other, /*x_fixed=*/false, d, len, op);
    });
  };
  ForEachRun(grid, [&](int64_t run, int64_t oa, int64_t ob) {
    const float* gr = pg + run * len;
    // ga = g * b (Mul) or g / b (Div).
    if (need_a) run_op(gr, pb + ob, grid.b_step, ga.data() + run * len);
    if (!need_b) return;
    float* d = gb.data() + run * len;
    if (kind == BinaryKind::kMul) {  // gb = g * a
      run_op(gr, pa + oa, grid.a_step, d);
      return;
    }
    const float* ar = pa + oa;  // gb = -g * a / (b * b)
    const float* br = pb + ob;
    for (int64_t t = 0; t < len; ++t) {
      const float y = br[t * grid.b_step];
      d[t] = -gr[t] * ar[t * grid.a_step] / (y * y);
    }
  });
  if (need_a) ReduceGradToShape(ga, out_shape, a_shape, 1.0f, &ia->grad);
  if (need_b) ReduceGradToShape(gb, out_shape, b_shape, 1.0f, &ib->grad);
}

Tensor BinaryOp(const Tensor& a, const Tensor& b, BinaryKind kind,
                const char* op_name) {
  ODNET_OP_SCOPE(op_name);
  ODNET_CHECK(a.defined() && b.defined());
  Shape out_shape = BroadcastOrDie(a.shape(), b.shape());
  Shape a_shape = a.shape();
  Shape b_shape = b.shape();
  OpBuffer out = AllocOpResult(Numel(out_shape), ZeroInit::kSkip);

  const bool same_shape = SameShape(a_shape, b_shape);
  const RunGrid grid =
      same_shape ? RunGrid{} : MakeRunGrid(out_shape, a_shape, b_shape);

  // The forward kernel, shared verbatim between the eager call below and
  // the replay node (so replay is bitwise identical by construction).
  auto run = [kind, out_shape, a_shape, b_shape, same_shape, grid](
                 const float* pa, const float* pb, float* po) {
    if (RefMode()) {
      reference::BinaryForward(kind, out_shape, a_shape, b_shape, pa, pb, po);
    } else if (same_shape) {
      // Fast path: no broadcasting. Resolved per execution, not per capture,
      // so a replayed plan picks the (stamped, CHECK-verified) active tier.
      const int64_t n = Numel(out_shape);
      const simd::BinaryEwFn fn = simd::Kernels().binary[static_cast<int>(kind)];
      Ctx().ParallelFor(n, 1, [&](int64_t b0, int64_t b1) {
        fn(pa + b0, pb + b0, po + b0, b1 - b0);
      });
    } else {
      // Broadcast: runs where both sides advance take the tier kernel; a
      // run with one side broadcast holds that side's value fixed.
      const int64_t len = grid.len;
      const simd::BinaryEwFn fn =
          simd::Kernels().binary[static_cast<int>(kind)];
      WithBinaryKernel(kind, [&](auto op) {
        ForEachRun(grid, [&](int64_t run, int64_t oa, int64_t ob) {
          float* o = po + run * len;
          if (grid.a_step == grid.b_step) {
            fn(pa + oa, pb + ob, o, len);
          } else {
            RunLoop(pa + oa, pb + ob, grid.a_step == 0, o, len, op);
          }
        });
      });
    }
  };
  run(a.data(), b.data(), out.data());

  Tensor result = Tensor::MakeForOp(
      out_shape, std::move(out), {a, b},
      [kind, out_shape, a_shape, b_shape](TensorImpl* self) {
        BinaryBackward(kind, out_shape, a_shape, b_shape, self);
      });
  if (capture::Active()) {
    capture::RecordOp(result, {a, b}, [run](const ReplayPtrs& p) {
      run(p.in[0], p.in[1], p.out);
    });
  }
  return result;
}

template <typename FwdFn, typename BwdFn>
Tensor UnaryOp(const Tensor& a, const char* op_name, FwdFn fwd, BwdFn bwd) {
  ODNET_OP_SCOPE(op_name);
  ODNET_CHECK(a.defined());
  const int64_t n = a.numel();
  OpBuffer out = AllocOpResult(n, ZeroInit::kSkip);
  auto run = [fwd, n](const float* pa, float* po) {
    if (RefMode()) {
      reference::UnaryForward(n, pa, po, fwd);
    } else {
      for (int64_t i = 0; i < n; ++i) po[i] = fwd(pa[i]);
    }
  };
  run(a.data(), out.data());
  Tensor result = Tensor::MakeForOp(
      a.shape(), std::move(out), {a}, [bwd](TensorImpl* self) {
        TensorImpl* parent = self->parents[0].get();
        if (!parent->requires_grad) return;
        const float* g = self->grad.data();
        const float* px = parent->data().data();
        const float* py = self->data().data();
        float* pg = parent->grad.data();
        const int64_t gn = static_cast<int64_t>(self->grad.size());
        if (RefMode()) {
          reference::UnaryBackward(gn, g, px, py, pg, bwd);
          return;
        }
        for (int64_t i = 0; i < gn; ++i) pg[i] += g[i] * bwd(px[i], py[i]);
      });
  if (capture::Active()) {
    capture::RecordOp(result, {a},
                      [run](const ReplayPtrs& p) { run(p.in[0], p.out); });
  }
  return result;
}

// Unary op with a capability-dispatched kernel. The scalar lambdas carry
// the oracle semantics for the reference backend; the optimized backend
// routes through the `kind` entry of the active tier's table (resolved per
// execution so replays re-resolve under their stamped capability).
template <typename FwdFn, typename BwdFn>
Tensor DispatchedUnaryOp(const Tensor& a, const char* op_name,
                         simd::UnaryEw kind, float param, FwdFn fwd,
                         BwdFn bwd) {
  ODNET_OP_SCOPE(op_name);
  ODNET_CHECK(a.defined());
  const int64_t n = a.numel();
  OpBuffer out = AllocOpResult(n, ZeroInit::kSkip);
  auto run = [fwd, kind, param, n](const float* pa, float* po) {
    if (RefMode()) {
      reference::UnaryForward(n, pa, po, fwd);
    } else {
      const simd::UnaryFwdFn fn =
          simd::Kernels().unary_fwd[static_cast<int>(kind)];
      Ctx().ParallelFor(n, UnaryWork(kind), [&](int64_t b0, int64_t b1) {
        fn(pa + b0, param, po + b0, b1 - b0);
      });
    }
  };
  run(a.data(), out.data());
  Tensor result = Tensor::MakeForOp(
      a.shape(), std::move(out), {a}, [bwd, kind, param](TensorImpl* self) {
        TensorImpl* parent = self->parents[0].get();
        if (!parent->requires_grad) return;
        const float* g = self->grad.data();
        const float* px = parent->data().data();
        const float* py = self->data().data();
        float* pg = parent->grad.data();
        const int64_t gn = static_cast<int64_t>(self->grad.size());
        if (RefMode()) {
          reference::UnaryBackward(gn, g, px, py, pg, bwd);
          return;
        }
        simd::Kernels().unary_bwd[static_cast<int>(kind)](g, px, py, param, pg,
                                                          gn);
      });
  if (capture::Active()) {
    capture::RecordOp(result, {a},
                      [run](const ReplayPtrs& p) { run(p.in[0], p.out); });
  }
  return result;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, BinaryKind::kAdd, "Add");
}
Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, BinaryKind::kSub, "Sub");
}
Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, BinaryKind::kMul, "Mul");
}
Tensor Div(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, BinaryKind::kDiv, "Div");
}

Tensor AddScalar(const Tensor& a, float s) {
  return DispatchedUnaryOp(
      a, "AddScalar", simd::UnaryEw::kAddScalar, s,
      [s](float x) { return x + s; }, [](float, float) { return 1.0f; });
}

Tensor MulScalar(const Tensor& a, float s) {
  return DispatchedUnaryOp(
      a, "MulScalar", simd::UnaryEw::kMulScalar, s,
      [s](float x) { return x * s; }, [s](float, float) { return s; });
}

Tensor Neg(const Tensor& a) { return MulScalar(a, -1.0f); }

Tensor Relu(const Tensor& a) {
  return DispatchedUnaryOp(
      a, "Relu", simd::UnaryEw::kRelu, 0.0f,
      [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

Tensor LeakyRelu(const Tensor& a, float slope) {
  return DispatchedUnaryOp(
      a, "LeakyRelu", simd::UnaryEw::kLeakyRelu, slope,
      [slope](float x) { return x > 0.0f ? x : slope * x; },
      [slope](float x, float) { return x > 0.0f ? 1.0f : slope; });
}

Tensor Sigmoid(const Tensor& a) {
  return DispatchedUnaryOp(
      a, "Sigmoid", simd::UnaryEw::kSigmoid, 0.0f,
      [](float x) {
        if (x >= 0.0f) return 1.0f / (1.0f + std::exp(-x));
        float z = std::exp(x);
        return z / (1.0f + z);
      },
      [](float, float y) { return y * (1.0f - y); });
}

Tensor Tanh(const Tensor& a) {
  return DispatchedUnaryOp(
      a, "Tanh", simd::UnaryEw::kTanh, 0.0f,
      [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0f - y * y; });
}

Tensor Exp(const Tensor& a) {
  return DispatchedUnaryOp(
      a, "Exp", simd::UnaryEw::kExp, 0.0f,
      [](float x) { return std::exp(x); }, [](float, float y) { return y; });
}

Tensor Log(const Tensor& a, float eps) {
  return UnaryOp(
      a, "Log", [eps](float x) { return std::log(std::max(x, eps)); },
      [eps](float x, float) { return 1.0f / std::max(x, eps); });
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  ODNET_OP_SCOPE("MatMul");
  ODNET_CHECK(a.defined() && b.defined());
  const int ra = a.rank();
  const int rb = b.rank();
  ODNET_CHECK(ra == 2 || ra == 3) << "MatMul lhs rank " << ra;
  ODNET_CHECK(rb == 2 || rb == 3) << "MatMul rhs rank " << rb;
  ODNET_CHECK(!(ra == 2 && rb == 3)) << "MatMul: 2-D lhs with 3-D rhs";

  const int64_t batch = ra == 3 ? a.dim(0) : 1;
  const int64_t m = a.dim(ra - 2);
  const int64_t k = a.dim(ra - 1);
  ODNET_CHECK_EQ(k, b.dim(rb - 2))
      << "MatMul inner dims: " << ShapeToString(a.shape()) << " x "
      << ShapeToString(b.shape());
  const int64_t n = b.dim(rb - 1);
  const bool b_batched = rb == 3;
  if (b_batched && ra == 3) {
    ODNET_CHECK_EQ(a.dim(0), b.dim(0)) << "MatMul batch dims";
  }

  Shape out_shape = ra == 3 ? Shape{batch, m, n} : Shape{m, n};
  // The optimized forward accumulates into the output, so the buffer must
  // start all-zero (the reference kernel fully overwrites; zeroing is
  // harmless there).
  OpBuffer out = AllocOpResult(batch * m * n, ZeroInit::kZeroed);

  auto run = [batch, m, k, n, b_batched](const float* pa, const float* pb,
                                         float* po) {
    if (RefMode()) {
      reference::MatMulForward(pa, pb, po, batch, m, k, n, b_batched);
    } else {
      // Tiled forward over global output rows r = bt*m + i; A's row is
      // pa + r*k and C's row is po + r*n. Workers own disjoint row ranges.
      const simd::KernelTable& kt = simd::Kernels();
      Ctx().ParallelFor(batch * m, k * n,
                        [=, &kt](int64_t row_begin, int64_t row_end) {
                          MatMulForwardRows(kt, pa, pb, po, row_begin, row_end,
                                            m, k, n, b_batched);
                        });
    }
  };
  run(a.data(), b.data(), out.data());

  Tensor result = Tensor::MakeForOp(
      out_shape, std::move(out), {a, b},
      [batch, m, k, n, b_batched](TensorImpl* self) {
        TensorImpl* ia = self->parents[0].get();
        TensorImpl* ib = self->parents[1].get();
        const float* G = self->grad.data();
        if (RefMode()) {
          if (ia->requires_grad) {
            reference::MatMulBackwardA(ib->data().data(), G, ia->grad.data(),
                                       batch, m, k, n, b_batched);
          }
          if (ib->requires_grad) {
            reference::MatMulBackwardB(ia->data().data(), G, ib->grad.data(),
                                       batch, m, k, n, b_batched);
          }
          return;
        }
        // dA[b] = G[b] * B[b]^T, partitioned by dA rows (disjoint writes).
        // B is transposed into a scratch Bt (an exact, order-free copy) so
        // dA is the forward product G[b] * Bt[b]: with Bt[j*k+p] ==
        // B[p*n+j], accumulating ascending j with grad-zero entries skipped
        // replays the old strided column kernel's per-element sequence
        // exactly — bitwise identical, on every tier, narrow rows included.
        const simd::KernelTable& kt = simd::Kernels();
        if (ia->requires_grad) {
          const float* pb = ib->data().data();
          float* da = ia->grad.data();
          const int64_t nb = b_batched ? batch : 1;
          std::vector<float> bt_buf(static_cast<size_t>(nb * n * k));
          float* bt0 = bt_buf.data();
          for (int64_t r = 0; r < nb * n; ++r) {
            const int64_t bi = r / n;
            const int64_t j = r % n;
            const float* src = pb + bi * k * n;
            float* dst = bt0 + bi * n * k + j * k;
            for (int64_t p = 0; p < k; ++p) dst[p] = src[p * n + j];
          }
          const float* pbt = bt0;
          Ctx().ParallelFor(batch * m, k * n,
                            [=, &kt](int64_t row_begin, int64_t row_end) {
                              MatMulForwardRows(kt, G, pbt, da, row_begin,
                                                row_end, m, n, k, b_batched);
                            });
        }
        // dB[b] += A[b]^T * G[b]. A shared B's dB is partitioned by rows
        // p: each worker owns whole rows of dB, summing contributions in
        // (batch, i) order — the same order as the serial kernel. For dB
        // rows narrower than a vector, the narrow kernel takes a worker's
        // rows as one block (a shared B's batch entries are consecutive
        // rows of A and G, so it sums all batch*m of them in that same
        // order). A batched B (attention's per-row products) runs serially.
        if (ib->requires_grad) {
          const float* pa = ia->data().data();
          float* db = ib->grad.data();
          const simd::MatMulDbRowFn db_row_fn = kt.matmul_db_row;
          const simd::MatMulDbRowsNarrowFn db_narrow = kt.narrow.matmul_db_rows;
          const bool narrow = n < kt.narrow.width;
          if (b_batched) {
            for (int64_t bt = 0; bt < batch; ++bt) {
              const float* a_bt = pa + bt * m * k;
              const float* g_bt = G + bt * m * n;
              float* db_bt = db + bt * k * n;
              if (narrow) {
                db_narrow(a_bt, g_bt, db_bt, 0, k, m, k, n);
              } else {
                for (int64_t p = 0; p < k; ++p) {
                  db_row_fn(a_bt, g_bt, db_bt + p * n, p, m, k, n);
                }
              }
            }
          } else {
            Ctx().ParallelFor(
                k, batch * m * n,
                [=](int64_t p_begin, int64_t p_end) {
                  if (narrow) {
                    db_narrow(pa, G, db, p_begin, p_end, batch * m, k, n);
                    return;
                  }
                  for (int64_t p = p_begin; p < p_end; ++p) {
                    for (int64_t bt = 0; bt < batch; ++bt) {
                      db_row_fn(pa + bt * m * k, G + bt * m * n, db + p * n,
                                p, m, k, n);
                    }
                  }
                });
          }
        }
      });
  if (capture::Active()) {
    capture::RecordOp(
        result, {a, b},
        [run](const ReplayPtrs& p) { run(p.in[0], p.in[1], p.out); },
        /*zero_init_output=*/true);
  }
  return result;
}

Tensor TransposeLast2(const Tensor& a) {
  ODNET_OP_SCOPE("TransposeLast2");
  ODNET_CHECK(a.defined());
  ODNET_CHECK_GE(a.rank(), 2);
  Shape in_shape = a.shape();
  Shape out_shape = in_shape;
  std::swap(out_shape[out_shape.size() - 1], out_shape[out_shape.size() - 2]);
  const int64_t rows = in_shape[in_shape.size() - 2];
  const int64_t cols = in_shape[in_shape.size() - 1];
  const int64_t batch = Numel(in_shape) / (rows * cols);
  OpBuffer out = AllocOpResult(a.numel(), ZeroInit::kSkip);
  auto run = [batch, rows, cols](const float* pa, float* po) {
    if (RefMode()) {
      reference::TransposeLast2Forward(pa, po, batch, rows, cols);
    } else {
      for (int64_t bt = 0; bt < batch; ++bt) {
        const float* src = pa + bt * rows * cols;
        float* dst = po + bt * rows * cols;
        for (int64_t i = 0; i < rows; ++i) {
          for (int64_t j = 0; j < cols; ++j) {
            dst[j * rows + i] = src[i * cols + j];
          }
        }
      }
    }
  };
  run(a.data(), out.data());
  Tensor result = Tensor::MakeForOp(
      out_shape, std::move(out), {a}, [rows, cols, batch](TensorImpl* self) {
        TensorImpl* parent = self->parents[0].get();
        if (!parent->requires_grad) return;
        // Transposing the gradient back: grad layout is [.., cols, rows].
        const float* g0 = self->grad.data();
        float* d0 = parent->grad.data();
        if (RefMode()) {
          reference::TransposeLast2Backward(g0, d0, batch, rows, cols);
          return;
        }
        for (int64_t bt = 0; bt < batch; ++bt) {
          const float* g = g0 + bt * rows * cols;
          float* dst = d0 + bt * rows * cols;
          for (int64_t j = 0; j < cols; ++j) {
            for (int64_t i = 0; i < rows; ++i) {
              dst[i * cols + j] += g[j * rows + i];
            }
          }
        }
      });
  if (capture::Active()) {
    capture::RecordOp(result, {a},
                      [run](const ReplayPtrs& p) { run(p.in[0], p.out); });
  }
  return result;
}

Tensor Reshape(const Tensor& a, const Shape& new_shape) {
  ODNET_OP_SCOPE("Reshape");
  ODNET_CHECK(a.defined());
  ODNET_CHECK_EQ(Numel(a.shape()), Numel(new_shape))
      << ShapeToString(a.shape()) << " -> " << ShapeToString(new_shape);
  if (RefMode()) {
    // Oracle semantics for the zero-copy view: a plain materialized copy
    // with elementwise gradient routing. The differential tests compare
    // this against the aliasing view node below.
    const int64_t n = a.numel();
    OpBuffer out = AllocOpResult(n, ZeroInit::kSkip);
    auto run = [n](const float* pa, float* po) {
      std::memcpy(po, pa, static_cast<size_t>(n) * sizeof(float));
    };
    run(a.data(), out.data());
    Tensor result = Tensor::MakeForOp(
        new_shape, std::move(out), {a}, [](TensorImpl* self) {
          TensorImpl* parent = self->parents[0].get();
          if (!parent->requires_grad) return;
          const float* g = self->grad.data();
          float* pg = parent->grad.data();
          const int64_t gn = static_cast<int64_t>(self->grad.size());
          for (int64_t i = 0; i < gn; ++i) pg[i] += g[i];
        });
    if (capture::Active()) {
      capture::RecordOp(result, {a},
                        [run](const ReplayPtrs& p) { run(p.in[0], p.out); });
    }
    return result;
  }
  // Zero-copy: the view aliases the parent's storage; only the grad buffer
  // is per-node, routed back elementwise.
  Tensor result = Tensor::MakeViewForOp(new_shape, a, [](TensorImpl* self) {
    TensorImpl* parent = self->parents[0].get();
    if (!parent->requires_grad) return;
    const float* g = self->grad.data();
    float* pg = parent->grad.data();
    simd::Kernels().add_into(g, pg, static_cast<int64_t>(self->grad.size()));
  });
  if (capture::Active()) capture::RecordAlias(result, a);
  return result;
}

Tensor Concat(const std::vector<Tensor>& inputs, int axis) {
  ODNET_OP_SCOPE("Concat");
  ODNET_CHECK(!inputs.empty());
  const Shape& first = inputs[0].shape();
  int rank = inputs[0].rank();
  if (axis < 0) axis += rank;
  ODNET_CHECK_GE(axis, 0);
  ODNET_CHECK_LT(axis, rank);

  int64_t concat_dim = 0;
  for (const Tensor& t : inputs) {
    ODNET_CHECK_EQ(t.rank(), rank);
    for (int d = 0; d < rank; ++d) {
      if (d != axis) {
        ODNET_CHECK_EQ(t.shape()[static_cast<size_t>(d)],
                       first[static_cast<size_t>(d)])
            << "Concat mismatch on axis " << d;
      }
    }
    concat_dim += t.dim(axis);
  }
  Shape out_shape = first;
  out_shape[static_cast<size_t>(axis)] = concat_dim;

  // Views as [outer, axis_dim, inner].
  int64_t outer = 1;
  for (int d = 0; d < axis; ++d) outer *= first[static_cast<size_t>(d)];
  int64_t inner = 1;
  for (int d = axis + 1; d < rank; ++d) inner *= first[static_cast<size_t>(d)];

  std::vector<int64_t> axis_dims;
  axis_dims.reserve(inputs.size());
  for (const Tensor& t : inputs) axis_dims.push_back(t.dim(axis));

  OpBuffer out = AllocOpResult(Numel(out_shape), ZeroInit::kSkip);
  auto run = [outer, inner, concat_dim, axis_dims](const float* const* in,
                                                   float* po) {
    int64_t offset = 0;
    for (size_t idx = 0; idx < axis_dims.size(); ++idx) {
      const float* src = in[idx];
      const int64_t ad = axis_dims[idx];
      for (int64_t o = 0; o < outer; ++o) {
        std::memcpy(po + (o * concat_dim + offset) * inner,
                    src + o * ad * inner,
                    static_cast<size_t>(ad * inner) * sizeof(float));
      }
      offset += ad;
    }
  };
  std::vector<const float*> in_ptrs;
  in_ptrs.reserve(inputs.size());
  for (const Tensor& t : inputs) in_ptrs.push_back(t.data());
  run(in_ptrs.data(), out.data());

  Tensor result = Tensor::MakeForOp(
      out_shape, std::move(out), inputs,
      [outer, inner, concat_dim, axis_dims](TensorImpl* self) {
        const simd::AddIntoFn add_into = simd::Kernels().add_into;
        int64_t offset = 0;
        for (size_t idx = 0; idx < self->parents.size(); ++idx) {
          TensorImpl* parent = self->parents[idx].get();
          const int64_t ad = axis_dims[idx];
          if (parent->requires_grad) {
            for (int64_t o = 0; o < outer; ++o) {
              const float* g =
                  self->grad.data() + (o * concat_dim + offset) * inner;
              float* dst = parent->grad.data() + o * ad * inner;
              add_into(g, dst, ad * inner);
            }
          }
          offset += ad;
        }
      });
  if (capture::Active()) {
    capture::RecordOp(result, inputs,
                      [run](const ReplayPtrs& p) { run(p.in, p.out); });
  }
  return result;
}

Tensor Slice(const Tensor& a, int axis, int64_t start, int64_t length) {
  ODNET_OP_SCOPE("Slice");
  ODNET_CHECK(a.defined());
  int rank = a.rank();
  if (axis < 0) axis += rank;
  ODNET_CHECK_GE(axis, 0);
  ODNET_CHECK_LT(axis, rank);
  const Shape& in_shape = a.shape();
  ODNET_CHECK_GE(start, 0);
  ODNET_CHECK_GE(length, 0);
  ODNET_CHECK_LE(start + length, in_shape[static_cast<size_t>(axis)]);

  Shape out_shape = in_shape;
  out_shape[static_cast<size_t>(axis)] = length;
  int64_t outer = 1;
  for (int d = 0; d < axis; ++d) outer *= in_shape[static_cast<size_t>(d)];
  int64_t inner = 1;
  for (int d = axis + 1; d < rank; ++d) inner *= in_shape[static_cast<size_t>(d)];
  const int64_t in_axis = in_shape[static_cast<size_t>(axis)];

  OpBuffer out = AllocOpResult(Numel(out_shape), ZeroInit::kSkip);
  auto run = [outer, inner, in_axis, start, length](const float* src,
                                                    float* po) {
    for (int64_t o = 0; o < outer; ++o) {
      std::memcpy(po + o * length * inner, src + (o * in_axis + start) * inner,
                  static_cast<size_t>(length * inner) * sizeof(float));
    }
  };
  run(a.data(), out.data());

  Tensor result = Tensor::MakeForOp(
      out_shape, std::move(out), {a},
      [outer, inner, in_axis, start, length](TensorImpl* self) {
        TensorImpl* parent = self->parents[0].get();
        if (!parent->requires_grad) return;
        const simd::AddIntoFn add_into = simd::Kernels().add_into;
        for (int64_t o = 0; o < outer; ++o) {
          const float* g = self->grad.data() + o * length * inner;
          float* dst = parent->grad.data() + (o * in_axis + start) * inner;
          add_into(g, dst, length * inner);
        }
      });
  if (capture::Active()) {
    capture::RecordOp(result, {a},
                      [run](const ReplayPtrs& p) { run(p.in[0], p.out); });
  }
  return result;
}

Tensor Stack(const std::vector<Tensor>& inputs) {
  ODNET_OP_SCOPE("Stack");
  ODNET_CHECK(!inputs.empty());
  const Shape& unit = inputs[0].shape();
  for (const Tensor& t : inputs) {
    ODNET_CHECK(SameShape(t.shape(), unit)) << "Stack shape mismatch";
  }
  Shape out_shape;
  out_shape.push_back(static_cast<int64_t>(inputs.size()));
  out_shape.insert(out_shape.end(), unit.begin(), unit.end());
  const int64_t unit_n = Numel(unit);
  const size_t count = inputs.size();
  OpBuffer out = AllocOpResult(unit_n * static_cast<int64_t>(count),
                               ZeroInit::kSkip);
  auto run = [unit_n, count](const float* const* in, float* po) {
    for (size_t i = 0; i < count; ++i) {
      std::memcpy(po + static_cast<int64_t>(i) * unit_n, in[i],
                  static_cast<size_t>(unit_n) * sizeof(float));
    }
  };
  std::vector<const float*> in_ptrs;
  in_ptrs.reserve(count);
  for (const Tensor& t : inputs) in_ptrs.push_back(t.data());
  run(in_ptrs.data(), out.data());

  Tensor result = Tensor::MakeForOp(
      out_shape, std::move(out), inputs, [unit_n](TensorImpl* self) {
        const simd::AddIntoFn add_into = simd::Kernels().add_into;
        for (size_t i = 0; i < self->parents.size(); ++i) {
          TensorImpl* parent = self->parents[i].get();
          if (!parent->requires_grad) continue;
          const float* g =
              self->grad.data() + static_cast<int64_t>(i) * unit_n;
          add_into(g, parent->grad.data(), unit_n);
        }
      });
  if (capture::Active()) {
    capture::RecordOp(result, inputs,
                      [run](const ReplayPtrs& p) { run(p.in, p.out); });
  }
  return result;
}

namespace {

// Backward plan for EmbeddingLookup, built once per forward (in grad mode):
// the lookup order the scatter walks, and the sorted unique rows it touches,
// recorded on the table's grad metadata.
struct EmbeddingBackwardPlan {
  std::vector<int64_t> indices;  // lookup order
  std::vector<int64_t> rows;     // sorted unique table rows
};

EmbeddingBackwardPlan BuildEmbeddingBackwardPlan(
    const std::vector<int64_t>& indices) {
  EmbeddingBackwardPlan plan;
  plan.indices = indices;
  plan.rows = indices;
  std::sort(plan.rows.begin(), plan.rows.end());
  plan.rows.erase(std::unique(plan.rows.begin(), plan.rows.end()),
                  plan.rows.end());
  return plan;
}

// Shared forward/backward state of one EmbeddingLookup node. The forward
// kernel (eager and replay alike) reads the *live* index vector — whose
// object address the caller keeps stable when the op is captured into a
// plan — revalidates bounds, and (when the table needs grad) rebuilds the
// backward plan for the current indices; the backward closure then
// consumes the freshest plan. Inference skips the plan build entirely.
struct EmbeddingOpState {
  const std::vector<int64_t>* live_indices = nullptr;
  int64_t expected_count = 0;
  int64_t vocab = 0;
  int64_t dim = 0;
  bool needs_plan = false;
  std::shared_ptr<const EmbeddingBackwardPlan> plan;
};

}  // namespace

Tensor EmbeddingLookup(const Tensor& table, const std::vector<int64_t>& indices,
                       const Shape& index_shape) {
  ODNET_OP_SCOPE("EmbeddingLookup");
  ODNET_CHECK(table.defined());
  ODNET_CHECK_EQ(table.rank(), 2);
  ODNET_CHECK_EQ(static_cast<int64_t>(indices.size()), Numel(index_shape));
  const int64_t vocab = table.dim(0);
  const int64_t dim = table.dim(1);
  const int64_t count = static_cast<int64_t>(indices.size());

  auto state = std::make_shared<EmbeddingOpState>();
  state->live_indices = &indices;
  state->expected_count = count;
  state->vocab = vocab;
  state->dim = dim;
  state->needs_plan = table.requires_grad() && GradModeEnabled();

  Shape out_shape = index_shape;
  out_shape.push_back(dim);
  OpBuffer out = AllocOpResult(count * dim, ZeroInit::kSkip);

  auto run = [state](const float* src, float* po) {
    const std::vector<int64_t>& idx = *state->live_indices;
    ODNET_CHECK_EQ(static_cast<int64_t>(idx.size()), state->expected_count)
        << "embedding index count changed under a captured plan "
           "(invalidate and re-capture on shape change)";
    const int64_t count = state->expected_count;
    const int64_t dim = state->dim;
    const int64_t vocab = state->vocab;
    for (int64_t i = 0; i < count; ++i) {
      ODNET_CHECK_GE(idx[i], 0) << "embedding index out of range";
      ODNET_CHECK_LT(idx[i], vocab) << "embedding index out of range";
    }
    if (RefMode()) {
      reference::EmbeddingLookupForward(src, idx.data(), count, dim, po);
    } else {
      for (int64_t i = 0; i < count; ++i) {
        std::memcpy(po + i * dim, src + idx[i] * dim,
                    static_cast<size_t>(dim) * sizeof(float));
      }
    }
    if (state->needs_plan) {
      state->plan = std::make_shared<const EmbeddingBackwardPlan>(
          BuildEmbeddingBackwardPlan(idx));
    }
  };
  run(table.data(), out.data());

  Tensor result = Tensor::MakeForOp(
      out_shape, std::move(out), {table}, [state](TensorImpl* self) {
        TensorImpl* parent = self->parents[0].get();
        if (!parent->requires_grad) return;
        const std::shared_ptr<const EmbeddingBackwardPlan> plan = state->plan;
        ODNET_CHECK(plan != nullptr)
            << "EmbeddingLookup backward without a forward-built plan (the "
               "table did not require grad at forward time)";
        const int64_t dim = state->dim;
        // Record which rows this scatter touches before writing (the only
        // writer keeping the table's row-sparsity metadata alive; see
        // sparse_aware_backward below).
        parent->MarkGradRows(plan->rows);
        const float* g = self->grad.data();
        float* dst = parent->grad.data();
        if (RefMode()) {
          reference::EmbeddingLookupBackward(
              g, plan->indices.data(),
              static_cast<int64_t>(plan->indices.size()), dim, dst);
          return;
        }
        // Serial scatter in lookup order: every row sums its contributions
        // in ascending position, as the reference kernel does.
        const simd::AddIntoFn add_into = simd::Kernels().add_into;
        const int64_t count = static_cast<int64_t>(plan->indices.size());
        for (int64_t i = 0; i < count; ++i) {
          add_into(g + i * dim, dst + plan->indices[i] * dim, dim);
        }
      });
  result.impl()->sparse_aware_backward = true;
  if (capture::Active()) {
    capture::RecordOp(result, {table},
                      [run](const ReplayPtrs& p) { run(p.in[0], p.out); });
  }
  return result;
}

Tensor Sum(const Tensor& a) {
  ODNET_OP_SCOPE("Sum");
  ODNET_CHECK(a.defined());
  const int64_t n = a.numel();
  OpBuffer out = AllocOpResult(1, ZeroInit::kSkip);
  // Full reduction: kept serial so the accumulation order (and thus the
  // result bits) never depends on the thread count.
  auto run = [n](const float* pa, float* po) {
    double total = 0.0;
    for (int64_t i = 0; i < n; ++i) total += pa[i];
    po[0] = static_cast<float>(total);
  };
  run(a.data(), out.data());
  Tensor result = Tensor::MakeForOp(
      {}, std::move(out), {a}, [](TensorImpl* self) {
        TensorImpl* parent = self->parents[0].get();
        if (!parent->requires_grad) return;
        const float g = self->grad[0];
        for (float& pg : parent->grad) pg += g;
      });
  if (capture::Active()) {
    capture::RecordOp(result, {a},
                      [run](const ReplayPtrs& p) { run(p.in[0], p.out); });
  }
  return result;
}

Tensor SumAxis(const Tensor& a, int axis, bool keepdim) {
  ODNET_OP_SCOPE("SumAxis");
  ODNET_CHECK(a.defined());
  int rank = a.rank();
  if (axis < 0) axis += rank;
  ODNET_CHECK_GE(axis, 0);
  ODNET_CHECK_LT(axis, rank);
  const Shape& in_shape = a.shape();
  int64_t outer = 1;
  for (int d = 0; d < axis; ++d) outer *= in_shape[static_cast<size_t>(d)];
  int64_t inner = 1;
  for (int d = axis + 1; d < rank; ++d) inner *= in_shape[static_cast<size_t>(d)];
  const int64_t axis_dim = in_shape[static_cast<size_t>(axis)];

  Shape out_shape;
  for (int d = 0; d < rank; ++d) {
    if (d == axis) {
      if (keepdim) out_shape.push_back(1);
    } else {
      out_shape.push_back(in_shape[static_cast<size_t>(d)]);
    }
  }

  // The optimized path accumulates into the output (reference overwrites).
  OpBuffer out = AllocOpResult(outer * inner, ZeroInit::kZeroed);
  auto run = [outer, inner, axis_dim](const float* src, float* po) {
    if (RefMode()) {
      reference::SumAxisForward(src, po, outer, axis_dim, inner);
    } else {
      // Each outer block sums out[o*inner, (o+1)*inner) over the axis in
      // ascending order (lanes map to distinct inner positions, so vector
      // tiers stay bitwise identical). Over the last axis a block is one
      // float: one loop per row.
      if (inner == 1) {
        for (int64_t o = 0; o < outer; ++o) {
          const float* row = src + o * axis_dim;
          float sum = po[o];
          for (int64_t k = 0; k < axis_dim; ++k) sum += row[k];
          po[o] = sum;
        }
        return;
      }
      const simd::AddIntoFn add_into = simd::Kernels().add_into;
      for (int64_t o = 0; o < outer; ++o) {
        for (int64_t k = 0; k < axis_dim; ++k) {
          add_into(src + (o * axis_dim + k) * inner, po + o * inner, inner);
        }
      }
    }
  };
  run(a.data(), out.data());

  Tensor result = Tensor::MakeForOp(
      out_shape, std::move(out), {a},
      [outer, inner, axis_dim](TensorImpl* self) {
        TensorImpl* parent = self->parents[0].get();
        if (!parent->requires_grad) return;
        const float* g0 = self->grad.data();
        float* d0 = parent->grad.data();
        if (RefMode()) {
          reference::SumAxisBackward(g0, d0, outer, axis_dim, inner);
          return;
        }
        if (inner == 1) {
          for (int64_t o = 0; o < outer; ++o) {
            const float g = g0[o];
            float* row = d0 + o * axis_dim;
            for (int64_t k = 0; k < axis_dim; ++k) row[k] += g;
          }
          return;
        }
        const simd::AddIntoFn add_into = simd::Kernels().add_into;
        for (int64_t o = 0; o < outer; ++o) {
          const float* g = g0 + o * inner;
          for (int64_t k = 0; k < axis_dim; ++k) {
            add_into(g, d0 + (o * axis_dim + k) * inner, inner);
          }
        }
      });
  if (capture::Active()) {
    capture::RecordOp(result, {a},
                      [run](const ReplayPtrs& p) { run(p.in[0], p.out); },
                      /*zero_init_output=*/true);
  }
  return result;
}

Tensor Mean(const Tensor& a) {
  ODNET_CHECK(a.defined());
  ODNET_CHECK_GT(a.numel(), 0);
  return MulScalar(Sum(a), 1.0f / static_cast<float>(a.numel()));
}

Tensor MeanAxis(const Tensor& a, int axis, bool keepdim) {
  int rank = a.rank();
  int resolved = axis < 0 ? axis + rank : axis;
  int64_t axis_dim = a.dim(resolved);
  return MulScalar(SumAxis(a, axis, keepdim),
                   1.0f / static_cast<float>(axis_dim));
}

Tensor Softmax(const Tensor& a) {
  ODNET_OP_SCOPE("Softmax");
  ODNET_CHECK(a.defined());
  ODNET_CHECK_GE(a.rank(), 1);
  const int64_t cols = a.dim(-1);
  // An empty last axis has no rows: the result is empty too.
  const int64_t rows = cols == 0 ? 0 : a.numel() / cols;
  OpBuffer out = AllocOpResult(a.numel(), ZeroInit::kSkip);
  auto run = [rows, cols](const float* src, float* po) {
    if (RefMode()) {
      reference::SoftmaxForward(src, po, rows, cols);
      return;
    }
    // Whole rows per worker; the row kernel (scalar, or the tolerance-tier
    // vector exp + fixed lane-tree horizontal sum) owns its row entirely,
    // so results are thread-count invariant within any one tier. Rows
    // narrower than a vector go in one block to the narrow kernel, which
    // returns the row kernel's bits.
    const simd::KernelTable& kt = simd::Kernels();
    if (cols < kt.narrow.width) {
      kt.narrow.softmax_rows(src, po, rows, cols);
      return;
    }
    Ctx().ParallelFor(rows, cols * kSoftmaxOps, [&](int64_t b0, int64_t b1) {
      for (int64_t r = b0; r < b1; ++r) {
        kt.softmax_row(src + r * cols, po + r * cols, cols);
      }
    });
  };
  run(a.data(), out.data());
  Tensor result = Tensor::MakeForOp(
      a.shape(), std::move(out), {a}, [rows, cols](TensorImpl* self) {
        TensorImpl* parent = self->parents[0].get();
        if (!parent->requires_grad) return;
        // dx = (dy - sum(dy * y)) * y, per row.
        const float* y0 = self->data().data();
        const float* g0 = self->grad.data();
        float* d0 = parent->grad.data();
        if (RefMode()) {
          reference::SoftmaxBackward(g0, y0, d0, rows, cols);
          return;
        }
        const simd::KernelTable& kt = simd::Kernels();
        if (cols < kt.narrow.width) {
          kt.narrow.softmax_bwd_rows(g0, y0, d0, rows, cols);
          return;
        }
        for (int64_t r = 0; r < rows; ++r) {
          kt.softmax_bwd_row(g0 + r * cols, y0 + r * cols, d0 + r * cols,
                             cols);
        }
      });
  if (capture::Active()) {
    capture::RecordOp(result, {a},
                      [run](const ReplayPtrs& p) { run(p.in[0], p.out); });
  }
  return result;
}

Tensor Dropout(const Tensor& a, float p, util::Rng* rng, bool training) {
  ODNET_OP_SCOPE("Dropout");
  ODNET_CHECK(a.defined());
  ODNET_CHECK_GE(p, 0.0f);
  ODNET_CHECK_LT(p, 1.0f);
  // Inference / p == 0 is the identity: return the input itself (zero-copy,
  // no tape node) instead of materializing a scaled-by-1 copy. The oracle
  // backend materializes a plain identity node instead, so the differential
  // tests check the zero-copy fast path against copy semantics. Neither
  // path consumes the Rng, so capture/replay order is unaffected.
  if (!training || p == 0.0f) {
    if (!RefMode()) return a;
    const int64_t n = a.numel();
    OpBuffer out = AllocOpResult(n, ZeroInit::kSkip);
    auto run = [n](const float* pa, float* po) {
      std::memcpy(po, pa, static_cast<size_t>(n) * sizeof(float));
    };
    run(a.data(), out.data());
    Tensor result = Tensor::MakeForOp(
        a.shape(), std::move(out), {a}, [](TensorImpl* self) {
          TensorImpl* parent = self->parents[0].get();
          if (!parent->requires_grad) return;
          const float* g = self->grad.data();
          float* pg = parent->grad.data();
          const int64_t gn = static_cast<int64_t>(self->grad.size());
          for (int64_t i = 0; i < gn; ++i) pg[i] += g[i];
        });
    if (capture::Active()) {
      capture::RecordOp(result, {a},
                        [run](const ReplayPtrs& p) { run(p.in[0], p.out); });
    }
    return result;
  }
  ODNET_CHECK(rng != nullptr);
  const float scale = 1.0f / (1.0f - p);
  const int64_t n = a.numel();
  // The mask lives in shared state: the forward kernel redraws it from the
  // op's Rng on every execution — eager or replay, in node order, so the
  // Rng stream advances identically either way — and the backward closure
  // reads whatever the latest forward drew. The Rng must outlive any plan
  // this node is captured into (model-owned Rngs satisfy this).
  auto mask = std::make_shared<std::vector<float>>(static_cast<size_t>(n));
  auto run = [mask, p, scale, rng, n](const float* src, float* po) {
    // Mask draws stay serial: the Rng stream must not depend on thread
    // count (or on the backend — the oracle path consumes the same draws).
    for (float& m : *mask) m = rng->Bernoulli(p) ? 0.0f : scale;
    const float* pm = mask->data();
    if (RefMode()) {
      for (int64_t i = 0; i < n; ++i) po[i] = src[i] * pm[i];
    } else {
      simd::Kernels().binary[static_cast<int>(BinaryKind::kMul)](src, pm, po,
                                                                 n);
    }
  };
  OpBuffer out = AllocOpResult(n, ZeroInit::kSkip);
  run(a.data(), out.data());
  Tensor result = Tensor::MakeForOp(
      a.shape(), std::move(out), {a}, [mask](TensorImpl* self) {
        TensorImpl* parent = self->parents[0].get();
        if (!parent->requires_grad) return;
        const float* g = self->grad.data();
        const float* pm = mask->data();
        float* pg = parent->grad.data();
        const int64_t gn = static_cast<int64_t>(mask->size());
        if (RefMode()) {
          for (int64_t i = 0; i < gn; ++i) pg[i] += g[i] * pm[i];
          return;
        }
        simd::Kernels().mul_accum(g, pm, pg, gn);
      });
  if (capture::Active()) {
    capture::NoteHostData();  // the kernel draws from the shared host Rng
    capture::RecordOp(result, {a},
                      [run](const ReplayPtrs& p) { run(p.in[0], p.out); });
  }
  return result;
}

Tensor BceWithLogits(const Tensor& logits, const Tensor& targets) {
  ODNET_OP_SCOPE("BceWithLogits");
  ODNET_CHECK(logits.defined() && targets.defined());
  ODNET_CHECK(SameShape(logits.shape(), targets.shape()))
      << ShapeToString(logits.shape()) << " vs "
      << ShapeToString(targets.shape());
  const int64_t n = logits.numel();
  ODNET_CHECK_GT(n, 0);
  OpBuffer out = AllocOpResult(1, ZeroInit::kSkip);
  // loss_i = max(x,0) - x*t + log(1 + exp(-|x|))  (stable)
  // Serial: a full reduction whose accumulation order must not depend on
  // the thread count.
  auto run = [n](const float* x, const float* t, float* po) {
    double total = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      float xi = x[i];
      total += std::max(xi, 0.0f) - xi * t[i] +
               std::log1p(std::exp(-std::fabs(xi)));
    }
    po[0] = static_cast<float>(total / static_cast<double>(n));
  };
  run(logits.data(), targets.data(), out.data());
  Tensor result = Tensor::MakeForOp(
      {}, std::move(out), {logits, targets}, [n](TensorImpl* self) {
        TensorImpl* xl = self->parents[0].get();
        TensorImpl* tg = self->parents[1].get();
        const float g = self->grad[0] / static_cast<float>(n);
        if (xl->requires_grad) {
          const float* px = xl->data().data();
          const float* pt = tg->data().data();
          float* pg = xl->grad.data();
          auto logit_grad = [&](int64_t i) {
            float xi = px[i];
            float sig = xi >= 0.0f ? 1.0f / (1.0f + std::exp(-xi))
                                   : std::exp(xi) / (1.0f + std::exp(xi));
            pg[i] += g * (sig - pt[i]);
          };
          for (int64_t i = 0; i < n; ++i) logit_grad(i);
        }
        // Gradient w.r.t. soft targets: d/dt = -x / n.
        if (tg->requires_grad) {
          const float* px = xl->data().data();
          float* pg = tg->grad.data();
          for (int64_t i = 0; i < n; ++i) pg[i] += -g * px[i];
        }
      });
  if (capture::Active()) {
    capture::RecordOp(result, {logits, targets}, [run](const ReplayPtrs& p) {
      run(p.in[0], p.in[1], p.out);
    });
  }
  return result;
}

Tensor MseLoss(const Tensor& pred, const Tensor& target) {
  Tensor diff = Sub(pred, target);
  return Mean(Mul(diff, diff));
}

Tensor HostTensor(const Shape& shape, std::function<void(float*)> fill) {
  ODNET_CHECK(fill != nullptr);
  const int64_t n = Numel(shape);
  OpBuffer out = AllocOpResult(n, ZeroInit::kSkip);
  fill(out.data());
  Tensor result = Tensor::MakeForOp(shape, std::move(out), {}, nullptr);
  if (capture::Active()) {
    capture::NoteHostData();  // `fill` reads host state the caller mutates
    capture::RecordOp(result, {},
                      [fill](const ReplayPtrs& p) { fill(p.out); });
  }
  return result;
}

}  // namespace tensor
}  // namespace odnet
