#include "src/tensor/simd/simd_kernels.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace odnet {
namespace tensor {
namespace simd {
namespace scalar {

// The scalar tier: the portable loop bodies previously inlined in ops.cc and
// optimizer.cc, verbatim. Every vector tier is validated against these —
// bitwise for the non-exp families, by ULP/relative tolerance for the
// exp-family (see simd_kernels.h).

namespace {

float ScalarSigmoid(float x) {
  if (x >= 0.0f) return 1.0f / (1.0f + std::exp(-x));
  float z = std::exp(x);
  return z / (1.0f + z);
}

}  // namespace

void AddEw(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] + b[i];
}
void SubEw(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] - b[i];
}
void MulEw(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] * b[i];
}
void DivEw(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] / b[i];
}

void ReluFwd(const float* x, float, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}
void LeakyReluFwd(const float* x, float slope, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : slope * x[i];
}
void SigmoidFwd(const float* x, float, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = ScalarSigmoid(x[i]);
}
void TanhFwd(const float* x, float, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = std::tanh(x[i]);
}
void ExpFwd(const float* x, float, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = std::exp(x[i]);
}
void AddScalarFwd(const float* x, float s, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = x[i] + s;
}
void MulScalarFwd(const float* x, float s, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = x[i] * s;
}

void ReluBwd(const float* g, const float* x, const float*, float, float* dx,
             int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    dx[i] += g[i] * (x[i] > 0.0f ? 1.0f : 0.0f);
  }
}
void LeakyReluBwd(const float* g, const float* x, const float*, float slope,
                  float* dx, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    dx[i] += g[i] * (x[i] > 0.0f ? 1.0f : slope);
  }
}
void SigmoidBwd(const float* g, const float*, const float* y, float, float* dx,
                int64_t n) {
  for (int64_t i = 0; i < n; ++i) dx[i] += g[i] * (y[i] * (1.0f - y[i]));
}
void TanhBwd(const float* g, const float*, const float* y, float, float* dx,
             int64_t n) {
  for (int64_t i = 0; i < n; ++i) dx[i] += g[i] * (1.0f - y[i] * y[i]);
}
void ExpBwd(const float* g, const float*, const float* y, float, float* dx,
            int64_t n) {
  for (int64_t i = 0; i < n; ++i) dx[i] += g[i] * y[i];
}
void AddScalarBwd(const float* g, const float*, const float*, float, float* dx,
                  int64_t n) {
  for (int64_t i = 0; i < n; ++i) dx[i] += g[i] * 1.0f;
}
void MulScalarBwd(const float* g, const float*, const float*, float s,
                  float* dx, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dx[i] += g[i] * s;
}

void MulAccum(const float* g, const float* other, float* dst, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] += g[i] * other[i];
}
void DivBwdA(const float* g, const float* b, float* da, int64_t n) {
  for (int64_t i = 0; i < n; ++i) da[i] += g[i] / b[i];
}
void DivBwdB(const float* g, const float* a, const float* b, float* db,
             int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const float y = b[i];
    db[i] += -g[i] * a[i] / (y * y);
  }
}

// Rank-1 accumulation micro-kernel: crow += sum_p arow[p] * B[p]. Kept
// noinline so its tight loops get a register allocation independent of the
// surrounding tiling nest.
__attribute__((noinline)) void MatMulRow(const float* arow, const float* B,
                                         float* crow, int64_t p0, int64_t p1,
                                         int64_t n) {
  for (int64_t p = p0; p < p1; ++p) {
    const float av = arow[p];
    if (av == 0.0f) continue;
    const float* brow = B + p * n;
    for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
  }
}

__attribute__((noinline)) void MatMulDbRow(const float* A, const float* G,
                                           float* dbrow, int64_t p, int64_t m,
                                           int64_t k, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    const float av = A[i * k + p];
    if (av == 0.0f) continue;
    const float* grow = G + i * n;
    for (int64_t j = 0; j < n; ++j) dbrow[j] += av * grow[j];
  }
}

void AddInto(const float* src, float* dst, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] += src[i];
}
void Scale(float* p, float s, int64_t n) {
  for (int64_t j = 0; j < n; ++j) p[j] *= s;
}

void SoftmaxRow(const float* x, float* y, int64_t cols) {
  float max_val = x[0];
  for (int64_t c = 1; c < cols; ++c) max_val = std::max(max_val, x[c]);
  float total = 0.0f;
  for (int64_t c = 0; c < cols; ++c) {
    y[c] = std::exp(x[c] - max_val);
    total += y[c];
  }
  const float inv = 1.0f / total;
  for (int64_t c = 0; c < cols; ++c) y[c] *= inv;
}

void SoftmaxBwdRow(const float* g, const float* y, float* dx, int64_t cols) {
  float dot = 0.0f;
  for (int64_t c = 0; c < cols; ++c) dot += g[c] * y[c];
  for (int64_t c = 0; c < cols; ++c) dx[c] += (g[c] - dot) * y[c];
}

void AdamRow(float* w, float* m, float* v, const float* g, float lr_t,
             float b1, float b2, float eps, int64_t n) {
  if (g == nullptr) {
    for (int64_t j = 0; j < n; ++j) {
      m[j] = b1 * m[j] + 0.0f;
      v[j] = b2 * v[j] + 0.0f;
      w[j] -= lr_t * m[j] / (std::sqrt(v[j]) + eps);
    }
    return;
  }
  for (int64_t j = 0; j < n; ++j) {
    m[j] = b1 * m[j] + (1.0f - b1) * g[j];
    v[j] = b2 * v[j] + (1.0f - b2) * g[j] * g[j];
    w[j] -= lr_t * m[j] / (std::sqrt(v[j]) + eps);
  }
}

}  // namespace scalar

namespace {

#define ODNET_SIMD_TIER_TABLE(ns, narrow)                               \
  KernelTable {                                                         \
    {ns::AddEw, ns::SubEw, ns::MulEw, ns::DivEw},                       \
        {ns::ReluFwd, ns::LeakyReluFwd, ns::SigmoidFwd, ns::TanhFwd,    \
         ns::ExpFwd, ns::AddScalarFwd, ns::MulScalarFwd},               \
        {ns::ReluBwd, ns::LeakyReluBwd, ns::SigmoidBwd, ns::TanhBwd,    \
         ns::ExpBwd, ns::AddScalarBwd, ns::MulScalarBwd},               \
        ns::MulAccum, ns::DivBwdA, ns::DivBwdB, ns::MatMulRow,          \
        ns::MatMulDbRow, ns::AddInto, ns::Scale, ns::SoftmaxRow,        \
        ns::SoftmaxBwdRow, ns::AdamRow, narrow                          \
  }
// `width` is the tier's lane count (kW in simd_vec_kernels.inc).
#define ODNET_SIMD_NARROW(ns, width)                                    \
  NarrowKernels {                                                       \
    width, ns::MatMulRowsNarrow, ns::MatMulDbRowsNarrow,                \
        ns::SoftmaxRowsNarrow, ns::SoftmaxBwdRowsNarrow                 \
  }

const KernelTable kScalarTable =
    ODNET_SIMD_TIER_TABLE(scalar, NarrowKernels{});
#if defined(ODNET_HAVE_AVX2_KERNELS)
const KernelTable kAvx2Table =
    ODNET_SIMD_TIER_TABLE(avx2, ODNET_SIMD_NARROW(avx2, 8));
#endif
#if defined(ODNET_HAVE_AVX512_KERNELS)
const KernelTable kAvx512Table =
    ODNET_SIMD_TIER_TABLE(avx512, ODNET_SIMD_NARROW(avx512, 16));
#endif

#undef ODNET_SIMD_NARROW
#undef ODNET_SIMD_TIER_TABLE

}  // namespace

const KernelTable& KernelsFor(CpuCapability cap) {
  switch (cap) {
    case CpuCapability::kScalar:
      return kScalarTable;
    case CpuCapability::kAvx2:
#if defined(ODNET_HAVE_AVX2_KERNELS)
      return kAvx2Table;
#else
      break;
#endif
    case CpuCapability::kAvx512:
#if defined(ODNET_HAVE_AVX512_KERNELS)
      return kAvx512Table;
#else
      break;
#endif
  }
  ODNET_CHECK(false) << "CpuCapability tier " << CpuCapabilityName(cap)
                     << " not compiled into this binary";
  return kScalarTable;
}

CpuCapability MaxCompiledCpuCapability() {
#if defined(ODNET_HAVE_AVX512_KERNELS)
  return CpuCapability::kAvx512;
#elif defined(ODNET_HAVE_AVX2_KERNELS)
  return CpuCapability::kAvx2;
#else
  return CpuCapability::kScalar;
#endif
}

}  // namespace simd
}  // namespace tensor
}  // namespace odnet
