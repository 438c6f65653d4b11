#include "src/optim/optimizer.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "src/tensor/compute_context.h"
#include "src/tensor/simd/simd_kernels.h"
#include "src/util/check.h"

namespace odnet {
namespace optim {

namespace {

using tensor::internal::TensorImpl;
namespace simd = tensor::simd;

tensor::ComputeContext& Ctx() { return tensor::ComputeContext::Get(); }

// Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
constexpr double kBeta1 = 0.9;
constexpr double kBeta2 = 0.999;
constexpr double kEps = 1e-8;

// Fixed chunk grid for the ClipGradNorm partial-sum reduction. Boundaries
// depend only on each parameter's shape — never on the thread count or on
// gradient sparsity — so the per-chunk partial sums (and therefore the
// clipped gradients) are bitwise identical for every pool width and for
// sparse vs dense gradients.
constexpr int64_t kClipChunkElems = 8192;

// Scalar ops of one Adam element update (two moment updates, square root,
// epsilon, division, learning-rate scale, weight update): the work the
// step's fan-out sites report to ComputeContext::ParallelFor.
constexpr int64_t kAdamOps = 12;

struct ClipChunk {
  TensorImpl* impl;
  int64_t begin;  // element offsets into impl->grad
  int64_t end;
};

// A state row is droppable from the active set only when every element is
// exactly +0.0f: a -0.0f survives (the dense decay would turn it into +0.0f
// through `b * -0.0f + 0.0f`, which skipping could not reproduce).
bool RowExactlyPositiveZero(const float* row, int64_t width) {
  for (int64_t j = 0; j < width; ++j) {
    if (row[j] != 0.0f || std::signbit(row[j])) return false;
  }
  return true;
}

// Rebuilds the active-row set after a dense step: a row is active when any
// element of m or v is not exactly +0.0f.
std::vector<int64_t> ScanActiveRows(int64_t vocab, int64_t width,
                                    const float* m, const float* v) {
  std::vector<uint8_t> flags(static_cast<size_t>(vocab), 0);
  Ctx().ParallelFor(vocab, 2 * width, [&](int64_t rb, int64_t re) {
    for (int64_t r = rb; r < re; ++r) {
      const bool zero = RowExactlyPositiveZero(m + r * width, width) &&
                        RowExactlyPositiveZero(v + r * width, width);
      flags[static_cast<size_t>(r)] = zero ? 0 : 1;
    }
  });
  std::vector<int64_t> rows;
  for (int64_t r = 0; r < vocab; ++r) {
    if (flags[static_cast<size_t>(r)]) rows.push_back(r);
  }
  return rows;
}

std::vector<int64_t> SortedDifference(const std::vector<int64_t>& a,
                                      const std::vector<int64_t>& b) {
  std::vector<int64_t> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

std::vector<int64_t> SortedUnion(const std::vector<int64_t>& a,
                                 const std::vector<int64_t>& b) {
  std::vector<int64_t> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

// Runs `body(row_index_position)` for every listed row across the pool,
// each row costing `row_work` scalar ops. Each position is written by
// exactly one worker (disjoint rows).
template <typename Body>
void ParallelOverRows(const std::vector<int64_t>& rows, int64_t row_work,
                      Body&& body) {
  Ctx().ParallelFor(static_cast<int64_t>(rows.size()), row_work,
                    [&](int64_t rb, int64_t re) {
                      for (int64_t r = rb; r < re; ++r) body(r);
                    });
}

}  // namespace

Adam::Adam(std::vector<tensor::Tensor> params, double lr)
    : params_(std::move(params)),
      learning_rate_(lr),
      m_(params_.size()),
      v_(params_.size()),
      active_rows_(params_.size()),
      dense_state_(params_.size(), 0) {
  for (size_t i = 0; i < params_.size(); ++i) {
    const tensor::Tensor& p = params_[i];
    ODNET_CHECK(p.defined());
    ODNET_CHECK(p.requires_grad()) << "optimizer parameter without grad";
    m_[i].assign(static_cast<size_t>(p.numel()), 0.0f);
    v_[i].assign(static_cast<size_t>(p.numel()), 0.0f);
  }
}

bool Adam::RowSparseGrad(size_t i) const {
  if (force_dense_) return false;
  const TensorImpl* impl = params_[i].impl();
  return impl->grad_rows_valid && impl->shape.size() == 2 &&
         impl->grad.size() == impl->data().size();
}

void Adam::ZeroGrad() {
  for (tensor::Tensor& p : params_) {
    if (force_dense_) {
      TensorImpl* impl = p.impl();
      impl->EnsureGrad();
      impl->grad.assign(impl->data().size(), 0.0f);
      impl->ResetGradRows();
    } else {
      p.ZeroGrad();  // row-sparse fast path when metadata allows
    }
  }
}

double Adam::ClipGradNorm(double max_norm) {
  ODNET_CHECK_GT(max_norm, 0.0);
  // Build the fixed chunk grid (row-aligned for rank-2 params so the
  // sparse path can skip whole untouched rows inside a chunk — the skipped
  // terms are exact +0.0 squares, so the partial sums match the dense ones
  // bit for bit).
  std::vector<ClipChunk> chunks;
  std::vector<uint8_t> chunk_sparse;
  int64_t effective_work = 0;
  for (size_t i = 0; i < params_.size(); ++i) {
    TensorImpl* impl = params_[i].impl();
    impl->EnsureGrad();
    const int64_t n = static_cast<int64_t>(impl->grad.size());
    if (n == 0) continue;
    const bool sparse = RowSparseGrad(i);
    int64_t chunk = kClipChunkElems;
    if (impl->shape.size() == 2) {
      const int64_t width = impl->shape[1];
      chunk = std::max<int64_t>(width, kClipChunkElems / width * width);
    }
    for (int64_t b = 0; b < n; b += chunk) {
      chunks.push_back({impl, b, std::min(n, b + chunk)});
      chunk_sparse.push_back(sparse ? 1 : 0);
    }
    effective_work +=
        sparse ? static_cast<int64_t>(impl->grad_rows.size()) * impl->shape[1]
               : n;
  }

  std::vector<double> partial(chunks.size(), 0.0);
  auto reduce = [&](int64_t cb, int64_t ce) {
    for (int64_t c = cb; c < ce; ++c) {
      const ClipChunk& ck = chunks[c];
      const float* g = ck.impl->grad.data();
      double sq = 0.0;
      if (chunk_sparse[static_cast<size_t>(c)]) {
        const int64_t width = ck.impl->shape[1];
        const std::vector<int64_t>& rows = ck.impl->grad_rows;
        auto it = std::lower_bound(rows.begin(), rows.end(), ck.begin / width);
        for (; it != rows.end() && *it * width < ck.end; ++it) {
          const float* row = g + *it * width;
          for (int64_t j = 0; j < width; ++j) {
            sq += static_cast<double>(row[j]) * row[j];
          }
        }
      } else {
        for (int64_t i = ck.begin; i < ck.end; ++i) {
          sq += static_cast<double>(g[i]) * g[i];
        }
      }
      partial[static_cast<size_t>(c)] = sq;
    }
  };
  // The fan-out rule sees the squares the chunks actually sum (touched rows
  // only for sparse gradients). Each chunk is a strictly ordered double sum,
  // which does not vectorize. Either way the partials, and their combine
  // order below, are identical.
  const int64_t num_chunks = static_cast<int64_t>(chunks.size());
  Ctx().ParallelFor(num_chunks,
                    effective_work * tensor::ComputeContext::Lanes() /
                        std::max<int64_t>(num_chunks, 1),
                    reduce);

  double sq = 0.0;
  for (double ps : partial) sq += ps;  // ordered combine
  const double norm = std::sqrt(sq);

  if (norm > max_norm) {
    const float scale = static_cast<float>(max_norm / (norm + 1e-12));
    for (size_t i = 0; i < params_.size(); ++i) {
      TensorImpl* impl = params_[i].impl();
      float* g = impl->grad.data();
      const simd::ScaleFn scale_fn = simd::Kernels().scale;
      if (RowSparseGrad(i)) {
        // Untouched rows are exactly +0.0; scaling them is a no-op.
        const int64_t width = impl->shape[1];
        const std::vector<int64_t>& rows = impl->grad_rows;
        ParallelOverRows(rows, width, [&](int64_t r) {
          scale_fn(g + rows[static_cast<size_t>(r)] * width, scale, width);
        });
      } else {
        const int64_t n = static_cast<int64_t>(impl->grad.size());
        Ctx().ParallelFor(n, 1, [&](int64_t b, int64_t e) {
          scale_fn(g + b, scale, e - b);
        });
      }
    }
  }
  return norm;
}

void Adam::Step() {
  ++t_;
  const double bias1 = 1.0 - std::pow(kBeta1, static_cast<double>(t_));
  const double bias2 = 1.0 - std::pow(kBeta2, static_cast<double>(t_));
  const float lr_t =
      static_cast<float>(learning_rate_ * std::sqrt(bias2) / bias1);
  const float b1 = static_cast<float>(kBeta1);
  const float b2 = static_cast<float>(kBeta2);
  const float eps = static_cast<float>(kEps);
  for (size_t i = 0; i < params_.size(); ++i) {
    tensor::Tensor& p = params_[i];
    TensorImpl* impl = p.impl();
    impl->EnsureGrad();
    const float* g = impl->grad.data();
    float* data = p.mutable_data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    const int64_t n = static_cast<int64_t>(impl->grad.size());

    const simd::KernelTable& kt = simd::Kernels();
    if (!RowSparseGrad(i)) {
      Ctx().ParallelFor(n, kAdamOps, [&](int64_t b, int64_t e) {
        kt.adam_row(data + b, m + b, v + b, g + b, lr_t, b1, b2, eps, e - b);
      });
      if (impl->shape.size() == 2) {
        dense_state_[i] = 1;
        active_rows_[i].clear();
      }
      continue;
    }

    const int64_t vocab = impl->shape[0];
    const int64_t width = impl->shape[1];
    const std::vector<int64_t>& touched = impl->grad_rows;

    // Touched rows take the full update; active rows (nonzero m/v) still
    // decay with the gradient term spelled out as an exact +0.0 so the bits
    // match the dense loop; everything else is an exact no-op and is
    // skipped.
    if (dense_state_[i]) {
      active_rows_[i] = ScanActiveRows(vocab, width, m, v);
      dense_state_[i] = 0;
    }
    ParallelOverRows(touched, width * kAdamOps, [&](int64_t r) {
      const int64_t row = touched[static_cast<size_t>(r)];
      kt.adam_row(data + row * width, m + row * width, v + row * width,
                  g + row * width, lr_t, b1, b2, eps, width);
    });
    std::vector<int64_t> decay_rows = SortedDifference(active_rows_[i], touched);
    std::vector<uint8_t> still_active(decay_rows.size(), 0);
    ParallelOverRows(decay_rows, width * kAdamOps, [&](int64_t r) {
      const int64_t row = decay_rows[static_cast<size_t>(r)];
      float* mrow = m + row * width;
      float* vrow = v + row * width;
      kt.adam_row(data + row * width, mrow, vrow, /*g=*/nullptr, lr_t, b1, b2,
                  eps, width);
      still_active[static_cast<size_t>(r)] =
          (RowExactlyPositiveZero(mrow, width) &&
           RowExactlyPositiveZero(vrow, width))
              ? 0
              : 1;
    });
    std::vector<int64_t> kept;
    kept.reserve(decay_rows.size());
    for (size_t r = 0; r < decay_rows.size(); ++r) {
      if (still_active[r]) kept.push_back(decay_rows[r]);
    }
    active_rows_[i] = SortedUnion(kept, touched);
  }
}

}  // namespace optim
}  // namespace odnet
