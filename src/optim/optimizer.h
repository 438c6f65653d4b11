#ifndef ODNET_OPTIM_OPTIMIZER_H_
#define ODNET_OPTIM_OPTIMIZER_H_

#include <cstdint>
#include <vector>

#include "src/tensor/tensor.h"

namespace odnet {
namespace optim {

/// \brief Adam (Kingma & Ba) over a fixed parameter list, with β1 = 0.9,
/// β2 = 0.999 and ε = 1e-8. The paper trains every model with Adam, batch
/// size 128, lr 0.01 (Sec. V-A-5). Step() consumes the accumulated
/// gradients; callers zero grads between steps.
///
/// A parameter whose gradient carries a touched-row list (an embedding table
/// written only by EmbeddingLookup backward — see
/// tensor::internal::TensorImpl::grad_rows) is stepped row-sparsely: touched
/// rows take the full update, rows whose m/v are still nonzero take the
/// decay-only update, and all other rows are skipped, because their dense
/// update is an exact no-op. Every update is bitwise identical to the dense
/// loop (DESIGN.md §9).
class Adam {
 public:
  Adam(std::vector<tensor::Tensor> params, double lr);

  /// Applies one update using each parameter's current grad buffer.
  void Step();

  void ZeroGrad();

  /// Rescales all gradients so their global L2 norm is at most `max_norm`.
  /// Returns the pre-clipping norm. The squared norm is reduced over a
  /// fixed, row-aligned chunk grid (partial sums combined in chunk order),
  /// so the result is identical for every thread count and for sparse vs
  /// dense gradients.
  double ClipGradNorm(double max_norm);

  /// Benchmark/testing escape hatch: ignore touched-row metadata and run
  /// the dense code paths everywhere (the pre-sparse behaviour, including
  /// full-buffer ZeroGrad).
  void set_force_dense(bool value) { force_dense_ = value; }

 private:
  /// True when params_[i]'s gradient is row-sparse and eligible for the
  /// sparse update paths.
  bool RowSparseGrad(size_t i) const;

  std::vector<tensor::Tensor> params_;
  double learning_rate_;
  bool force_dense_ = false;
  int64_t t_ = 0;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
  // Rows of m_/v_ that may hold nonzeros (sorted ascending), tracked per
  // rank-2 parameter so the sparse step decays only those rows.
  // dense_state_[i] means the set is unknown (a dense step ran); the next
  // sparse step rebuilds it with one scan.
  std::vector<std::vector<int64_t>> active_rows_;
  std::vector<uint8_t> dense_state_;
};

}  // namespace optim
}  // namespace odnet

#endif  // ODNET_OPTIM_OPTIMIZER_H_
