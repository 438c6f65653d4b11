#ifndef ODNET_OPTIM_SHARDED_ADAM_H_
#define ODNET_OPTIM_SHARDED_ADAM_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/nn/sharded_embedding.h"
#include "src/optim/optimizer.h"
#include "src/tensor/grad_delta.h"

namespace odnet {
namespace optim {

/// \brief Adam whose slot state (m/v) lives inside a ShardedEmbeddingStore,
/// applied shard-parallel under per-shard locks (DESIGN.md §14).
///
/// Synchronous-mode contract: Step() is bitwise identical to plain Adam in
/// dense-equivalent mode for every shard count. Row ownership partitions
/// the rows of each parameter across shards, and the per-row update —
/// m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g², w -= lr_t * m/(sqrt(v)+eps),
/// via the same fused simd::Kernels().adam_row — touches no other row, so
/// which shard (and which thread) applies a row cannot change its bits.
/// Touched rows take the full update; active rows (nonzero m/v) decay with
/// the gradient spelled out as an exact +0.0; all other rows are exact
/// no-ops and are skipped. ZeroGrad and ClipGradNorm are the deterministic
/// base-class implementations.
///
/// Async mode uses ApplyDeltaShard instead of Step: per-slice deltas are
/// applied per shard under that shard's lock with bias correction at the
/// caller's micro-step stamp, and untouched rows see no decay (lazy-style)
/// — documented non-deterministic numerics.
///
/// Only SparseUpdateMode::kDenseEquivalent is supported (kLazy stays a
/// plain-Adam feature).
class ShardedAdam : public Optimizer {
 public:
  /// `store` must outlive the optimizer; its parameter list becomes the
  /// optimizer's. Slot arrays (2 per parameter) are allocated here, once.
  ShardedAdam(nn::ShardedEmbeddingStore* store, double lr, double beta1 = 0.9,
              double beta2 = 0.999, double eps = 1e-8);

  void Step() override;

  /// Async/hogwild apply: folds `delta` (one slice's gradient for
  /// `param`, already scaled and clipped by the producing worker) into the
  /// rows owned by `shard`, under the shard lock, with bias correction at
  /// micro-step `step` (>= 1). Safe to call concurrently for different
  /// shards; rows not in the delta receive no decay.
  void ApplyDeltaShard(size_t param, int shard, const tensor::GradDelta& delta,
                       int64_t step);

  /// Flags every parameter's active-row set as unknown, forcing the next
  /// sync Step() to rescan the slot state. Call before interleaving
  /// ApplyDeltaShard applies with sync steps.
  void MarkStateUnknown();

  int64_t step_count() const { return t_.load(std::memory_order_relaxed); }
  /// Restores the step counter (e.g. after an async phase whose micro-step
  /// stamps advanced past t_).
  void set_step_count(int64_t t) { t_.store(t, std::memory_order_relaxed); }

 private:
  /// Rebuilds the active-row list of a row-sharded param by scanning the
  /// packed per-shard slot arrays (the analogue of plain Adam's dense m/v
  /// scan).
  std::vector<int64_t> ScanActiveRowsPacked(size_t param);

  nn::ShardedEmbeddingStore* store_;
  double beta1_;
  double beta2_;
  double eps_;
  std::atomic<int64_t> t_{0};
  // Dense-equivalent sparse bookkeeping, same scheme as plain Adam: rows
  // with possibly-nonzero m/v per row-sharded param (sorted ascending);
  // dense_state_ flags an unknown set (rebuilt on the next sparse step).
  std::vector<std::vector<int64_t>> active_rows_;
  std::vector<uint8_t> dense_state_;
};

/// \brief AdaGrad over sharded slot state, for the optimizer ablations.
/// Same ownership/locking scheme as ShardedAdam; AdaGrad needs no active-
/// row bookkeeping (skipping a zero-gradient row is always bitwise
/// neutral), so sync Step() is bitwise identical to plain AdaGrad for
/// every shard count.
class ShardedAdaGrad : public Optimizer {
 public:
  ShardedAdaGrad(nn::ShardedEmbeddingStore* store, double lr,
                 double eps = 1e-10);
  void Step() override;

 private:
  nn::ShardedEmbeddingStore* store_;
  double eps_;
};

}  // namespace optim
}  // namespace odnet

#endif  // ODNET_OPTIM_SHARDED_ADAM_H_
