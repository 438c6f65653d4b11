#ifndef ODNET_NN_SHARDED_EMBEDDING_H_
#define ODNET_NN_SHARDED_EMBEDDING_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/telemetry/telemetry.h"
#include "src/tensor/tensor.h"

namespace odnet {
namespace nn {

/// \brief Logical row-sharding layer over a model's parameter tensors
/// (DESIGN.md §14).
///
/// The store does not move any data: parameters keep their contiguous
/// storage, registered through the ordinary nn::Module interface, so
/// EmbeddingLookup, serialization, and the forward pass are completely
/// sharding-agnostic. What a shard owns is *responsibility* for a row set
/// — {r : HashRow(r) % num_shards == s} of every rank-2 parameter — plus
/// everything an exclusive owner needs:
///
///   - a mutex serializing applies to the shard's rows (held by the sync
///     trainer's per-shard apply tasks and the async appliers; taken
///     all-at-once, in order, by checkpoint serialization);
///   - the optimizer slot state for its rows (Adam m/v, AdaGrad
///     accumulators, SGD velocity), packed by local row ordinal so a
///     shard's state is contiguous and false-sharing-free;
///   - a lock-free CAS row apply for plain SGD, where the update is a
///     single fused multiply-subtract per element and a mutex would cost
///     more than the arithmetic.
///
/// Row ownership is a pure function of the row id — never of the shard
/// count — and row updates are independent across rows, so synchronous
/// training digests are identical for every num_shards.
///
/// Rank-0/rank-1 parameters (biases, theta) and rank-2 parameters below
/// `min_rows` are owned whole by shard (param_index % num_shards).
class ShardedEmbeddingStore {
 public:
  struct Options {
    int num_shards = 1;
    /// Rank-2 parameters with fewer rows stay whole-param owned.
    int64_t min_rows = 2;
  };

  /// `params` is the model's parameter list (Module::Parameters() order —
  /// the same order every optimizer uses). Tensors are aliased, not copied.
  ShardedEmbeddingStore(std::vector<tensor::Tensor> params,
                        const Options& options);

  ShardedEmbeddingStore(const ShardedEmbeddingStore&) = delete;
  ShardedEmbeddingStore& operator=(const ShardedEmbeddingStore&) = delete;

  int num_shards() const { return num_shards_; }
  size_t num_params() const { return params_.size(); }
  const std::vector<tensor::Tensor>& params() const { return params_; }

  /// SplitMix64 finalizer of the row id: uncorrelated with id locality, so
  /// consecutive ids (hot cities) spread across shards.
  static uint64_t HashRow(int64_t row);

  /// True when `param` is partitioned by row (rank-2, rows >= min_rows).
  bool row_sharded(size_t param) const { return row_sharded_[param] != 0; }
  /// Owning shard of `row` of a row-sharded param.
  int ShardOfRow(int64_t row) const {
    return static_cast<int>(HashRow(row) % static_cast<uint64_t>(num_shards_));
  }
  /// Owning shard of a whole-param (not row-sharded) parameter.
  int ShardOfParam(size_t param) const {
    return static_cast<int>(param % static_cast<size_t>(num_shards_));
  }
  /// True when shard `s` is responsible for (param, row): row ownership for
  /// row-sharded params, whole-param ownership otherwise.
  bool Owns(size_t param, int s, int64_t row) const {
    return row_sharded(param) ? ShardOfRow(row) == s : ShardOfParam(param) == s;
  }
  /// Rows of a row-sharded param owned by shard s.
  int64_t OwnedRows(size_t param, int s) const {
    return owned_rows_[param].empty() ? 0 : owned_rows_[param][s];
  }

  /// Acquires shard `s`'s mutex, recording the wait into the
  /// trainer.shard.lock_wait_ns histogram when telemetry is on.
  std::unique_lock<std::mutex> AcquireShard(int s);

  /// Acquires every shard mutex in index order — the checkpoint snapshot
  /// contract: SaveParameters under the returned locks can never observe a
  /// torn row (appliers mutate rows only while holding the owning shard's
  /// mutex). Destroying the vector releases in reverse order.
  std::vector<std::unique_lock<std::mutex>> LockAllShards();

  /// Ensures `count` slot arrays exist for `param` (Adam needs 2, AdaGrad
  /// and SGD momentum 1), zero-initialized: per shard sized
  /// owned_rows * width for row-sharded params; one full-numel array at the
  /// owning shard otherwise. Not thread-safe — call before the apply tasks.
  void EnsureSlots(size_t param, int count);

  /// Slot `k` row of a row-sharded param, inside the owning shard's packed
  /// array. Valid only while holding that shard's mutex (or single-
  /// threaded).
  float* SlotRow(size_t param, int k, int64_t row);

  /// Slot `k` full array of a whole-param parameter.
  float* SlotWhole(size_t param, int k);

  /// Lock-free SGD row apply: w[row][j] -= lr * g[j] via per-element
  /// compare-and-swap on the float bits. Safe against any number of
  /// concurrent CAS appliers to the same row (each subtraction is applied
  /// exactly once; ordering — and therefore float rounding — is not
  /// deterministic under contention). Does NOT synchronize with the
  /// mutex-protected apply paths; a training run uses one or the other.
  void ApplySgdRowCas(size_t param, int64_t row, const float* g, float lr);

  /// Adds to the trainer.shard.rows_applied counter (apply paths batch
  /// their count per shard visit).
  void AddRowsApplied(int64_t n) { rows_applied_->Add(n); }

 private:
  struct ShardSlots {
    std::vector<std::vector<float>> slot;  // [slot_index] -> packed floats
  };

  std::vector<tensor::Tensor> params_;
  int num_shards_;
  int64_t min_rows_;
  std::vector<uint8_t> row_sharded_;  // per param
  // Row-sharded params: local ordinal of each row within its owning
  // shard's packed arrays (rows ascend within a shard), plus the per-shard
  // owned-row counts. Empty for whole-param parameters.
  std::vector<std::vector<int32_t>> local_index_;  // [param][row]
  std::vector<std::vector<int64_t>> owned_rows_;   // [param][shard]
  std::vector<std::vector<ShardSlots>> slots_;     // [param][shard]
  std::unique_ptr<std::mutex[]> shard_mutex_;

  telemetry::Counter* rows_applied_;
  telemetry::Histogram* lock_wait_ns_;
};

}  // namespace nn
}  // namespace odnet

#endif  // ODNET_NN_SHARDED_EMBEDDING_H_
