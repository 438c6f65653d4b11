#ifndef ODNET_NN_SHARDED_EMBEDDING_H_
#define ODNET_NN_SHARDED_EMBEDDING_H_

#include <cstdint>
#include <vector>

#include "src/tensor/tensor.h"

namespace odnet {
namespace nn {

/// \brief Row-ownership partition of a model's parameter tensors
/// (DESIGN.md §14).
///
/// The store moves no data: parameters keep their contiguous storage, so
/// EmbeddingLookup, serialization, the forward pass and the optimizer are
/// sharding-agnostic. A shard owns a row set — {r : HashRow(r) % num_shards
/// == s} of every rank-2 parameter with at least two rows — and the
/// synchronous trainer's gradient reduction runs one task per shard, each
/// accumulating only the rows it owns. Row ownership is a pure function of
/// the row id and the shard count, and every row is owned exactly once, so
/// the reduced gradient is identical for every num_shards.
///
/// Rank-0/rank-1 parameters (biases, theta) and single-row rank-2
/// parameters are owned whole by shard (param_index % num_shards).
class ShardedEmbeddingStore {
 public:
  struct Options {
    int num_shards = 1;
  };

  /// `params` is the model's parameter list (Module::Parameters() order —
  /// the same order every optimizer uses). Tensors are aliased, not copied.
  ShardedEmbeddingStore(std::vector<tensor::Tensor> params,
                        const Options& options);

  ShardedEmbeddingStore(const ShardedEmbeddingStore&) = delete;
  ShardedEmbeddingStore& operator=(const ShardedEmbeddingStore&) = delete;

  int num_shards() const { return num_shards_; }
  const std::vector<tensor::Tensor>& params() const { return params_; }

  /// SplitMix64 finalizer of the row id: uncorrelated with id locality, so
  /// consecutive ids (hot cities) spread across shards.
  static uint64_t HashRow(int64_t row);

  /// True when `param` is partitioned by row (rank-2 with at least 2 rows).
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

 private:
  std::vector<tensor::Tensor> params_;
  int num_shards_;
  std::vector<uint8_t> row_sharded_;  // per param
};

}  // namespace nn
}  // namespace odnet

#endif  // ODNET_NN_SHARDED_EMBEDDING_H_
