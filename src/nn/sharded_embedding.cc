#include "src/nn/sharded_embedding.h"

#include <utility>

#include "src/util/check.h"

namespace odnet {
namespace nn {

ShardedEmbeddingStore::ShardedEmbeddingStore(std::vector<tensor::Tensor> params,
                                             const Options& options)
    : params_(std::move(params)), num_shards_(options.num_shards) {
  ODNET_CHECK_GE(num_shards_, 1);
  row_sharded_.assign(params_.size(), 0);
  for (size_t i = 0; i < params_.size(); ++i) {
    const tensor::Tensor& p = params_[i];
    ODNET_CHECK(p.defined());
    row_sharded_[i] = p.rank() == 2 && p.dim(0) >= 2 ? 1 : 0;
  }
}

uint64_t ShardedEmbeddingStore::HashRow(int64_t row) {
  uint64_t z = static_cast<uint64_t>(row) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace nn
}  // namespace odnet
