#ifndef ODNET_OPTIM_SHARDED_ADAM_H_
#define ODNET_OPTIM_SHARDED_ADAM_H_

#include "src/nn/sharded_embedding.h"
#include "src/optim/optimizer.h"

namespace odnet {
namespace optim {

/// \brief Plain Adam over a ShardedEmbeddingStore's parameter list. Sharding
/// partitions the gradient reduction, not the optimizer (DESIGN.md §14), so
/// this adds nothing to Adam. It stays only until the benchmark's next
/// change constructs Adam instead.
class ShardedAdam : public Adam {
 public:
  ShardedAdam(nn::ShardedEmbeddingStore* store, double lr)
      : Adam(store->params(), lr) {}
};

}  // namespace optim
}  // namespace odnet

#endif  // ODNET_OPTIM_SHARDED_ADAM_H_
