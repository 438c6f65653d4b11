#ifndef ODNET_CORE_TRAINER_H_
#define ODNET_CORE_TRAINER_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "src/core/odnet_model.h"
#include "src/data/encoding.h"
#include "src/data/temporal_features.h"
#include "src/data/types.h"
#include "src/optim/optimizer.h"
#include "src/util/status.h"

namespace odnet {
namespace core {

/// Summary of one training run.
struct TrainStats {
  double first_epoch_loss = 0.0;
  double final_epoch_loss = 0.0;
  double seconds = 0.0;
  int64_t steps = 0;
};

/// InvalidArgument for a config the trainer cannot run: epochs, batch_size,
/// train_workers, embedding_shards or train_grad_slices below 1, or a
/// ps_mode other than "sync".
util::Status ValidateTrainConfig(const OdnetConfig& config);

/// \brief Minibatch trainer for OdnetModel: shuffled epochs over the train
/// samples, Adam (paper Sec. V-A-5), Eq. 8 loss.
///
/// With config.train_workers == 1 (default) this is the single-threaded
/// loop. With train_workers > 1 it is a synchronous data-parallel
/// parameter-server trainer (DESIGN.md §14): each batch is split into
/// config.train_grad_slices fixed micro-slices, a gang of train_workers
/// threads runs forward/backward on storage-aliased model replicas, the
/// slices' gradients are reduced onto the master in slice order, one task
/// per embedding shard, and one Adam step applies them. Its result depends
/// on the config, seed and slice grid, not on train_workers or
/// embedding_shards. Multi-worker training requires a replica factory
/// (set_replica_factory).
class OdnetTrainer {
 public:
  /// All pointers must outlive the trainer.
  OdnetTrainer(OdnetModel* model, const data::OdDataset* dataset,
               const data::TemporalFeatureIndex* temporal);

  /// Runs config.epochs epochs; deterministic given the model config seed.
  /// CHECK-fails on a config ValidateTrainConfig rejects.
  TrainStats Train();

  /// Factory for worker model replicas, required when train_workers > 1.
  /// Must build a model with the same architecture and config as the master
  /// (OdnetRecommender::Fit installs one automatically); the trainer aliases
  /// each replica's parameter storage onto the master's.
  void set_replica_factory(
      std::function<std::unique_ptr<OdnetModel>()> factory) {
    replica_factory_ = std::move(factory);
  }

  const data::BatchEncoder& encoder() const { return encoder_; }

 private:
  /// The single-threaded loop (train_workers == 1).
  TrainStats TrainSingleWorker();
  /// The data-parallel parameter-server loop (train_workers > 1).
  TrainStats TrainDataParallel();

  OdnetModel* model_;
  const data::OdDataset* dataset_;
  data::BatchEncoder encoder_;
  util::Rng shuffle_rng_;
  std::function<std::unique_ptr<OdnetModel>()> replica_factory_;
};

}  // namespace core
}  // namespace odnet

#endif  // ODNET_CORE_TRAINER_H_
