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

namespace odnet {
namespace core {

/// Summary of one training run.
struct TrainStats {
  double first_epoch_loss = 0.0;
  double final_epoch_loss = 0.0;
  double seconds = 0.0;
  int64_t steps = 0;
};

/// \brief Minibatch trainer for OdnetModel: shuffled epochs over the train
/// samples, Adam (paper Sec. V-A-5), Eq. 8 loss.
///
/// With config.train_workers == 1 (default) this is the original
/// single-threaded loop, bit for bit. With train_workers > 1 it becomes a
/// data-parallel parameter-server trainer (DESIGN.md §14): each batch is
/// split into config.train_grad_slices fixed micro-slices, a gang of
/// train_workers threads runs forward/backward on storage-aliased model
/// replicas (one per worker; weights shared, gradients private), and the
/// per-slice gradients are shipped as sparse tensor::GradDelta bundles to a
/// ShardedEmbeddingStore whose shards apply them in parallel:
///
///   - ps_mode "sync": barrier per step; deltas are reduced onto the master
///     gradient in fixed slice order and applied with one ShardedAdam step.
///     The digest is a function of (config, seed, slice grid) only — the
///     same for every train_workers and embedding_shards value.
///   - ps_mode "async": hogwild-style; each slice's clipped delta is
///     enqueued to per-shard apply queues drained by dedicated applier
///     threads concurrently with the next slices' forward passes. Staleness
///     and queue depth are exported as trainer.shard.* telemetry;
///     numerically non-deterministic by design.
///
/// Multi-worker training requires a replica factory (set_replica_factory)
/// and the "dense-equivalent" sparse update mode.
class OdnetTrainer {
 public:
  /// All pointers must outlive the trainer.
  OdnetTrainer(OdnetModel* model, const data::OdDataset* dataset,
               const data::TemporalFeatureIndex* temporal);

  /// Runs config.epochs epochs; deterministic given the model config seed
  /// (ps_mode "sync"; "async" is documented non-deterministic).
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
  /// The original single-threaded loop (train_workers == 1).
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
