#ifndef ODNET_CORE_CONFIG_H_
#define ODNET_CORE_CONFIG_H_

#include <cstdint>
#include <string>

namespace odnet {
namespace core {

/// Hyper-parameters of ODNET and its ablation variants. Defaults follow the
/// paper's chosen operating point (4 heads, K=2, neighbor cap 5, Adam with
/// lr 0.01, batch 128, Gaussian(0, 0.05) init).
struct OdnetConfig {
  int64_t embed_dim = 16;          // l = d: id feature and hidden width
  int64_t num_heads = 4;           // PEC multi-head attention (Fig. 6a)
  int64_t exploration_depth = 2;   // K of Algorithm 1 (Fig. 6b)
  int64_t neighbor_cap = 5;        // HSG neighborhood cardinality cap [37]
  int64_t num_experts = 3;         // MMoE experts (Fig. 5)
  int64_t expert_dim = 32;         // d_r
  int64_t tower_hidden = 16;       // tower network hidden width
  float dropout = 0.0f;

  /// ODNET-G / STL-G remove the HSGC; ids embed directly.
  bool use_hsgc = true;
  /// Ablation: drop the w_ij spatial weights from Eq. 1 city attention.
  bool use_spatial_weights = true;
  /// Ablation: freeze theta at 0.5 instead of learning it (Eq. 8).
  bool learnable_theta = true;

  // Training.
  double learning_rate = 0.01;
  int64_t batch_size = 128;
  int64_t epochs = 5;
  int64_t t_long = 10;   // kept long-term sequence length
  int64_t t_short = 5;   // kept short-term sequence length
  uint64_t seed = 1234;

  // Data-parallel parameter-server training (DESIGN.md §14), used when
  // train_workers > 1. core::ValidateTrainConfig checks these fields.
  /// Data-parallel trainer workers, each running forward/backward on batch
  /// slices against a storage-aliased model replica.
  int64_t train_workers = 1;
  /// Row-ownership shards of the gradient reduction. Sets its parallelism
  /// only, never the numerics.
  int64_t embedding_shards = 1;
  /// Consistency mode; "sync" (barrier per step) is the only one.
  std::string ps_mode = "sync";
  /// Fixed micro-slices per batch. The result depends on this grid and the
  /// seed, never on train_workers.
  int64_t train_grad_slices = 4;
};

}  // namespace core
}  // namespace odnet

#endif  // ODNET_CORE_CONFIG_H_
