#ifndef ODNET_CORE_ODNET_MODEL_H_
#define ODNET_CORE_ODNET_MODEL_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/config.h"
#include "src/core/hsgc.h"
#include "src/core/od_jlc.h"
#include "src/core/pec.h"
#include "src/data/encoding.h"
#include "src/graph/hsg.h"
#include "src/nn/linear.h"
#include "src/nn/module.h"
#include "src/tensor/graph_plan.h"
#include "src/util/rng.h"

namespace odnet {
namespace core {

/// \brief One role-view encoder of Fig. 3: an (optional) HSGC copy plus a
/// PEC copy. Produces the task representation
///   q = [v_L ; e_user ; e_lbs ; e_candidate ; x_st]
/// for either the origin-aware or the destination-aware path.
class RoleEncoder : public nn::Module {
 public:
  /// With config.use_hsgc, embeddings come from the HSGC over `graph` and
  /// metapath `rho`; otherwise (the -G variants) ids embed directly.
  RoleEncoder(const graph::HeterogeneousSpatialGraph* graph,
              graph::Metapath rho, int64_t num_users, int64_t num_cities,
              const OdnetConfig& config, util::Rng* rng);

  /// Encodes a role-view batch into q: [B, q_dim()]. With the tape on
  /// (training) the HSGC runs Algorithm 1 over this pass's neighbor
  /// samples; without it (inference) the ids gather from the HSGC's
  /// inference tables.
  tensor::Tensor Forward(const data::TaskBatch& batch);

  /// Brings the HSGC inference tables up to date with the weights (no-op
  /// without an HSGC). A served plan gathers from the tables without
  /// running Forward, so it must be called before every capture or replay.
  void PrepareInference();

  /// Makes the next inference recompute the HSGC tables.
  void InvalidateTables();

  /// Reseeds the HSGC training sampling stream (no-op without an HSGC).
  void SeedSampleStream(uint64_t seed);

  /// 4 embeddings of width d plus the temporal-statistics block.
  int64_t q_dim() const;

 private:
  OdnetConfig config_;
  int64_t d_;
  std::unique_ptr<Hsgc> hsgc_;                 // present iff use_hsgc
  std::unique_ptr<nn::Embedding> user_embed_;  // fallback (no HSGC)
  std::unique_ptr<nn::Embedding> city_embed_;  // fallback (no HSGC)
  Pec pec_;
};

/// \brief The full ODNET model (paper Fig. 3): origin-aware and
/// destination-aware HSGC+PEC copies feeding the O&D joint learning
/// component, trained with the jointly-weighted loss of Eq. 8-10 and
/// served with the blended score of Eq. 11.
class OdnetModel : public nn::Module {
 public:
  /// `graph` may be null only when config.use_hsgc is false (ODNET-G).
  OdnetModel(const graph::HeterogeneousSpatialGraph* graph, int64_t num_users,
             int64_t num_cities, const OdnetConfig& config);

  struct Output {
    tensor::Tensor logit_o;  // [B, 1]
    tensor::Tensor logit_d;  // [B, 1]
  };

  /// Forward pass over a joint (origin-view, destination-view) batch.
  Output Forward(const data::OdBatch& batch);

  /// Training loss (Eq. 8): theta * L_O + (1 - theta) * L_D with the BCE
  /// task losses of Eq. 9-10.
  tensor::Tensor Loss(const data::OdBatch& batch);

  /// Inference (no tape): per-sample (p_O, p_D) probabilities. Eager, with
  /// op results leased from the thread's BufferArena for the duration of
  /// the call. The HSGC embeddings come from tables computed once per
  /// weights version (Hsgc::InferenceTables), so a row's scores depend only
  /// on the row and the weights, not on the batch or on earlier calls.
  std::pair<std::vector<double>, std::vector<double>> Predict(
      const data::OdBatch& batch);

  /// Like Predict, but served through a captured GraphPlan: the first batch
  /// of each shape signature (batch size, t_long, t_short) is an eager
  /// capture, subsequent same-shape batches replay the plan with zero graph
  /// construction or storage allocation. Bitwise identical to Predict. A
  /// shape change falls back to an eager capture of a new plan.
  std::pair<std::vector<double>, std::vector<double>> PredictPlanned(
      const data::OdBatch& batch);

  /// Counters and memory-plan stats of the serving plan cache. Mirrored
  /// into the telemetry registry as `serving.plan_cache.{hits,misses,
  /// recaptures}` plus `serving.plan_cache.memory.*` gauges — snapshot
  /// consumers should read those rather than this struct.
  struct ServingPlanStats {
    int64_t captures = 0;    // plans captured (distinct shape signatures)
    int64_t replays = 0;     // batches served by plan replay
    int64_t recaptures = 0;  // captures of a previously-seen signature
                             // (i.e. after InvalidateServingPlans)
    tensor::MemoryPlanStats memory;  // of the most recent capture
  };
  const ServingPlanStats& serving_plan_stats() const {
    return serving_plan_stats_;
  }

  /// Drops all captured serving plans (next batches re-capture) and makes
  /// the next inference recompute the HSGC tables.
  void InvalidateServingPlans();

  /// Reseeds both role encoders' HSGC training streams as a deterministic
  /// function of `seed` (distinct sub-streams per role). Data-parallel
  /// trainer workers call this on their replica before each batch slice so
  /// neighbor sampling is a function of (epoch, step, slice) alone. No-op
  /// for the -G variants.
  void SeedSampleStreams(uint64_t seed);

  /// Current value of the (learnable) loss weight theta.
  double theta() const;

  const OdnetConfig& config() const { return config_; }

 private:
  /// Refreshes both encoders' HSGC tables (RoleEncoder::PrepareInference).
  void PrepareInference();

  /// One cached serving plan: the plan plus the bound batch object its host
  /// closures point at (unique_ptr for address stability across map ops).
  struct ServingPlan {
    std::unique_ptr<data::OdBatch> bound;
    std::shared_ptr<tensor::GraphPlan> plan;
  };

  OdnetConfig config_;
  util::Rng init_rng_;  // initialization stream; must precede the encoders
  RoleEncoder origin_encoder_;
  RoleEncoder destination_encoder_;
  OdJlc jlc_;
  tensor::Tensor theta_raw_;  // theta = 0.3 + 0.4*sigmoid(raw), in (0.3, 0.7)

  std::map<std::string, ServingPlan> serving_plans_;  // by shape signature
  // Signatures ever captured; distinguishes a recapture (post-invalidation)
  // from a first-time miss.
  std::set<std::string> seen_signatures_;
  ServingPlanStats serving_plan_stats_;
};

}  // namespace core
}  // namespace odnet

#endif  // ODNET_CORE_ODNET_MODEL_H_
