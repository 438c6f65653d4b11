#ifndef ODNET_CORE_HSGC_H_
#define ODNET_CORE_HSGC_H_

#include <memory>
#include <vector>

#include "src/core/config.h"
#include "src/graph/hsg.h"
#include "src/nn/linear.h"
#include "src/nn/module.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"

namespace odnet {
namespace core {

/// \brief Heterogeneous Spatial Graph Component (paper Sec. IV-A,
/// Algorithm 1, Eq. 1-2).
///
/// One copy is origin-aware (metapath rho_1 over departure edges) and one
/// destination-aware (rho_2 over arrive edges). Per forward pass it runs
/// the K-step neighborhood aggregation of Algorithm 1:
///
///   e^0_v   = M_T h_v                                 (line 1)
///   e^k_N   = sum_j alpha^{k-1}_ij e^{k-1}_j          (line 4, Eq. 1)
///   e^k_v   = ReLU(W^k [e^{k-1}_v ; e^k_N])           (line 5)
///
/// City-level aggregation runs over the full (small) city set — exactly the
/// "for each v in V" loop — while user embeddings are computed lazily for
/// the batch's users, since no other node consumes them. Neighborhoods are
/// re-sampled each pass with the configured cap (5, following [37]).
class Hsgc : public nn::Module {
 public:
  /// `graph` must be finalized and outlive this component.
  Hsgc(const graph::HeterogeneousSpatialGraph* graph, graph::Metapath rho,
       const OdnetConfig& config, util::Rng* rng);

  /// Per-pass state: the level-k city embedding tables (k = 0..K).
  struct State {
    std::vector<tensor::Tensor> city_levels;  // each [num_cities, d]
  };

  /// Runs the city-side K-step aggregation (Algorithm 1 over city nodes).
  State Forward();

  /// Level-K spatial semantic embeddings of `city_ids` laid out as
  /// `index_shape` (output index_shape + [d]). A plain gather from the
  /// state's top table.
  tensor::Tensor EmbedCities(const State& state,
                             const std::vector<int64_t>& city_ids,
                             const tensor::Shape& index_shape) const;

  /// Level-K embeddings of `user_ids` ([N, d]): runs the user-side chain
  /// of Algorithm 1 against the state's city tables. When a plan capture is
  /// active, the caller must keep the `user_ids` vector *object* alive and
  /// address-stable across replays (a bound-batch field), and call this at
  /// most once per capture (the per-level sampling workspaces are members).
  tensor::Tensor EmbedUsers(const State& state,
                            const std::vector<int64_t>& user_ids);

  int64_t embed_dim() const { return d_; }
  graph::Metapath metapath() const { return rho_; }

  /// Replaces the neighbor-sampling stream with one seeded at `seed`.
  /// The construction-time stream (drawn from the model's init Rng) keeps
  /// the single-threaded trainer's historical draw sequence; data-parallel
  /// workers reseed their replica's stream per batch slice with
  /// util::Rng::StreamSeed(seed, epoch, step, slice) so the sampled
  /// neighborhoods depend on the slice being processed, never on which
  /// worker ran it (DESIGN.md §14). Not thread-safe against a concurrent
  /// Forward/EmbedUsers on the same instance — each worker owns a replica.
  void SeedSampleStream(uint64_t seed) { sample_rng_ = util::Rng(seed); }

 private:
  /// Stable per-level sampling workspace. The neighbor re-sampling loops
  /// run inside PlanHostStage closures that write into these members, and
  /// the downstream lookup/mask tensors read them through HostTensor /
  /// EmbeddingLookup — so a captured plan re-samples into the very same
  /// vectors on every replay (advancing sample_rng_ exactly as an eager
  /// pass would).
  struct LevelWs {
    std::vector<int64_t> nbr_ids;  // [N * cap], 0 at pads
    std::vector<float> pad;        // [N * cap], 1 = real neighbor
    std::vector<float> spatial;    // [N * cap] w_ij, cities only
  };

  /// One aggregation step: given self embeddings [N, d] and per-row
  /// neighbor ids/pad ([N, cap]), computes e^k via Eq. 1 + line 5.
  /// `spatial` is the optional per-row w_ij matrix ([N, cap], cities
  /// only; null for the user chain). Both vectors must be address-stable
  /// workspace members (HostTensor closures capture them).
  tensor::Tensor AggregateStep(const tensor::Tensor& self_emb,
                               const tensor::Tensor& neighbor_emb,
                               const std::vector<float>* pad,
                               const std::vector<float>* spatial, int64_t n,
                               int64_t step) const;

  const graph::HeterogeneousSpatialGraph* graph_;
  graph::Metapath rho_;
  OdnetConfig config_;
  int64_t d_;

  nn::Embedding user_features_;  // h_v for user nodes
  nn::Embedding city_features_;  // h_v for city nodes
  nn::Linear transform_;         // M_T
  std::vector<std::unique_ptr<nn::Linear>> step_weights_;  // W^k, k=1..K

  std::vector<int64_t> all_cities_;     // [num_cities] identity id list
  std::vector<LevelWs> city_ws_;        // per level k = 1..K
  std::vector<LevelWs> user_ws_;        // per level k = 1..K

  mutable util::Rng sample_rng_;
};

}  // namespace core
}  // namespace odnet

#endif  // ODNET_CORE_HSGC_H_
