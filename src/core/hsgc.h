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
/// destination-aware (rho_2 over arrive edges). It runs the K-step
/// neighborhood aggregation of Algorithm 1:
///
///   e^0_v   = M_T h_v                                 (line 1)
///   e^k_N   = sum_j alpha^{k-1}_ij e^{k-1}_j          (line 4, Eq. 1)
///   e^k_v   = ReLU(W^k [e^{k-1}_v ; e^k_N])           (line 5)
///
/// City-level aggregation runs over the full (small) city set — exactly the
/// "for each v in V" loop. Neighborhoods are sampled with the configured
/// cap (5, following [37]), in one of two ways:
///  - Training (Forward + EmbedUsers) re-samples on every pass from one
///    stream and embeds only the batch's users, since no other node
///    consumes them.
///  - Inference (InferenceTables) draws each node's neighbors from that
///    node's own stream, keyed by (seed, role, node, level), and embeds
///    every city and every user once per weights version, so a score
///    depends only on its row and the weights.
class Hsgc : public nn::Module {
 public:
  /// `graph` must be finalized and outlive this component.
  Hsgc(const graph::HeterogeneousSpatialGraph* graph, graph::Metapath rho,
       const OdnetConfig& config, util::Rng* rng);

  /// Per-pass state: the level-k city embedding tables (k = 0..K).
  struct State {
    std::vector<tensor::Tensor> city_levels;  // each [num_cities, d]
  };

  /// Training pass: the city-side K-step aggregation (Algorithm 1 over city
  /// nodes), neighbors drawn from the sampling stream.
  State Forward();

  /// Level-K spatial semantic embeddings of `city_ids` laid out as
  /// `index_shape` (output index_shape + [d]). A plain gather from the
  /// state's top table.
  tensor::Tensor EmbedCities(const State& state,
                             const std::vector<int64_t>& city_ids,
                             const tensor::Shape& index_shape) const;

  /// Level-K embeddings of `user_ids` ([N, d]): runs the user-side chain
  /// of Algorithm 1 against the state's city tables, neighbors drawn from
  /// the sampling stream.
  tensor::Tensor EmbedUsers(const State& state,
                            const std::vector<int64_t>& user_ids);

  /// Level-K embeddings of every node, for inference.
  struct Tables {
    tensor::Tensor cities;  // [num_cities, d]
    tensor::Tensor users;   // [num_users, d]
  };

  /// The tables of the current weights. Computed at the first call, and
  /// again once a weight of this component was written (Tensor::version)
  /// or InvalidateTables() was called, always into the same storage: a
  /// captured plan that gathers from them reads the new values. Not
  /// thread-safe. A recompute must not run under an active plan capture.
  const Tables& InferenceTables();

  /// Makes the next InferenceTables() recompute.
  void InvalidateTables() { tables_fresh_ = false; }

  int64_t embed_dim() const { return d_; }
  graph::Metapath metapath() const { return rho_; }

  /// Replaces the training sampling stream with one seeded at `seed`.
  /// The construction-time stream (drawn from the model's init Rng) keeps
  /// the single-threaded trainer's historical draw sequence; data-parallel
  /// workers reseed their replica's stream per batch slice with
  /// util::Rng::StreamSeed(seed, epoch, step, slice) so the sampled
  /// neighborhoods depend on the slice being processed, never on which
  /// worker ran it (DESIGN.md §14). Not thread-safe against a concurrent
  /// Forward/EmbedUsers on the same instance — each worker owns a replica.
  void SeedSampleStream(uint64_t seed) { sample_rng_ = util::Rng(seed); }

 private:
  /// Sampled neighbor cities of N nodes, `cap` slots per node.
  struct Neighbors {
    std::vector<int64_t> ids;    // [N * cap], 0 at pads
    std::vector<float> pad;      // [N * cap], 1 = real neighbor
    std::vector<float> spatial;  // [N * cap] w_ij; empty for users or
                                 // without spatial weights
  };

  /// Samples the neighbor cities of each of `nodes` (users when `users`,
  /// else cities) for aggregation level `level`: from `stream` in node
  /// order, or, when `stream` is null, each node from its own stream.
  Neighbors Sample(const std::vector<int64_t>& nodes, bool users,
                   int64_t level, util::Rng* stream) const;

  /// Level-k city tables, k = 0..K ([num_cities, d] each).
  std::vector<tensor::Tensor> CityLevels(util::Rng* stream);

  /// Level-K embeddings of `user_ids` against `city_levels`.
  tensor::Tensor UserChain(const std::vector<tensor::Tensor>& city_levels,
                           const std::vector<int64_t>& user_ids,
                           util::Rng* stream);

  /// One aggregation step: given self embeddings [N, d] and the rows'
  /// sampled neighbors, computes e^k via Eq. 1 + line 5.
  tensor::Tensor AggregateStep(const tensor::Tensor& self_emb,
                               const tensor::Tensor& neighbor_emb,
                               const Neighbors& neighbors, int64_t n,
                               int64_t step) const;

  /// Sum of this component's parameter versions.
  uint64_t WeightsVersion() const;

  const graph::HeterogeneousSpatialGraph* graph_;
  graph::Metapath rho_;
  OdnetConfig config_;
  int64_t d_;

  nn::Embedding user_features_;  // h_v for user nodes
  nn::Embedding city_features_;  // h_v for city nodes
  nn::Linear transform_;         // M_T
  std::vector<std::unique_ptr<nn::Linear>> step_weights_;  // W^k, k=1..K
  std::vector<tensor::Tensor> weights_;  // all of the above, for versions

  std::vector<int64_t> all_cities_;  // [num_cities] identity id list
  std::vector<int64_t> all_users_;   // [num_users] identity id list

  util::Rng sample_rng_;  // training stream
  uint64_t node_seed_;    // base of the per-node inference streams
  Tables tables_;
  bool tables_fresh_ = false;
  uint64_t tables_version_ = 0;
};

}  // namespace core
}  // namespace odnet

#endif  // ODNET_CORE_HSGC_H_
