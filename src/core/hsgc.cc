#include "src/core/hsgc.h"

#include <algorithm>
#include <optional>

#include "src/tensor/graph_plan.h"
#include "src/tensor/ops.h"

namespace odnet {
namespace core {

using tensor::Tensor;

Hsgc::Hsgc(const graph::HeterogeneousSpatialGraph* graph, graph::Metapath rho,
           const OdnetConfig& config, util::Rng* rng)
    : graph_(graph),
      rho_(rho),
      config_(config),
      d_(config.embed_dim),
      user_features_(graph->num_users(), config.embed_dim, rng),
      city_features_(graph->num_cities(), config.embed_dim, rng),
      transform_(config.embed_dim, config.embed_dim, rng, /*bias=*/false),
      sample_rng_(rng->NextUint64()),
      node_seed_(util::Rng::StreamSeed(config.seed,
                                       static_cast<uint64_t>(rho))) {
  ODNET_CHECK(graph_ != nullptr);
  ODNET_CHECK(graph_->finalized());
  ODNET_CHECK_GE(config_.exploration_depth, 1);
  ODNET_CHECK_GE(config_.neighbor_cap, 1);
  RegisterModule("user_features", &user_features_);
  RegisterModule("city_features", &city_features_);
  RegisterModule("transform", &transform_);
  for (int64_t k = 1; k <= config_.exploration_depth; ++k) {
    // W^k maps the concatenated [self ; aggregated-neighborhood] back to d.
    step_weights_.push_back(
        std::make_unique<nn::Linear>(2 * d_, d_, rng, /*bias=*/true));
    RegisterModule("w" + std::to_string(k), step_weights_.back().get());
  }
  weights_ = Parameters();
  all_cities_.resize(static_cast<size_t>(graph_->num_cities()));
  for (int64_t c = 0; c < graph_->num_cities(); ++c) {
    all_cities_[static_cast<size_t>(c)] = c;
  }
  all_users_.resize(static_cast<size_t>(graph_->num_users()));
  for (int64_t u = 0; u < graph_->num_users(); ++u) {
    all_users_[static_cast<size_t>(u)] = u;
  }
}

Hsgc::Neighbors Hsgc::Sample(const std::vector<int64_t>& nodes, bool users,
                             int64_t level, util::Rng* stream) const {
  // The neighbor ids feed EmbeddingLookup by pointer and the masks become
  // constants: a plan could neither re-draw them nor keep them alive.
  ODNET_CHECK(!tensor::capture::Active())
      << "HSGC neighbor sampling under plan capture: inference entries "
         "refresh the HSGC tables before they capture";
  const int64_t n = static_cast<int64_t>(nodes.size());
  const int64_t cap = config_.neighbor_cap;
  const bool spatial = !users && config_.use_spatial_weights;
  Neighbors out;
  out.ids.assign(static_cast<size_t>(n * cap), 0);
  out.pad.assign(static_cast<size_t>(n * cap), 0.0f);
  if (spatial) out.spatial.assign(static_cast<size_t>(n * cap), 0.0f);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t node = nodes[static_cast<size_t>(i)];
    std::optional<util::Rng> own;
    util::Rng* rng = stream;
    if (rng == nullptr) {
      rng = &own.emplace(util::Rng::StreamSeed(
          node_seed_, users ? 1 : 0, static_cast<uint64_t>(node),
          static_cast<uint64_t>(level)));
    }
    const std::vector<int64_t> nbrs =
        users ? graph_->SampleUserNeighborCities(node, rho_, cap, rng)
              : graph_->SampleCityNeighborCities(node, rho_, cap, rng);
    for (size_t j = 0; j < nbrs.size(); ++j) {
      const size_t idx = static_cast<size_t>(i * cap) + j;
      out.ids[idx] = nbrs[j];
      out.pad[idx] = 1.0f;
      if (spatial) {
        out.spatial[idx] = static_cast<float>(
            graph_->SpatialWeight(node, nbrs[j]) *
            static_cast<double>(graph_->num_cities()));  // rescale to O(1)
      }
    }
  }
  return out;
}

Tensor Hsgc::AggregateStep(const Tensor& self_emb, const Tensor& neighbor_emb,
                           const Neighbors& neighbors, int64_t n,
                           int64_t step) const {
  const int64_t cap = config_.neighbor_cap;
  // Attention scores (Eq. 1): dot(self, neighbor), optionally scaled by the
  // spatial weight w_ij when the center node is a city.
  Tensor self3 = tensor::Reshape(self_emb, {n, 1, d_});
  Tensor scores = tensor::SumAxis(tensor::Mul(self3, neighbor_emb), -1);
  if (!neighbors.spatial.empty()) {
    scores = tensor::Mul(
        scores, Tensor::FromVector({n, cap}, neighbors.spatial));
  }
  scores = tensor::Relu(scores);
  // Mask out padded neighbor slots before the softmax.
  std::vector<float> additive(neighbors.pad.size());
  for (size_t i = 0; i < additive.size(); ++i) {
    additive[i] = neighbors.pad[i] > 0.5f ? 0.0f : -1e9f;
  }
  scores = tensor::Add(scores,
                       Tensor::FromVector({n, cap}, std::move(additive)));
  Tensor alpha = tensor::Softmax(scores);  // [n, cap]
  // Zero contributions from rows whose slots are all padded (isolated
  // nodes): multiply by the pad indicator.
  Tensor alpha_masked =
      tensor::Mul(alpha, Tensor::FromVector({n, cap}, neighbors.pad));
  Tensor alpha3 = tensor::Reshape(alpha_masked, {n, cap, 1});
  Tensor aggregated = tensor::SumAxis(tensor::Mul(alpha3, neighbor_emb), 1);
  // Line 5: ReLU(W^k . CONCAT(self, aggregated)).
  Tensor concat = tensor::Concat({self_emb, aggregated}, -1);
  return tensor::Relu(
      step_weights_[static_cast<size_t>(step - 1)]->Forward(concat));
}

std::vector<Tensor> Hsgc::CityLevels(util::Rng* stream) {
  const int64_t n = graph_->num_cities();
  // Level 0: e^0 = M_T h (line 1 of Algorithm 1), over all cities.
  std::vector<Tensor> levels{
      transform_.Forward(city_features_.Forward(all_cities_))};
  for (int64_t k = 1; k <= config_.exploration_depth; ++k) {
    const Neighbors nbrs = Sample(all_cities_, /*users=*/false, k, stream);
    const Tensor& prev = levels.back();
    Tensor nbr_emb =
        tensor::EmbeddingLookup(prev, nbrs.ids, {n, config_.neighbor_cap});
    levels.push_back(AggregateStep(prev, nbr_emb, nbrs, n, k));
  }
  return levels;
}

Tensor Hsgc::UserChain(const std::vector<Tensor>& city_levels,
                       const std::vector<int64_t>& user_ids,
                       util::Rng* stream) {
  const int64_t batch = static_cast<int64_t>(user_ids.size());
  // User chain of Algorithm 1: e^0_u, then K aggregation steps against the
  // city tables of the previous level. Users use the plain dot-product
  // branch of Eq. 1 (no spatial weight).
  Tensor user_emb = transform_.Forward(user_features_.Forward(user_ids));
  for (int64_t k = 1; k <= config_.exploration_depth; ++k) {
    const Neighbors nbrs = Sample(user_ids, /*users=*/true, k, stream);
    Tensor nbr_emb = tensor::EmbeddingLookup(
        city_levels[static_cast<size_t>(k - 1)], nbrs.ids,
        {batch, config_.neighbor_cap});
    user_emb = AggregateStep(user_emb, nbr_emb, nbrs, batch, k);
  }
  return user_emb;
}

Hsgc::State Hsgc::Forward() { return State{CityLevels(&sample_rng_)}; }

Tensor Hsgc::EmbedCities(const State& state,
                         const std::vector<int64_t>& city_ids,
                         const tensor::Shape& index_shape) const {
  return tensor::EmbeddingLookup(state.city_levels.back(), city_ids,
                                 index_shape);
}

Tensor Hsgc::EmbedUsers(const State& state,
                        const std::vector<int64_t>& user_ids) {
  return UserChain(state.city_levels, user_ids, &sample_rng_);
}

namespace {

// Copies `value` into `*table`, allocating owned storage on first use
// only, so a plan that captured the table reads the new values.
void StoreTable(const Tensor& value, Tensor* table) {
  if (!table->defined()) *table = Tensor::Zeros(value.shape());
  ODNET_CHECK(tensor::SameShape(table->shape(), value.shape()));
  std::copy(value.data(), value.data() + value.numel(),
            table->mutable_data());
}

}  // namespace

uint64_t Hsgc::WeightsVersion() const {
  uint64_t version = 0;
  for (const Tensor& w : weights_) version += w.version();
  return version;
}

const Hsgc::Tables& Hsgc::InferenceTables() {
  const uint64_t version = WeightsVersion();
  if (tables_fresh_ && version == tables_version_) return tables_;
  tensor::NoGradGuard no_grad;
  const std::vector<Tensor> city_levels = CityLevels(/*stream=*/nullptr);
  const Tensor users = UserChain(city_levels, all_users_, /*stream=*/nullptr);
  StoreTable(city_levels.back(), &tables_.cities);
  StoreTable(users, &tables_.users);
  tables_fresh_ = true;
  tables_version_ = version;
  return tables_;
}

}  // namespace core
}  // namespace odnet
