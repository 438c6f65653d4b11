#include "src/core/odnet_model.h"

#include <cmath>

#include "src/data/temporal_features.h"
#include "src/telemetry/telemetry.h"
#include "src/tensor/ops.h"

namespace odnet {
namespace core {

using tensor::Tensor;

RoleEncoder::RoleEncoder(const graph::HeterogeneousSpatialGraph* graph,
                         graph::Metapath rho, int64_t num_users,
                         int64_t num_cities, const OdnetConfig& config,
                         util::Rng* rng)
    : config_(config), d_(config.embed_dim), pec_(config, rng) {
  if (config_.use_hsgc) {
    ODNET_CHECK(graph != nullptr) << "use_hsgc requires a finalized HSG";
    hsgc_ = std::make_unique<Hsgc>(graph, rho, config, rng);
    RegisterModule("hsgc", hsgc_.get());
  } else {
    user_embed_ = std::make_unique<nn::Embedding>(num_users, d_, rng);
    city_embed_ = std::make_unique<nn::Embedding>(num_cities, d_, rng);
    RegisterModule("user_embed", user_embed_.get());
    RegisterModule("city_embed", city_embed_.get());
  }
  RegisterModule("pec", &pec_);
}

int64_t RoleEncoder::q_dim() const {
  return 4 * d_ + data::TemporalFeatureIndex::kDim;
}

void RoleEncoder::SeedSampleStream(uint64_t seed) {
  if (hsgc_ != nullptr) hsgc_->SeedSampleStream(seed);
}

void RoleEncoder::PrepareInference() {
  if (hsgc_ != nullptr) hsgc_->InferenceTables();
}

void RoleEncoder::InvalidateTables() {
  if (hsgc_ != nullptr) hsgc_->InvalidateTables();
}

Tensor RoleEncoder::Forward(const data::TaskBatch& batch) {
  const int64_t b = batch.batch;
  ODNET_CHECK_GT(b, 0);

  // Spatial semantic embeddings of every id-typed input (Fig. 3's e^X_*):
  // the user's, then four gathers from one city table.
  Tensor e_user;
  Tensor cities;  // [num_cities, d]
  if (hsgc_ == nullptr) {
    e_user = user_embed_->Forward(batch.user_ids);
    cities = city_embed_->table();
  } else if (tensor::GradModeEnabled()) {
    Hsgc::State state = hsgc_->Forward();
    e_user = hsgc_->EmbedUsers(state, batch.user_ids);
    cities = state.city_levels.back();
  } else {
    const Hsgc::Tables& tables = hsgc_->InferenceTables();
    e_user = tensor::EmbeddingLookup(tables.users, batch.user_ids, {b});
    cities = tables.cities;
  }
  Tensor e_lbs = tensor::EmbeddingLookup(cities, batch.current_city, {b});
  Tensor e_cand = tensor::EmbeddingLookup(cities, batch.candidate, {b});
  Tensor e_long =
      tensor::EmbeddingLookup(cities, batch.long_seq, {b, batch.t_long});
  Tensor e_short =
      tensor::EmbeddingLookup(cities, batch.short_seq, {b, batch.t_short});

  // PEC: the attention-focused user preference vector v_L.
  Tensor v_l = pec_.Forward(e_long, batch.long_pad, e_short, batch.short_pad);

  // q = [v_L ; e_user ; e_lbs ; e_cand ; x_st]  (Fig. 4, bottom).
  const std::vector<float>* xst = &batch.xst;
  Tensor x_st = tensor::HostTensor(
      {b, data::TemporalFeatureIndex::kDim},
      [xst](float* out) { std::copy(xst->begin(), xst->end(), out); });
  return tensor::Concat({v_l, e_user, e_lbs, e_cand, x_st}, -1);
}

OdnetModel::OdnetModel(const graph::HeterogeneousSpatialGraph* graph,
                       int64_t num_users, int64_t num_cities,
                       const OdnetConfig& config)
    : config_(config),
      init_rng_(config.seed),
      origin_encoder_(graph, graph::Metapath::kDeparture, num_users,
                      num_cities, config, &init_rng_),
      destination_encoder_(graph, graph::Metapath::kArrive, num_users,
                           num_cities, config, &init_rng_),
      jlc_(origin_encoder_.q_dim(), config, &init_rng_) {
  RegisterModule("origin_encoder", &origin_encoder_);
  RegisterModule("destination_encoder", &destination_encoder_);
  RegisterModule("jlc", &jlc_);
  // theta = sigmoid(theta_raw); raw 0 -> theta 0.5 at start.
  theta_raw_ = Tensor::Zeros({});
  if (config_.learnable_theta) {
    theta_raw_ = RegisterParameter("theta_raw", theta_raw_);
  }
}

OdnetModel::Output OdnetModel::Forward(const data::OdBatch& batch) {
  Tensor q_o = origin_encoder_.Forward(batch.origin);
  Tensor q_d = destination_encoder_.Forward(batch.destination);
  OdJlc::Output head = jlc_.Forward(q_o, q_d);
  return Output{head.logit_o, head.logit_d};
}

Tensor OdnetModel::Loss(const data::OdBatch& batch) {
  Output out = Forward(batch);
  const int64_t b = batch.origin.batch;
  const std::vector<float>* lo = &batch.origin.labels;
  const std::vector<float>* ld = &batch.destination.labels;
  Tensor labels_o = tensor::HostTensor(
      {b, 1}, [lo](float* o) { std::copy(lo->begin(), lo->end(), o); });
  Tensor labels_d = tensor::HostTensor(
      {b, 1}, [ld](float* o) { std::copy(ld->begin(), ld->end(), o); });
  Tensor loss_o = tensor::BceWithLogits(out.logit_o, labels_o);  // Eq. 9
  Tensor loss_d = tensor::BceWithLogits(out.logit_d, labels_d);  // Eq. 10
  // Eq. 8 with learnable theta. Unconstrained, d(Loss)/d(theta) =
  // L_O - L_D drives theta to whichever task currently has the smaller
  // loss, starving the other tower (winner-take-all collapse); bounding
  // theta to [0.3, 0.7] keeps it learnable without letting either task
  // loss reach weight zero.
  Tensor theta = tensor::AddScalar(
      tensor::MulScalar(tensor::Sigmoid(theta_raw_), 0.4f), 0.3f);
  Tensor one_minus = tensor::AddScalar(tensor::Neg(theta), 1.0f);
  return tensor::Add(tensor::Mul(theta, loss_o),
                     tensor::Mul(one_minus, loss_d));
}

void OdnetModel::PrepareInference() {
  origin_encoder_.PrepareInference();
  destination_encoder_.PrepareInference();
}

std::pair<std::vector<double>, std::vector<double>> OdnetModel::Predict(
    const data::OdBatch& batch) {
  PrepareInference();
  tensor::NoGradGuard guard;
  // Op results lease from the thread's arena for the duration of the call;
  // the probabilities are copied out before the scope resets it.
  tensor::ArenaScope arena(tensor::BufferArena::ThreadLocal());
  Output out = Forward(batch);
  Tensor p_o = tensor::Sigmoid(out.logit_o);
  Tensor p_d = tensor::Sigmoid(out.logit_d);
  std::vector<double> po(p_o.vec().begin(), p_o.vec().end());
  std::vector<double> pd(p_d.vec().begin(), p_d.vec().end());
  return {std::move(po), std::move(pd)};
}

namespace {

std::string ShapeSignature(const data::OdBatch& batch) {
  return std::to_string(batch.origin.batch) + "x" +
         std::to_string(batch.origin.t_long) + "x" +
         std::to_string(batch.origin.t_short);
}

// Registry-facing plan-cache instruments (ISSUE 7): hits are replays,
// misses are first-time captures, recaptures are captures of a signature
// seen before (only possible after InvalidateServingPlans).
struct PlanCacheInstruments {
  telemetry::Counter* hits;
  telemetry::Counter* misses;
  telemetry::Counter* recaptures;

  static PlanCacheInstruments& Get() {
    static PlanCacheInstruments* in = [] {
      auto& reg = telemetry::TelemetryRegistry::Get();
      auto* i = new PlanCacheInstruments();
      i->hits = reg.GetCounter("serving.plan_cache.hits");
      i->misses = reg.GetCounter("serving.plan_cache.misses");
      i->recaptures = reg.GetCounter("serving.plan_cache.recaptures");
      return i;
    }();
    return *in;
  }
};

// MemoryPlanStats of the most recent capture, surfaced as gauges (high
// water tracks the largest plan captured so far).
void PublishMemoryPlanStats(const tensor::MemoryPlanStats& m) {
  auto& reg = telemetry::TelemetryRegistry::Get();
  reg.GetGauge("serving.plan_cache.memory.num_nodes")->Set(m.num_nodes);
  reg.GetGauge("serving.plan_cache.memory.num_buffers")->Set(m.num_buffers);
  reg.GetGauge("serving.plan_cache.memory.peak_bytes")->Set(m.peak_bytes);
  reg.GetGauge("serving.plan_cache.memory.requested_bytes")
      ->Set(m.requested_bytes);
}

}  // namespace

std::pair<std::vector<double>, std::vector<double>> OdnetModel::PredictPlanned(
    const data::OdBatch& batch) {
  // Before the plan lookup: a recompute must not be recorded into a
  // capture, and a replay reads the tables without running Forward.
  PrepareInference();
  const std::string sig = ShapeSignature(batch);
  auto it = serving_plans_.find(sig);
  if (it == serving_plans_.end()) {
    // First batch of this shape: capture (which IS one eager run).
    ServingPlan entry;
    entry.bound = std::make_unique<data::OdBatch>(batch);
    const data::OdBatch* bound = entry.bound.get();
    std::vector<Tensor> outs;
    entry.plan = tensor::GraphPlan::CaptureInference(
        [this, bound]() {
          Output out = Forward(*bound);
          return std::vector<Tensor>{tensor::Sigmoid(out.logit_o),
                                     tensor::Sigmoid(out.logit_d)};
        },
        &outs);
    ++serving_plan_stats_.captures;
    serving_plan_stats_.memory = entry.plan->memory_stats();
    const bool seen_before = !seen_signatures_.insert(sig).second;
    if (seen_before) {
      ++serving_plan_stats_.recaptures;
      PlanCacheInstruments::Get().recaptures->Add(1);
    } else {
      PlanCacheInstruments::Get().misses->Add(1);
    }
    PublishMemoryPlanStats(serving_plan_stats_.memory);
    serving_plans_.emplace(sig, std::move(entry));
    std::vector<double> po(outs[0].vec().begin(), outs[0].vec().end());
    std::vector<double> pd(outs[1].vec().begin(), outs[1].vec().end());
    return {std::move(po), std::move(pd)};
  }
  // Steady state: refresh the bound batch in place and replay.
  data::CopyOdBatchContents(batch, it->second.bound.get());
  PlanCacheInstruments::Get().hits->Add(1);
  const std::vector<Tensor>& outs = it->second.plan->Replay();
  ++serving_plan_stats_.replays;
  std::vector<double> po(outs[0].vec().begin(), outs[0].vec().end());
  std::vector<double> pd(outs[1].vec().begin(), outs[1].vec().end());
  return {std::move(po), std::move(pd)};
}

void OdnetModel::InvalidateServingPlans() {
  serving_plans_.clear();
  origin_encoder_.InvalidateTables();
  destination_encoder_.InvalidateTables();
}

void OdnetModel::SeedSampleStreams(uint64_t seed) {
  // Distinct sub-stream per role so the two encoders never sample from the
  // same sequence (tags 1/2 mirror the O/D ordering of Fig. 3).
  origin_encoder_.SeedSampleStream(util::Rng::StreamSeed(seed, 1));
  destination_encoder_.SeedSampleStream(util::Rng::StreamSeed(seed, 2));
}

double OdnetModel::theta() const {
  double sig =
      1.0 / (1.0 + std::exp(-static_cast<double>(theta_raw_.data()[0])));
  return 0.3 + 0.4 * sig;
}

}  // namespace core
}  // namespace odnet
