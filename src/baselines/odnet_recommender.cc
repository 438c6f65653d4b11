#include "src/baselines/odnet_recommender.h"

#include <algorithm>
#include <memory>

#include "src/core/hsg_builder.h"
#include "src/util/check.h"

namespace odnet {
namespace baselines {

OdnetRecommender::OdnetRecommender(std::string display_name,
                                   const data::CityAtlas* atlas,
                                   const core::OdnetConfig& config)
    : display_name_(std::move(display_name)), atlas_(atlas), config_(config) {
  ODNET_CHECK(atlas_ != nullptr || !config.use_hsgc);
}

util::Status OdnetRecommender::Fit(const data::OdDataset& dataset) {
  ODNET_RETURN_NOT_OK(core::ValidateTrainConfig(config_));
  if (config_.use_hsgc) {
    hsg_ = core::BuildHsgFromDataset(dataset, *atlas_);
  }
  temporal_ = std::make_unique<data::TemporalFeatureIndex>(
      dataset, dataset.num_cities,
      /*horizon_days=*/dataset.histories.empty()
          ? 730
          : std::max<int64_t>(730, dataset.histories[0].decision_day + 1));
  model_ = std::make_unique<core::OdnetModel>(hsg_.get(), dataset.num_users,
                                              dataset.num_cities, config_);
  core::OdnetTrainer trainer(model_.get(), &dataset, temporal_.get());
  if (config_.train_workers > 1) {
    // Data-parallel training builds one storage-aliased replica per worker;
    // the factory recreates the master's exact architecture (same config,
    // same graph, same dims) — the trainer re-points the weights.
    const graph::HeterogeneousSpatialGraph* graph = hsg_.get();
    const int64_t num_users = dataset.num_users;
    const int64_t num_cities = dataset.num_cities;
    const core::OdnetConfig cfg = config_;
    trainer.set_replica_factory([graph, num_users, num_cities, cfg]() {
      return std::make_unique<core::OdnetModel>(graph, num_users, num_cities,
                                                cfg);
    });
  }
  train_stats_ = trainer.Train();
  return util::Status::OK();
}

std::vector<OdScore> OdnetRecommender::Score(
    const data::OdDataset& dataset, const std::vector<data::Sample>& samples) {
  ODNET_CHECK(model_ != nullptr) << "Fit() not called";
  data::BatchEncoder encoder(&dataset, temporal_.get(),
                             data::SequenceSpec{config_.t_long,
                                                config_.t_short});
  std::vector<OdScore> out;
  out.reserve(samples.size());
  const size_t bs = static_cast<size_t>(config_.batch_size);
  for (size_t start = 0; start < samples.size(); start += bs) {
    size_t end = std::min(start + bs, samples.size());
    data::OdBatch batch = encoder.EncodeJoint(samples, start, end);
    // Served through the per-shape plan cache: every full-size chunk after
    // the first replays a captured plan (the ragged tail chunk gets its own
    // plan). Bitwise identical to eager Predict.
    auto [po, pd] = model_->PredictPlanned(batch);
    for (size_t i = 0; i < po.size(); ++i) {
      out.push_back(OdScore{po[i], pd[i]});
    }
  }
  return out;
}

double OdnetRecommender::theta() const {
  return model_ != nullptr ? model_->theta() : 0.5;
}

void OdnetRecommender::InvalidateServingPlans() {
  if (model_ != nullptr) model_->InvalidateServingPlans();
}

}  // namespace baselines
}  // namespace odnet
