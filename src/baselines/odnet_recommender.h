#ifndef ODNET_BASELINES_ODNET_RECOMMENDER_H_
#define ODNET_BASELINES_ODNET_RECOMMENDER_H_

#include <memory>
#include <string>

#include "src/baselines/recommender.h"
#include "src/core/config.h"
#include "src/core/odnet_model.h"
#include "src/core/trainer.h"
#include "src/data/city_atlas.h"
#include "src/data/temporal_features.h"

namespace odnet {
namespace baselines {

/// \brief OdRecommender adapter over the full multi-task OdnetModel.
///
/// Covers both "ODNET" (config.use_hsgc = true) and the ablation
/// "ODNET-G" (use_hsgc = false). Fit() builds the HSG from training
/// histories, constructs the model, and runs the trainer.
class OdnetRecommender : public OdRecommender {
 public:
  /// `atlas` supplies city coordinates for the HSG; it must match the
  /// dataset's city space and outlive the recommender.
  OdnetRecommender(std::string display_name, const data::CityAtlas* atlas,
                   const core::OdnetConfig& config);

  std::string name() const override { return display_name_; }
  util::Status Fit(const data::OdDataset& dataset) override;
  std::vector<OdScore> Score(const data::OdDataset& dataset,
                             const std::vector<data::Sample>& samples) override;
  double theta() const override;
  void InvalidateServingPlans() override;
  // ThreadSafeScore stays false although the scores are pure (the HSGC
  // reads tables computed once per weights version): each captured
  // serving plan replays over one bound batch and one buffer set, and the
  // plan cache is unsynchronized, so concurrent Score calls would race.
  // The router then scores one request per call on one worker, which is
  // also the shape odbench serve's traced run can attribute.

  const core::OdnetModel* model() const { return model_.get(); }
  const core::TrainStats& train_stats() const { return train_stats_; }

 private:
  std::string display_name_;
  const data::CityAtlas* atlas_;
  core::OdnetConfig config_;
  std::unique_ptr<graph::HeterogeneousSpatialGraph> hsg_;
  std::unique_ptr<data::TemporalFeatureIndex> temporal_;
  std::unique_ptr<core::OdnetModel> model_;
  core::TrainStats train_stats_;
};

}  // namespace baselines
}  // namespace odnet

#endif  // ODNET_BASELINES_ODNET_RECOMMENDER_H_
