// End-to-end serving pipeline demo (paper Fig. 9's online path):
// query -> user features -> multi-strategy recall -> ranking -> top-k,
// comparing the lists ODNET and MostPop produce for the same users and
// reporting how each method's recall + ranking stages behave. The MostPop
// requests go through the async ServingRouter front-end (DESIGN.md
// section 13) — its pure per-sample scoring satisfies the router's
// bitwise-determinism contract, so the routed lists must match what the
// direct RankingService call would return.

#include <cstdio>

#include "src/baselines/most_pop.h"
#include "src/baselines/odnet_recommender.h"
#include "src/data/fliggy_simulator.h"
#include "src/serving/ranking_service.h"
#include "src/serving/recall.h"
#include "src/serving/serving_router.h"
#include "src/util/flags.h"

int main(int argc, char** argv) {
  using namespace odnet;
  util::FlagParser flags;
  flags.AddInt("users", 700, "number of simulated users");
  flags.AddInt("cities", 50, "number of cities");
  flags.AddInt("requests", 4, "number of serving requests to demo");
  flags.AddInt("train-workers", 1,
               "data-parallel training workers (>1 enables the sharded "
               "parameter-server trainer, DESIGN.md section 14)");
  flags.AddInt("shards", 1, "embedding store shards for the trainer");
  if (util::Status s = flags.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n%s", s.ToString().c_str(),
                 flags.Help().c_str());
    return 1;
  }

  data::FliggyConfig config;
  config.num_users = flags.GetInt("users");
  config.num_cities = flags.GetInt("cities");
  data::FliggySimulator simulator(config);
  data::OdDataset dataset = simulator.Generate();
  const data::CityAtlas& atlas = simulator.atlas();

  // Two ranking backends behind the same recall stage.
  core::OdnetConfig model_config;
  model_config.epochs = 3;
  model_config.train_workers = flags.GetInt("train-workers");
  model_config.embedding_shards = flags.GetInt("shards");
  baselines::OdnetRecommender odnet("ODNET", &atlas, model_config);
  if (util::Status s = odnet.Fit(dataset); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  baselines::MostPop most_pop;
  ODNET_CHECK(most_pop.Fit(dataset).ok());

  serving::RecallOptions recall_options;
  recall_options.route_exists = [&simulator](int64_t o, int64_t d) {
    return simulator.RouteExists(o, d);
  };
  serving::CandidateRecall recall(&dataset, &atlas, recall_options);
  serving::RankingService odnet_service(&odnet, &dataset, &recall);
  serving::RankingService pop_service(&most_pop, &dataset, &recall);
  serving::ServingRouter pop_router(&pop_service, serving::RouterOptions());

  const int64_t requests = flags.GetInt("requests");
  for (int64_t i = 0; i < requests &&
                      i < static_cast<int64_t>(dataset.test_users.size());
       ++i) {
    int64_t user = dataset.test_users[static_cast<size_t>(i)];
    const data::UserHistory& h =
        dataset.histories[static_cast<size_t>(user)];

    std::printf("=== request: user %lld ===\n", static_cast<long long>(user));
    std::printf("current city %s; %zu historical bookings, %zu recent "
                "clicks\n",
                atlas.city(h.current_city).name.c_str(), h.long_term.size(),
                h.short_term.size());
    std::printf("recall stage: %zu origins x %zu destinations -> %zu "
                "feasible OD pairs\n",
                recall.RecallOrigins(h).size(),
                recall.RecallDestinations(h).size(),
                recall.RecallPairs(h).size());

    auto print_list = [&](const char* label,
                          const std::vector<serving::RankedFlight>& list) {
      std::printf("%s:\n", label);
      for (const serving::RankedFlight& f : list) {
        std::printf("  %-14s -> %-14s score %.3f  price %.0f CNY\n",
                    atlas.city(f.od.origin).name.c_str(),
                    atlas.city(f.od.destination).name.c_str(), f.score,
                    simulator.Price(f.od.origin, f.od.destination));
      }
    };
    print_list("ODNET top-4", odnet_service.RecommendTopK(user, 4));
    serving::TopKResult routed = pop_router.RecommendTopK(user, 4);
    ODNET_CHECK(routed.ok());
    print_list("MostPop top-4 (via router)", routed.value());
    std::printf("ground truth next booking: %s -> %s\n\n",
                atlas.city(h.next_booking.origin).name.c_str(),
                atlas.city(h.next_booking.destination).name.c_str());
  }
  return 0;
}
