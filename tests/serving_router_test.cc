// Serving-router test battery (ISSUE 8):
//
//  - heap partial top-k vs the full-sort oracle, including deterministic
//    tie-breaking on a planted all-equal-scores list;
//  - differential fuzz (label `fuzz`): randomized request interleavings and
//    batch compositions through the router must be bitwise equal to the
//    serial RankingService oracle, across router configurations;
//  - bounded-queue edge cases: capacity 0/1, deadline firing with a single
//    queued request, shutdown draining in-flight batches, a request larger
//    than max-batch, a scorer that throws;
//  - TTL feature-cache semantics under a manual clock.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/baselines/gbdt.h"
#include "src/baselines/most_pop.h"
#include "src/baselines/odnet_recommender.h"
#include "src/baselines/stl_variants.h"
#include "src/core/hsg_builder.h"
#include "src/data/fliggy_simulator.h"
#include "src/serving/feature_cache.h"
#include "src/serving/ranking_service.h"
#include "src/serving/serving_router.h"
#include "src/telemetry/telemetry.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace odnet {
namespace serving {
namespace {

struct Fixture {
  Fixture() : simulator(MakeConfig()), dataset(simulator.Generate()) {}
  static data::FliggyConfig MakeConfig() {
    data::FliggyConfig config;
    config.num_users = 200;
    config.num_cities = 30;
    config.seed = 31;
    return config;
  }
  data::FliggySimulator simulator;
  data::OdDataset dataset;
};

Fixture& SharedFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

/// Service bundle over the shared fixture for one recommender.
struct ServiceUnderTest {
  explicit ServiceUnderTest(baselines::OdRecommender* method)
      : recall(&SharedFixture().dataset, &SharedFixture().simulator.atlas(),
               RecallOptions()),
        service(method, &SharedFixture().dataset, &recall) {}
  CandidateRecall recall;
  RankingService service;
};

baselines::MostPop& FittedMostPop() {
  static baselines::MostPop* method = [] {
    auto* m = new baselines::MostPop();
    EXPECT_TRUE(m->Fit(SharedFixture().dataset).ok());
    return m;
  }();
  return *method;
}

baselines::GbdtRecommender& FittedGbdt() {
  static baselines::GbdtRecommender* method = [] {
    baselines::GbdtConfig config;
    config.num_trees = 8;
    config.max_depth = 2;
    auto* m = new baselines::GbdtRecommender(config);
    EXPECT_TRUE(m->Fit(SharedFixture().dataset).ok());
    return m;
  }();
  return *method;
}

// ODNET and STL+G (both with the HSGC), one epoch each.
baselines::OdnetRecommender& FittedOdnet() {
  static baselines::OdnetRecommender* method = [] {
    core::OdnetConfig config;
    config.epochs = 1;
    auto* m = new baselines::OdnetRecommender(
        "ODNET", &SharedFixture().simulator.atlas(), config);
    EXPECT_TRUE(m->Fit(SharedFixture().dataset).ok());
    return m;
  }();
  return *method;
}

baselines::StlRecommender& FittedStlWithGraph() {
  static baselines::StlRecommender* method = [] {
    baselines::SingleTaskConfig config;
    config.epochs = 1;
    auto* m = new baselines::StlRecommender(
        config, /*use_hsgc=*/true,
        core::AtlasLocations(SharedFixture().simulator.atlas()));
    EXPECT_TRUE(m->Fit(SharedFixture().dataset).ok());
    return m;
  }();
  return *method;
}

void ExpectListsIdentical(const std::vector<RankedFlight>& got,
                          const std::vector<RankedFlight>& want,
                          const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].od.origin, want[i].od.origin) << context << " rank " << i;
    EXPECT_EQ(got[i].od.destination, want[i].od.destination)
        << context << " rank " << i;
    // Bitwise: batching must not perturb scores at all.
    EXPECT_EQ(got[i].score, want[i].score) << context << " rank " << i;
  }
}

/// Full-sort oracle for SelectTopK.
std::vector<RankedFlight> SortedTopK(std::vector<RankedFlight> scored,
                                     int64_t k) {
  std::sort(scored.begin(), scored.end(), FlightBefore);
  if (k < 0) k = 0;
  if (static_cast<int64_t>(scored.size()) > k) {
    scored.resize(static_cast<size_t>(k));
  }
  return scored;
}

// ------------------------------------------------------------- SelectTopK --

TEST(SelectTopKTest, MatchesFullSortOracleRandomized) {
  util::Rng rng(911);
  for (int iter = 0; iter < 50; ++iter) {
    const int64_t n = rng.UniformInt(0, 60);
    std::vector<RankedFlight> scored;
    for (int64_t i = 0; i < n; ++i) {
      RankedFlight f;
      f.od.origin = rng.UniformInt(0, 12);
      f.od.destination = rng.UniformInt(0, 12);
      // Quantized scores force plenty of exact ties.
      f.score = static_cast<double>(rng.UniformInt(0, 4)) / 4.0;
      scored.push_back(f);
    }
    for (int64_t k : {int64_t{0}, int64_t{1}, int64_t{5}, n, 2 * n + 1}) {
      ExpectListsIdentical(SelectTopK(scored, k), SortedTopK(scored, k),
                           "iter " + std::to_string(iter) + " k " +
                               std::to_string(k));
    }
  }
}

TEST(SelectTopKTest, AllEqualScoresTieBreakByFlightId) {
  // Planted all-equal-scores dataset: every flight scores 0.25, so the
  // returned order must be flight id (origin, then destination) alone —
  // independent of the candidate order.
  std::vector<RankedFlight> flights;
  for (int64_t o = 0; o < 6; ++o) {
    for (int64_t d = 0; d < 5; ++d) {
      if (o == d) continue;
      flights.push_back(RankedFlight{data::OdPair{o, d}, 0.25});
    }
  }
  std::vector<RankedFlight> expected = SortedTopK(flights, 10);
  util::Rng rng(7);
  for (int iter = 0; iter < 5; ++iter) {
    rng.Shuffle(&flights);
    ExpectListsIdentical(SelectTopK(flights, 10), expected,
                         "shuffle " + std::to_string(iter));
  }
  std::vector<RankedFlight> reversed(flights.rbegin(), flights.rend());
  ExpectListsIdentical(SelectTopK(reversed, 10), expected, "reversed");
}

TEST(SelectTopKTest, RecommendTopKMatchesFullSortOracle) {
  ServiceUnderTest sut(&FittedMostPop());
  for (int64_t user = 0; user < 25; ++user) {
    std::vector<data::OdPair> candidates = sut.service.RecallFor(user);
    std::vector<double> scores = sut.service.ScoreCandidates(user, candidates);
    std::vector<RankedFlight> scored;
    for (size_t i = 0; i < candidates.size(); ++i) {
      scored.push_back(RankedFlight{candidates[i], scores[i]});
    }
    for (int64_t k : {1, 5, 100}) {
      ExpectListsIdentical(sut.service.RecommendTopK(user, k),
                           SortedTopK(scored, k),
                           "user " + std::to_string(user) + " k " +
                               std::to_string(k));
    }
  }
}

// ---------------------------------------------------- router differential --

struct Request {
  int64_t user;
  int64_t k;
};

std::vector<Request> MakeRequests(util::Rng* rng, int64_t count) {
  std::vector<Request> requests;
  const int64_t num_users = SharedFixture().dataset.num_users;
  for (int64_t i = 0; i < count; ++i) {
    Request r;
    r.user = rng->UniformInt(0, num_users - 1);
    const int64_t kind = rng->UniformInt(0, 3);
    r.k = kind == 0 ? 1 : kind == 1 ? 3 : kind == 2 ? 7 : 100;
    requests.push_back(r);
  }
  return requests;
}

/// Submits `requests` from `num_threads` concurrent submitters (each thread
/// a shuffled slice) and returns results in request order.
std::vector<TopKResult> RunThroughRouter(ServingRouter* router,
                                         const std::vector<Request>& requests,
                                         int num_threads, uint64_t seed) {
  std::vector<std::future<TopKResult>> futures(requests.size());
  std::vector<std::thread> submitters;
  for (int t = 0; t < num_threads; ++t) {
    submitters.emplace_back([&, t] {
      std::vector<size_t> mine;
      for (size_t i = static_cast<size_t>(t); i < requests.size();
           i += static_cast<size_t>(num_threads)) {
        mine.push_back(i);
      }
      util::Rng rng(seed + static_cast<uint64_t>(t));
      rng.Shuffle(&mine);
      for (size_t i : mine) {
        futures[i] = router->SubmitTopK(requests[i].user, requests[i].k);
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  std::vector<TopKResult> results;
  results.reserve(requests.size());
  for (std::future<TopKResult>& f : futures) results.push_back(f.get());
  return results;
}

void RunDifferential(baselines::OdRecommender* method, uint64_t seed) {
  ServiceUnderTest sut(method);
  util::Rng rng(seed);
  std::vector<Request> requests = MakeRequests(&rng, 48);
  std::vector<std::vector<RankedFlight>> oracle;
  oracle.reserve(requests.size());
  for (const Request& r : requests) {
    oracle.push_back(sut.service.RecommendTopK(r.user, r.k));
  }

  for (int config = 0; config < 5; ++config) {
    RouterOptions options;
    options.num_workers = static_cast<int>(rng.UniformInt(1, 3));
    const int64_t batch_pick = rng.UniformInt(0, 2);
    options.max_batch_rows = batch_pick == 0 ? 8 : batch_pick == 1 ? 64 : 256;
    const int64_t deadline_pick = rng.UniformInt(0, 2);
    options.batch_deadline_us =
        deadline_pick == 0 ? 0 : deadline_pick == 1 ? 100 : 2000;
    options.pad_to_bucket = rng.Bernoulli(0.5);
    options.cache_capacity = rng.Bernoulli(0.5) ? 0 : 1024;
    options.queue_capacity = 4096;  // no shedding in the differential runs
    ServingRouter router(&sut.service, options);
    std::vector<TopKResult> results =
        RunThroughRouter(&router, requests, 3, seed * 17 + config);
    for (size_t i = 0; i < requests.size(); ++i) {
      ASSERT_TRUE(results[i].ok())
          << "config " << config << " request " << i << ": "
          << results[i].status().ToString();
      ExpectListsIdentical(results[i].value(), oracle[i],
                           "config " + std::to_string(config) + " request " +
                               std::to_string(i));
    }
  }
}

TEST(ServingRouterDifferentialTest, MostPopBatchedEqualsSerialOracle) {
  RunDifferential(&FittedMostPop(), 1234);
}

TEST(ServingRouterDifferentialTest, GbdtBatchedEqualsSerialOracle) {
  RunDifferential(&FittedGbdt(), 5678);
}

// ODNET and STL+G keep ThreadSafeScore() false, so every router config runs
// them on one worker, one request per Score call. The oracle's calls all
// come first, so the routed scores match only if a score depends on its
// rows and the weights alone.
TEST(ServingRouterDifferentialTest, OdnetSerialRouterEqualsSerialOracle) {
  ASSERT_FALSE(FittedOdnet().ThreadSafeScore());
  RunDifferential(&FittedOdnet(), 9012);
}

TEST(ServingRouterDifferentialTest, StlWithGraphSerialRouterEqualsSerialOracle) {
  ASSERT_FALSE(FittedStlWithGraph().ThreadSafeScore());
  RunDifferential(&FittedStlWithGraph(), 3456);
}

// --------------------------------------------------------- gate test prop --

/// Wraps a thread-safe scorer so Score blocks until Open(): makes "worker
/// busy scoring" a deterministic state the queue tests can hold.
class GateScorer : public baselines::OdRecommender {
 public:
  explicit GateScorer(baselines::OdRecommender* inner) : inner_(inner) {}

  std::string name() const override { return "Gate"; }
  util::Status Fit(const data::OdDataset& dataset) override {
    return inner_->Fit(dataset);
  }
  bool ThreadSafeScore() const override { return true; }
  std::vector<baselines::OdScore> Score(
      const data::OdDataset& dataset,
      const std::vector<data::Sample>& samples) override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ++entries_;
      cv_.notify_all();
      cv_.wait(lock, [this] { return open_; });
    }
    return inner_->Score(dataset, samples);
  }

  void Open() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }
  void AwaitEntries(int n) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this, n] { return entries_ >= n; });
  }

 private:
  baselines::OdRecommender* inner_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
  int entries_ = 0;
};

// ------------------------------------------------------- queue edge cases --

TEST(ServingRouterEdgeTest, CapacityZeroShedsEveryRequest) {
  ServiceUnderTest sut(&FittedMostPop());
  RouterOptions options;
  options.queue_capacity = 0;
  const int64_t shed_before =
      telemetry::TelemetryRegistry::Get().CounterValue("serving.router.shed");
  ServingRouter router(&sut.service, options);
  for (int i = 0; i < 3; ++i) {
    TopKResult result = router.RecommendTopK(i, 5);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), util::StatusCode::kUnavailable);
  }
  EXPECT_EQ(telemetry::TelemetryRegistry::Get().CounterValue(
                "serving.router.shed"),
            shed_before + 3);
}

TEST(ServingRouterEdgeTest, CapacityOneAdmitsOneAndShedsTheBurst) {
  GateScorer gate(&FittedMostPop());
  ServiceUnderTest sut(&gate);
  RouterOptions options;
  options.queue_capacity = 1;
  options.max_batch_rows = 1;  // one request per batch
  options.num_workers = 1;
  options.batch_deadline_us = 0;
  ServingRouter router(&sut.service, options);

  // First request is dequeued into a (gated) in-flight batch...
  std::future<TopKResult> first = router.SubmitTopK(0, 5);
  gate.AwaitEntries(1);
  // ...so the queue is empty again: the second request occupies the single
  // slot, and the third must shed with the typed error.
  std::future<TopKResult> second = router.SubmitTopK(1, 5);
  TopKResult third = router.RecommendTopK(2, 5);
  EXPECT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), util::StatusCode::kUnavailable);

  gate.Open();
  TopKResult r1 = first.get();
  TopKResult r2 = second.get();
  EXPECT_TRUE(r1.ok());
  EXPECT_TRUE(r2.ok());
}

TEST(ServingRouterEdgeTest, DeadlineFiresWithSingleQueuedRequest) {
  ServiceUnderTest sut(&FittedMostPop());
  const std::vector<RankedFlight> oracle = sut.service.RecommendTopK(3, 5);
  RouterOptions options;
  options.max_batch_rows = 1 << 20;  // never fills from one request
  options.batch_deadline_us = 2000;
  ServingRouter router(&sut.service, options);
  TopKResult result = router.RecommendTopK(3, 5);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectListsIdentical(result.value(), oracle, "deadline single request");
}

TEST(ServingRouterEdgeTest, ShutdownDrainsInFlightAndQueuedRequests) {
  GateScorer gate(&FittedMostPop());
  ServiceUnderTest gated(&gate);
  ServiceUnderTest plain(&FittedMostPop());
  RouterOptions options;
  options.max_batch_rows = 1;
  options.num_workers = 1;
  options.queue_capacity = 64;
  ServingRouter router(&gated.service, options);

  std::vector<std::future<TopKResult>> futures;
  for (int64_t user = 0; user < 5; ++user) {
    futures.push_back(router.SubmitTopK(user, 4));
  }
  gate.AwaitEntries(1);  // one batch in flight, the rest queued
  std::thread shutdown_thread([&router] { router.Shutdown(); });
  gate.Open();
  shutdown_thread.join();
  for (int64_t user = 0; user < 5; ++user) {
    TopKResult result = futures[static_cast<size_t>(user)].get();
    ASSERT_TRUE(result.ok()) << "user " << user << ": "
                             << result.status().ToString();
    ExpectListsIdentical(result.value(), plain.service.RecommendTopK(user, 4),
                         "drained user " + std::to_string(user));
  }
  // After the drain, new submits are refused with the shutdown error.
  TopKResult refused = router.RecommendTopK(0, 4);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST(ServingRouterEdgeTest, RequestLargerThanMaxBatchFormsOversizedBatch) {
  ServiceUnderTest sut(&FittedMostPop());
  const std::vector<RankedFlight> oracle = sut.service.RecommendTopK(7, 9);
  ASSERT_GT(sut.service.RecallFor(7).size(), 2u);
  RouterOptions options;
  options.max_batch_rows = 2;  // far below one request's candidate count
  options.batch_deadline_us = 0;
  ServingRouter router(&sut.service, options);
  TopKResult result = router.RecommendTopK(7, 9);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectListsIdentical(result.value(), oracle, "oversized request");
}

TEST(ServingRouterEdgeTest, InvalidRequestsGetTypedErrors) {
  ServiceUnderTest sut(&FittedMostPop());
  ServingRouter router(&sut.service, RouterOptions());
  TopKResult bad_k = router.RecommendTopK(0, 0);
  ASSERT_FALSE(bad_k.ok());
  EXPECT_EQ(bad_k.status().code(), util::StatusCode::kInvalidArgument);
  TopKResult bad_user =
      router.RecommendTopK(SharedFixture().dataset.num_users, 5);
  ASSERT_FALSE(bad_user.ok());
  EXPECT_EQ(bad_user.status().code(), util::StatusCode::kInvalidArgument);
}

/// Pure scorer over a fitted inner method whose first Score call throws,
/// standing in for a model that fails one batch and then recovers.
class ThrowOnceScorer : public baselines::OdRecommender {
 public:
  explicit ThrowOnceScorer(baselines::OdRecommender* inner) : inner_(inner) {}

  std::string name() const override { return "ThrowOnce"; }
  util::Status Fit(const data::OdDataset&) override {
    return util::Status::OK();  // inner is already fitted
  }
  bool ThreadSafeScore() const override { return true; }
  std::vector<baselines::OdScore> Score(
      const data::OdDataset& dataset,
      const std::vector<data::Sample>& samples) override {
    if (calls_.fetch_add(1) == 0) throw std::runtime_error("model fault");
    return inner_->Score(dataset, samples);
  }

 private:
  baselines::OdRecommender* inner_;
  std::atomic<int> calls_{0};
};

TEST(ServingRouterEdgeTest, ThrowingScorerFailsItsBatchAndKeepsServing) {
  ThrowOnceScorer scorer(&FittedMostPop());
  ServiceUnderTest sut(&scorer);
  ServiceUnderTest plain(&FittedMostPop());
  const int64_t rows_a = static_cast<int64_t>(sut.service.RecallFor(3).size());
  const int64_t rows_b = static_cast<int64_t>(sut.service.RecallFor(4).size());
  ASSERT_GT(rows_a, 0);
  ASSERT_GT(rows_b, 0);
  RouterOptions options;
  options.num_workers = 1;
  // A batch closes exactly when requests for users 3 and 4 are both in, so
  // each pair below always shares one batch; the deadline is a fallback.
  options.max_batch_rows = rows_a + rows_b;
  options.batch_deadline_us = 10 * 1000 * 1000;
  telemetry::TelemetryRegistry& reg = telemetry::TelemetryRegistry::Get();
  const int64_t failed_before = reg.CounterValue("serving.router.failed");
  ServingRouter router(&sut.service, options);

  std::future<TopKResult> a = router.SubmitTopK(3, 5);
  std::future<TopKResult> b = router.SubmitTopK(4, 5);
  for (std::future<TopKResult>* f : {&a, &b}) {
    TopKResult result = f->get();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), util::StatusCode::kInternal)
        << result.status().ToString();
  }
  EXPECT_EQ(reg.CounterValue("serving.router.failed"), failed_before + 2);

  // The worker survived the throw: the same pair is scored and served.
  std::future<TopKResult> a2 = router.SubmitTopK(3, 5);
  std::future<TopKResult> b2 = router.SubmitTopK(4, 5);
  TopKResult ra = a2.get();
  TopKResult rb = b2.get();
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  ExpectListsIdentical(ra.value(), plain.service.RecommendTopK(3, 5),
                       "user 3 after the failed batch");
  ExpectListsIdentical(rb.value(), plain.service.RecommendTopK(4, 5),
                       "user 4 after the failed batch");
  EXPECT_EQ(reg.CounterValue("serving.router.failed"), failed_before + 2);
}

// ---------------------------------------------------------- feature cache --

TEST(ServingRouterCacheTest, RepeatedUsersHitTheFeatureCache) {
  ServiceUnderTest sut(&FittedMostPop());
  const std::vector<RankedFlight> oracle = sut.service.RecommendTopK(11, 6);
  RouterOptions options;
  options.cache_capacity = 1024;
  options.cache_ttl_us = 0;  // never expires
  // MostPop is a pure scorer, so repeats of a hot user are answered from
  // the scored-list cache (inline, no queueing) after the first request.
  const int64_t hits_before = telemetry::TelemetryRegistry::Get().CounterValue(
      "serving.router.scored.hits");
  ServingRouter router(&sut.service, options);
  for (int i = 0; i < 10; ++i) {
    TopKResult result = router.RecommendTopK(11, 6);
    ASSERT_TRUE(result.ok());
    ExpectListsIdentical(result.value(), oracle,
                         "cached repeat " + std::to_string(i));
  }
  EXPECT_GE(telemetry::TelemetryRegistry::Get().CounterValue(
                "serving.router.scored.hits"),
            hits_before + 9);
  // Different k against the same warm entry: still the full-sort answer.
  ExpectListsIdentical(router.RecommendTopK(11, 2).value(),
                       sut.service.RecommendTopK(11, 2), "cached k=2");
}

/// Pure per-sample scorer over a fitted inner method with a mutable score
/// shift, standing in for a model whose weights get refreshed while the
/// router is serving from its caches.
class ShiftScorer : public baselines::OdRecommender {
 public:
  explicit ShiftScorer(baselines::OdRecommender* inner) : inner_(inner) {}

  std::string name() const override { return "Shift"; }
  util::Status Fit(const data::OdDataset&) override {
    return util::Status::OK();  // inner is already fitted
  }
  bool ThreadSafeScore() const override { return true; }
  std::vector<baselines::OdScore> Score(
      const data::OdDataset& dataset,
      const std::vector<data::Sample>& samples) override {
    std::vector<baselines::OdScore> out = inner_->Score(dataset, samples);
    const double shift = shift_.load();
    for (baselines::OdScore& s : out) {
      s.p_o += shift;
      s.p_d += shift;
    }
    return out;
  }
  void InvalidateServingPlans() override { invalidations_.fetch_add(1); }

  void set_shift(double shift) { shift_.store(shift); }
  int invalidations() const { return invalidations_.load(); }

 private:
  baselines::OdRecommender* inner_;
  std::atomic<double> shift_{0.0};
  std::atomic<int> invalidations_{0};
};

TEST(ServingRouterCacheTest, InvalidateCachesDropsStaleScoredLists) {
  ShiftScorer scorer(&FittedMostPop());
  ServiceUnderTest sut(&scorer);
  RouterOptions options;
  options.cache_capacity = 1024;
  options.cache_ttl_us = 0;  // never expires: only invalidation can evict
  ServingRouter router(&sut.service, options);

  // Warm the scored-list cache, then "refresh the model".
  const TopKResult before = router.RecommendTopK(11, 6);
  ASSERT_TRUE(before.ok());
  scorer.set_shift(0.25);

  // The warm entry keeps serving pre-refresh scores: staleness is exactly
  // what InvalidateCaches exists to end.
  TopKResult stale = router.RecommendTopK(11, 6);
  ASSERT_TRUE(stale.ok());
  ExpectListsIdentical(stale.value(), before.value(), "stale cached repeat");

  router.InvalidateCaches();
  EXPECT_EQ(scorer.invalidations(), 1)
      << "router must forward the refresh to the model's plan cache";

  // Next request re-recalls and re-scores with the new weights, matching
  // the serial post-refresh oracle.
  const std::vector<RankedFlight> oracle = sut.service.RecommendTopK(11, 6);
  TopKResult fresh = router.RecommendTopK(11, 6);
  ASSERT_TRUE(fresh.ok());
  ExpectListsIdentical(fresh.value(), oracle, "post-invalidate request");
  ASSERT_FALSE(fresh.value().empty());
  EXPECT_NE(fresh.value()[0].score, stale.value()[0].score)
      << "post-refresh scores must reflect the shifted weights";
}

TEST(TtlCacheTest, ManualClockExpiryAndRefresh) {
  std::atomic<int64_t> now{0};
  TtlCache<int>::Options options;
  options.capacity = 64;
  options.ttl_ns = 100;
  options.clock = [&now] { return now.load(); };
  TtlCache<int> cache(options);

  cache.Insert(5, 42);
  std::shared_ptr<const int> hit = cache.Lookup(5);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 42);

  now = 99;  // expires at insert(0) + 100
  EXPECT_NE(cache.Lookup(5), nullptr);
  now = 100;
  EXPECT_EQ(cache.Lookup(5), nullptr) << "entry must expire at TTL";
  EXPECT_EQ(cache.size(), 0) << "expired entry is removed on lookup";

  cache.Insert(5, 43);  // re-insert restarts the TTL
  now = 150;
  hit = cache.Lookup(5);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 43);
}

TEST(TtlCacheTest, CapacityBoundsEntriesAndKeepsNewest) {
  TtlCache<int>::Options options;
  options.capacity = 16;  // one entry per shard
  TtlCache<int> cache(options);
  for (int64_t key = 0; key < 100; ++key) {
    cache.Insert(key, static_cast<int>(key));
    std::shared_ptr<const int> hit = cache.Lookup(key);
    ASSERT_NE(hit, nullptr) << "freshly inserted key " << key;
    EXPECT_EQ(*hit, static_cast<int>(key));
  }
  EXPECT_LE(cache.size(), 16);
}

TEST(TtlCacheTest, ZeroCapacityDisablesCaching) {
  TtlCache<int>::Options options;
  options.capacity = 0;
  TtlCache<int> cache(options);
  cache.Insert(1, 10);
  EXPECT_EQ(cache.Lookup(1), nullptr);
  EXPECT_EQ(cache.size(), 0);
}

}  // namespace
}  // namespace serving
}  // namespace odnet
