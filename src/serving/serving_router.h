#ifndef ODNET_SERVING_SERVING_ROUTER_H_
#define ODNET_SERVING_SERVING_ROUTER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/data/types.h"
#include "src/serving/feature_cache.h"
#include "src/serving/ranking_service.h"
#include "src/util/status.h"

namespace odnet {
namespace serving {

/// Knobs of the async serving front-end.
struct RouterOptions {
  /// Target batch size in scoring rows (candidates). A batch closes once
  /// adding the next queued request would exceed this; a single request
  /// larger than the cap forms its own oversized batch.
  int64_t max_batch_rows = 256;

  /// How long an open batch waits for more requests before dispatching.
  /// 0 dispatches whatever is queued immediately (no coalescing delay).
  int64_t batch_deadline_us = 200;

  /// Admission-control high-water: pending requests beyond this are shed
  /// with StatusCode::kUnavailable. 0 sheds every request (drain mode).
  int64_t queue_capacity = 1024;

  /// Dispatcher threads scoring batches. Forced to 1 when the model is not
  /// ThreadSafeScore() (concurrent Score calls would race its state).
  int num_workers = 1;

  /// Pad each batch's row count up to the next power-of-two bucket (capped
  /// at max_batch_rows) by repeating the last row. Bounds the set of
  /// distinct batch shapes, so plan-cache-backed models keep replaying the
  /// same per-shape-signature plans instead of capturing a new plan for
  /// every batch composition. Safe for pure per-sample scorers; disabled
  /// automatically (with coalescing) for non-ThreadSafeScore models.
  bool pad_to_bucket = true;

  /// User feature cache: entry budget and TTL, covering both cached
  /// recalled candidate lists and — for pure per-sample scorers, where the
  /// scored list is a pure function of the user — cached scored candidate
  /// lists (a hit serves the request inline without queueing). Stale
  /// entries expire after the TTL and are re-fetched on the next request.
  /// cache_capacity <= 0 turns both caches off; cache_ttl_us <= 0 means
  /// entries never expire.
  int64_t cache_capacity = 4096;
  int64_t cache_ttl_us = 0;
  /// Test hook: clock driving cache TTLs (defaults to telemetry::NowNs).
  std::function<int64_t()> cache_clock;
};

/// A served list or a typed refusal (kUnavailable: shed by admission
/// control; kFailedPrecondition: router shut down; kInvalidArgument: bad
/// user/k; kInternal: the model threw while scoring the request's batch).
using TopKResult = util::Result<std::vector<RankedFlight>>;

/// \brief Async request router in front of RankingService: accepts
/// concurrent top-k requests, coalesces them across requests into
/// micro-batches (deadline + max-batch knobs), scores each batch through
/// the shared batch scorer in one call, and completes per-request futures
/// with heap-selected top-k lists.
///
/// The concurrent analogue of the paper's TPP serving front-end: the
/// bounded queue with load shedding stands in for RPC admission control,
/// micro-batching aligns request streams onto the per-shape-signature plan
/// cache, and the TTL feature cache absorbs hot users' work — their
/// recalled candidates always, and for pure per-sample scorers their
/// scored lists too, so a Zipf-hot request stream is served mostly from
/// cache while only the cold tail pays for recall + scoring.
///
/// Determinism contract: for ThreadSafeScore models (pure per-sample
/// scoring), every response is bitwise identical to the serial
/// RankingService::RecommendTopK answer for the same request, regardless of
/// batch composition, padding, worker count, or interleaving — the
/// differential suite enforces this. Models with shared mutable scoring
/// state are dispatched one request per batch on a single worker, which
/// reproduces the serial call sequence when submissions are serial.
///
/// A model that throws while a batch is scored fails that batch only: each
/// of its requests completes with kInternal and is counted in
/// serving.router.failed, and the worker goes on serving the queue.
///
/// Telemetry (category "serving"): serving.router.{requests,batches,shed,
/// failed,batched_rows,padded_rows} counters, cache counters under
/// serving.router.cache.* (candidate lists) and serving.router.scored.*
/// (scored lists), serving.router.queue_depth gauge,
/// serving.router.batch_rows + serving.router.queue_wait_ns histograms, and
/// per-batch spans (queue waits surface on the "router.queue" trace lane).
class ServingRouter {
 public:
  /// `service` must outlive the router.
  ServingRouter(const RankingService* service, RouterOptions options);
  ~ServingRouter();

  ServingRouter(const ServingRouter&) = delete;
  ServingRouter& operator=(const ServingRouter&) = delete;

  /// Async submit: the future completes when a dispatcher scores the batch
  /// containing this request. Rejections (shed, shut down, invalid request)
  /// complete the future immediately with the typed error.
  std::future<TopKResult> SubmitTopK(int64_t user, int64_t k);

  /// Callback submit for open-loop clients: `done` runs on the dispatcher
  /// thread right after scoring (or inline on rejection). The callback must
  /// not resubmit synchronously into a full queue loop.
  void SubmitTopK(int64_t user, int64_t k,
                  std::function<void(TopKResult)> done);

  /// Synchronous convenience: submit + wait.
  TopKResult RecommendTopK(int64_t user, int64_t k);

  /// Stops admission, lets the dispatchers drain every queued request, and
  /// joins them. Idempotent; also run by the destructor.
  void Shutdown();

  /// Model-refresh hook: drops both TTL caches (recalled candidates and
  /// scored lists) and tells the model to drop its captured serving plans,
  /// so no response served after this call is answered from pre-refresh
  /// cached artifacts. The cache clears are safe against concurrent
  /// submissions; the plan invalidation follows the model's own threading
  /// contract (invalidate between scoring calls, e.g. with the queue
  /// drained or from the thread that owns the refresh).
  void InvalidateCaches();

  /// Pending (admitted, not yet dispatched) requests — test hook.
  int64_t queue_depth() const;

  const RouterOptions& options() const { return options_; }

 private:
  struct Pending {
    int64_t user = 0;
    int64_t k = 0;
    std::shared_ptr<const std::vector<data::OdPair>> candidates;
    std::function<void(TopKResult)> done;
    int64_t enqueue_ns = 0;  // stamped only when telemetry is enabled
  };

  void WorkerLoop();
  /// Pops queue_ front into `batch` (mutex_ held). Returns its row count.
  int64_t TakeFront(std::vector<Pending>* batch);
  void ProcessBatch(std::vector<Pending> batch, int64_t rows);
  /// Recall rows, padding and scoring of one batch: request i's scored
  /// (pre-top-k) candidate list at index i. Throws what the model throws.
  std::vector<std::shared_ptr<std::vector<RankedFlight>>> ScoreBatch(
      const std::vector<Pending>& batch, int64_t rows) const;
  std::shared_ptr<const std::vector<data::OdPair>> CandidatesFor(
      int64_t user);

  const RankingService* service_;
  RouterOptions options_;
  bool coalesce_;  // cross-request batching + padding (pure scorers only)
  TtlCache<std::vector<data::OdPair>> feature_cache_;
  /// Scored (pre-top-k) candidate lists per user. Only populated and
  /// consulted when coalesce_: a non-pure scorer's output is not a function
  /// of the user alone, so caching it would change served scores.
  TtlCache<std::vector<RankedFlight>> scored_cache_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
  std::once_flag join_once_;

  telemetry::Counter* requests_;
  telemetry::Counter* batches_;
  telemetry::Counter* shed_;
  telemetry::Counter* failed_;
  telemetry::Counter* batched_rows_;
  telemetry::Counter* padded_rows_;
  telemetry::Gauge* queue_depth_;
  telemetry::Histogram* batch_rows_hist_;
  telemetry::Histogram* queue_wait_hist_;
};

}  // namespace serving
}  // namespace odnet

#endif  // ODNET_SERVING_SERVING_ROUTER_H_
