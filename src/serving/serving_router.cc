#include "src/serving/serving_router.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <string>
#include <utility>

#include "src/serving/batch_scorer.h"
#include "src/util/check.h"

namespace odnet {
namespace serving {

namespace {

template <typename V>
typename TtlCache<V>::Options MakeCacheOptions(const RouterOptions& options,
                                               const char* stat_prefix) {
  typename TtlCache<V>::Options cache;
  cache.capacity = options.cache_capacity;
  cache.ttl_ns = options.cache_ttl_us * 1000;
  cache.clock = options.cache_clock;
  cache.stat_prefix = stat_prefix;
  return cache;
}

/// Padding target for a batch of `rows`: the next power-of-two bucket, no
/// larger than `max_rows`. Oversized batches (a single request beyond the
/// cap) are never padded.
int64_t BucketRows(int64_t rows, int64_t max_rows) {
  if (rows >= max_rows) return rows;
  int64_t bucket = 1;
  while (bucket < rows) bucket <<= 1;
  return std::min(bucket, max_rows);
}

}  // namespace

ServingRouter::ServingRouter(const RankingService* service,
                             RouterOptions options)
    : service_(service),
      options_(std::move(options)),
      coalesce_(service->model()->ThreadSafeScore()),
      feature_cache_(MakeCacheOptions<std::vector<data::OdPair>>(
          options_, "serving.router.cache")),
      scored_cache_(MakeCacheOptions<std::vector<RankedFlight>>(
          options_, "serving.router.scored")) {
  ODNET_CHECK_GT(options_.max_batch_rows, 0);
  ODNET_CHECK_GE(options_.batch_deadline_us, 0);
  ODNET_CHECK_GE(options_.queue_capacity, 0);
  ODNET_CHECK_GE(options_.num_workers, 1);
  // A model with shared mutable scoring state cannot take concurrent Score
  // calls, and its scores may depend on batch composition: one worker, one
  // request per batch, no padding.
  if (!coalesce_) options_.num_workers = 1;

  telemetry::TelemetryRegistry& reg = telemetry::TelemetryRegistry::Get();
  requests_ = reg.GetCounter("serving.router.requests");
  batches_ = reg.GetCounter("serving.router.batches");
  shed_ = reg.GetCounter("serving.router.shed");
  failed_ = reg.GetCounter("serving.router.failed");
  batched_rows_ = reg.GetCounter("serving.router.batched_rows");
  padded_rows_ = reg.GetCounter("serving.router.padded_rows");
  queue_depth_ = reg.GetGauge("serving.router.queue_depth");
  batch_rows_hist_ = reg.GetHistogram("serving.router.batch_rows");
  queue_wait_hist_ = reg.GetHistogram("serving.router.queue_wait_ns");

  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ServingRouter::~ServingRouter() { Shutdown(); }

std::shared_ptr<const std::vector<data::OdPair>> ServingRouter::CandidatesFor(
    int64_t user) {
  if (std::shared_ptr<const std::vector<data::OdPair>> cached =
          feature_cache_.Lookup(user)) {
    return cached;
  }
  auto fresh = std::make_shared<const std::vector<data::OdPair>>(
      service_->RecallFor(user));
  feature_cache_.InsertShared(user, fresh);
  return fresh;
}

void ServingRouter::SubmitTopK(int64_t user, int64_t k,
                               std::function<void(TopKResult)> done) {
  requests_->Add(1);
  if (k <= 0) {
    done(TopKResult(util::Status::InvalidArgument("k must be positive")));
    return;
  }
  if (user < 0 || user >= service_->dataset()->num_users) {
    done(TopKResult(util::Status::InvalidArgument("user out of range")));
    return;
  }
  // Hot-user fast path: a pure scorer's scored list is a function of the
  // user alone, so a warm entry answers inline — no queueing, no batch,
  // and bitwise the same scores a fresh batch would produce.
  if (coalesce_) {
    bool shut_down;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      shut_down = shutdown_;
    }
    if (!shut_down) {
      if (std::shared_ptr<const std::vector<RankedFlight>> scored =
              scored_cache_.Lookup(user)) {
        done(TopKResult(SelectTopK(*scored, k)));
        return;
      }
    }
  }
  enum class Admission { kAdmitted, kShed, kShutDown };
  // Admission pre-check before the recall work, so an overloaded router
  // sheds cheaply instead of recalling candidates it would then drop.
  Admission admission = Admission::kAdmitted;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) {
      admission = Admission::kShutDown;
    } else if (static_cast<int64_t>(queue_.size()) >=
               options_.queue_capacity) {
      admission = Admission::kShed;
    }
  }
  if (admission == Admission::kAdmitted) {
    Pending pending;
    pending.user = user;
    pending.k = k;
    pending.candidates = CandidatesFor(user);
    pending.done = std::move(done);
    std::lock_guard<std::mutex> lock(mutex_);
    // Re-check: the queue may have filled or shut down during recall.
    if (shutdown_) {
      admission = Admission::kShutDown;
      done = std::move(pending.done);
    } else if (static_cast<int64_t>(queue_.size()) >=
               options_.queue_capacity) {
      admission = Admission::kShed;
      done = std::move(pending.done);
    } else {
      pending.enqueue_ns = telemetry::Enabled() ? telemetry::NowNs() : 0;
      queue_.push_back(std::move(pending));
      queue_depth_->Set(static_cast<int64_t>(queue_.size()));
      cv_.notify_one();
      return;
    }
  }
  if (admission == Admission::kShed) {
    shed_->Add(1);
    done(TopKResult(util::Status::Unavailable("serving queue full")));
  } else {
    done(TopKResult(
        util::Status::FailedPrecondition("router is shut down")));
  }
}

std::future<TopKResult> ServingRouter::SubmitTopK(int64_t user, int64_t k) {
  auto promise = std::make_shared<std::promise<TopKResult>>();
  std::future<TopKResult> future = promise->get_future();
  SubmitTopK(user, k, [promise](TopKResult result) {
    promise->set_value(std::move(result));
  });
  return future;
}

TopKResult ServingRouter::RecommendTopK(int64_t user, int64_t k) {
  return SubmitTopK(user, k).get();
}

int64_t ServingRouter::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int64_t>(queue_.size());
}

void ServingRouter::InvalidateCaches() {
  feature_cache_.Clear();
  scored_cache_.Clear();
  service_->model()->InvalidateServingPlans();
}

void ServingRouter::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
  std::call_once(join_once_, [this] {
    for (std::thread& worker : workers_) worker.join();
  });
}

int64_t ServingRouter::TakeFront(std::vector<Pending>* batch) {
  Pending pending = std::move(queue_.front());
  queue_.pop_front();
  const int64_t rows = static_cast<int64_t>(pending.candidates->size());
  batch->push_back(std::move(pending));
  return rows;
}

void ServingRouter::WorkerLoop() {
  for (;;) {
    std::vector<Pending> batch;
    int64_t rows = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shut down and fully drained
      rows += TakeFront(&batch);
      if (coalesce_) {
        const std::chrono::steady_clock::time_point deadline =
            std::chrono::steady_clock::now() +
            std::chrono::microseconds(options_.batch_deadline_us);
        while (rows < options_.max_batch_rows) {
          if (!queue_.empty()) {
            const int64_t next_rows =
                static_cast<int64_t>(queue_.front().candidates->size());
            if (rows + next_rows > options_.max_batch_rows) break;
            rows += TakeFront(&batch);
            continue;
          }
          if (shutdown_) break;  // flush: no new arrivals are coming
          if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
            break;
          }
        }
      }
      queue_depth_->Set(static_cast<int64_t>(queue_.size()));
    }
    ProcessBatch(std::move(batch), rows);
  }
}

void ServingRouter::ProcessBatch(std::vector<Pending> batch, int64_t rows) {
  telemetry::SpanScope span("ServingRouter.Batch", "serving");
  batches_->Add(1);
  batched_rows_->Add(rows);
  batch_rows_hist_->Record(rows);
  if (telemetry::Enabled()) {
    const int64_t now = telemetry::NowNs();
    int64_t first_enqueue = 0;
    for (const Pending& pending : batch) {
      if (pending.enqueue_ns <= 0) continue;
      queue_wait_hist_->Record(now - pending.enqueue_ns);
      if (first_enqueue == 0 || pending.enqueue_ns < first_enqueue) {
        first_enqueue = pending.enqueue_ns;
      }
    }
    if (first_enqueue > 0) {
      telemetry::RecordLaneSpan("router.queue", "ServingRouter.QueueWait",
                                "serving", first_enqueue, now);
    }
  }

  // Every request's scored list is built before any request completes, so
  // a throwing model fails the whole batch with kInternal instead of
  // killing this worker thread and leaving the batch's futures unresolved.
  auto fail_batch = [this, &batch](const std::string& what) {
    failed_->Add(static_cast<int64_t>(batch.size()));
    for (Pending& pending : batch) {
      pending.done(
          TopKResult(util::Status::Internal("scoring failed: " + what)));
    }
  };
  std::vector<std::shared_ptr<std::vector<RankedFlight>>> scored;
  try {
    scored = ScoreBatch(batch, rows);
  } catch (const std::exception& e) {
    fail_batch(e.what());
    return;
  } catch (...) {
    fail_batch("unknown exception");
    return;
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    Pending& pending = batch[i];
    std::vector<RankedFlight> top = SelectTopK(*scored[i], pending.k);
    if (coalesce_) {
      scored_cache_.InsertShared(pending.user, std::move(scored[i]));
    }
    pending.done(TopKResult(std::move(top)));
  }
}

std::vector<std::shared_ptr<std::vector<RankedFlight>>>
ServingRouter::ScoreBatch(const std::vector<Pending>& batch,
                          int64_t rows) const {
  // One contiguous row block for the whole batch; offsets[i] .. offsets[i+1]
  // is request i's slice.
  std::vector<data::Sample> all_rows;
  all_rows.reserve(static_cast<size_t>(rows));
  std::vector<size_t> offsets;
  offsets.reserve(batch.size() + 1);
  for (const Pending& pending : batch) {
    offsets.push_back(all_rows.size());
    std::vector<data::Sample> request_rows =
        service_->BuildRows(pending.user, *pending.candidates);
    all_rows.insert(all_rows.end(), request_rows.begin(), request_rows.end());
  }
  offsets.push_back(all_rows.size());

  if (coalesce_ && options_.pad_to_bucket && !all_rows.empty()) {
    const int64_t target = BucketRows(static_cast<int64_t>(all_rows.size()),
                                      options_.max_batch_rows);
    const int64_t padding = target - static_cast<int64_t>(all_rows.size());
    if (padding > 0) {
      padded_rows_->Add(padding);
      all_rows.resize(static_cast<size_t>(target), all_rows.back());
    }
  }

  std::vector<baselines::OdScore> scores;
  {
    telemetry::SpanScope score_span("ServingRouter.Score", "serving");
    scores = ScoreChunked(service_->model(), *service_->dataset(), all_rows);
  }

  std::vector<std::shared_ptr<std::vector<RankedFlight>>> scored;
  scored.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    auto list = std::make_shared<std::vector<RankedFlight>>();
    list->reserve(offsets[i + 1] - offsets[i]);
    for (size_t j = offsets[i]; j < offsets[i + 1]; ++j) {
      list->push_back(
          RankedFlight{(*batch[i].candidates)[j - offsets[i]],
                       service_->model()->CombinedScore(scores[j])});
    }
    scored.push_back(std::move(list));
  }
  return scored;
}

}  // namespace serving
}  // namespace odnet
