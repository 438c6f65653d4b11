#include "src/util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <utility>

#include "src/telemetry/telemetry.h"
#include "src/util/check.h"

namespace odnet {
namespace util {

namespace {
thread_local bool t_in_worker_thread = false;
}  // namespace

bool ThreadPool::InWorkerThread() { return t_in_worker_thread; }

ThreadPool::WorkerMark::WorkerMark() : previous_(t_in_worker_thread) {
  t_in_worker_thread = true;
}

ThreadPool::WorkerMark::~WorkerMark() { t_in_worker_thread = previous_; }

ThreadPool::ThreadPool(int num_threads) {
  ODNET_CHECK_GE(num_threads, 1);
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  // Telemetry wrap (queue-wait histogram + task span) happens here rather
  // than in the execution paths so WorkerLoop, RunOneTask, and the
  // ParallelFor drain loop are all covered by one call site.
  if (telemetry::Enabled()) {
    const int64_t enqueue_ns = telemetry::NowNs();
    task = [enqueue_ns, inner = std::move(task)] {
      static telemetry::Histogram* queue_wait =
          telemetry::TelemetryRegistry::Get().GetHistogram(
              "threadpool.queue_wait_ns");
      static telemetry::Counter* tasks =
          telemetry::TelemetryRegistry::Get().GetCounter("threadpool.tasks");
      queue_wait->Record(telemetry::NowNs() - enqueue_ns);
      tasks->Add(1);
      telemetry::SpanScope span("ThreadPool.Task", "threadpool");
      inner();
    };
  }
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ODNET_CHECK(!shutdown_) << "submit after shutdown";
    tasks_.push(std::move(packaged));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::ParallelFor(int64_t n, const std::function<void(int64_t)>& fn) {
  if (n <= 0) return;
  if (InWorkerThread()) {
    // Nested invocation from a pool task (or a WorkerMark'd trainer
    // worker): fanning out again would queue shards behind the caller and
    // oversubscribe the machine, so run serially right here.
    for (int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<int64_t> next{0};
  auto run_shard = [&next, n, &fn] {
    for (;;) {
      int64_t i = next.fetch_add(1);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        next.store(n);  // abandon remaining indices
        throw;
      }
    }
  };

  const int64_t shards = std::min<int64_t>(num_threads(), n);
  std::vector<std::future<void>> futures;
  futures.reserve(static_cast<size_t>(shards));
  for (int64_t s = 0; s < shards; ++s) futures.push_back(Submit(run_shard));

  // The caller is a full participant: even when every worker is busy (e.g.
  // a nested ParallelFor issued from inside a pool task) the loop drains.
  std::exception_ptr first_error;
  try {
    run_shard();
  } catch (...) {
    first_error = std::current_exception();
  }

  // While any shard future is pending, help run queued tasks — a pending
  // shard may be sitting behind unrelated work in the queue.
  for (auto& f : futures) {
    while (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      if (!RunOneTask()) {
        f.wait_for(std::chrono::milliseconds(1));
      }
    }
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::RunGang(int n, const std::function<void(int)>& fn) {
  std::vector<std::future<void>> members;
  for (int i = 1; i < n; ++i) members.push_back(Submit([&fn, i] { fn(i); }));
  std::exception_ptr first_error;
  if (n > 0) {
    try {
      fn(0);
    } catch (...) {
      first_error = std::current_exception();
    }
  }
  for (auto& f : members) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

bool ThreadPool::RunOneTask() {
  std::packaged_task<void()> task;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (tasks_.empty()) return false;
    task = std::move(tasks_.front());
    tasks_.pop();
  }
  task();
  return true;
}

void ThreadPool::WorkerLoop() {
  t_in_worker_thread = true;
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
      if (shutdown_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

}  // namespace util
}  // namespace odnet
