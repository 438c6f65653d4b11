#ifndef ODNET_UTIL_THREAD_POOL_H_
#define ODNET_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace odnet {
namespace util {

/// \brief Fixed-size worker pool used for data-parallel kernels and
/// evaluation sweeps.
///
/// The tensor backend (tensor::ComputeContext) fans blocked kernels out over
/// one process-wide pool; metric computation and simulator sweeps use it
/// directly. ParallelFor is a full fork-join: the calling thread participates
/// in the work and, while waiting for stragglers, drains other queued tasks,
/// so nested ParallelFor calls (a task that itself fans out) cannot deadlock.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>=1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; returns a future for its completion.
  std::future<void> Submit(std::function<void()> task);

  /// Runs fn(i) for i in [0, n) across the pool (plus the calling thread)
  /// and waits for completion. If any invocation throws, remaining indices
  /// are abandoned, all in-flight work is drained, and the first exception
  /// is rethrown on the caller.
  ///
  /// Called from a pool worker (or under a WorkerMark), this degrades to a
  /// plain serial loop on the calling thread: a nested fan-out would only
  /// queue shards behind the very task that is waiting on them and
  /// oversubscribe the machine once they do run. The serial fallback keeps
  /// the iteration order deterministic and the pool queue untouched.
  void ParallelFor(int64_t n, const std::function<void(int64_t)>& fn);

  /// Runs fn(0) on the calling thread and fn(1), ..., fn(n - 1) as queued
  /// tasks, one per index, and returns once all n calls have finished,
  /// rethrowing the first exception. Unlike ParallelFor it never falls back
  /// to a serial loop, wherever it is called from, so a pool of n - 1
  /// otherwise idle workers runs all n members at once: the data-parallel
  /// trainer keeps one such pool as its gang for a whole Train() call.
  void RunGang(int n, const std::function<void(int)>& fn);

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// True when the current thread is one of *any* ThreadPool's workers.
  /// Used by the tensor backend to run kernels serially inside pool tasks
  /// instead of fanning out again.
  static bool InWorkerThread();

  /// RAII guard that makes the current (non-pool) thread count as a pool
  /// worker for the scope's duration: nested ThreadPool::ParallelFor and
  /// tensor-kernel dispatch run serially on it. The data-parallel trainer
  /// marks its dedicated worker threads so K concurrent forward/backward
  /// passes never multiply into K fan-outs over the shared pool.
  class WorkerMark {
   public:
    WorkerMark();
    ~WorkerMark();
    WorkerMark(const WorkerMark&) = delete;
    WorkerMark& operator=(const WorkerMark&) = delete;

   private:
    bool previous_;
  };

 private:
  void WorkerLoop();
  /// Pops and runs one queued task on the calling thread; false when the
  /// queue is empty.
  bool RunOneTask();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool shutdown_ = false;
};

}  // namespace util
}  // namespace odnet

#endif  // ODNET_UTIL_THREAD_POOL_H_
