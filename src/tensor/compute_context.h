#ifndef ODNET_TENSOR_COMPUTE_CONTEXT_H_
#define ODNET_TENSOR_COMPUTE_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace odnet {
namespace tensor {

/// Which kernel implementations the ops in ops.cc dispatch to.
enum class Backend {
  /// The production path: tiled, thread-pool-parallel kernels.
  kOptimized,
  /// The correctness oracle: naive, obviously-correct, single-threaded
  /// kernels (reference_backend.h). Same op signatures, same accumulation
  /// order, independent iteration/tiling code — so the differential test
  /// harness can assert bitwise agreement against the optimized path.
  kReference,
};

/// \brief Process-wide configuration of the parallel tensor backend.
///
/// Kernels in ops.cc and the optimizer partition their work into contiguous
/// ranges and may fan out over one shared util::ThreadPool owned by this
/// context. The thread count is set by SetNumThreads(), or by the
/// ODNET_NUM_THREADS environment variable read at first use (an integer in
/// [1, kMaxThreads]; anything else logs an error and keeps the default,
/// std::thread::hardware_concurrency()). 1 means "serial".
///
/// Fan-out rule: a kernel splits only into shards that each carry at least
/// kMinShardVectorOps vector operations of the active CPU tier. Each call
/// site reports its work per unit in scalar ops; ParallelFor divides by the
/// tier's lane count and fans out only when two or more shards reach the
/// minimum. A fork-join over the pool costs tens of µs, so at ODNET's
/// shapes (d = 16, T <= 10, batch 128) every kernel stays on the calling
/// thread, while a 128^3 MatMul or a multi-MB Adam step still splits.
///
/// Determinism contract: every parallel kernel writes a disjoint output
/// range per worker and keeps the per-element accumulation order of the
/// serial kernel, so results are bitwise identical for every thread count.
class ComputeContext {
 public:
  /// Upper bound on ODNET_NUM_THREADS; larger values are rejected.
  static constexpr int kMaxThreads = 256;

  /// Minimum work of one shard, in vector operations of the active tier.
  /// Calibrated on the 4-vCPU AVX-512 box against a fork-join of 20-60 µs:
  /// there this much work takes about 45 µs in a MatMul and 45-65 µs in a
  /// dense Adam step, so a 128^3 MatMul splits in two while ODNET's largest
  /// kernel, a [128, 136] x [136, 64] expert MatMul (53 µs), stays whole
  /// (DESIGN.md §7).
  static constexpr int64_t kMinShardVectorOps = int64_t{1} << 16;

  /// The process-wide context.
  static ComputeContext& Get();

  /// Lane count of the active CPU tier (1 on the scalar tier): the divisor
  /// the fan-out rule applies to scalar ops. A loop that does not vectorize
  /// costs a whole vector op per element, so it reports this many scalar
  /// ops per element.
  static int64_t Lanes();

  /// Kernel backend of the *calling thread* (thread-local state). Thread-
  /// local so a differential harness can oracle-check ops on one thread
  /// while other threads keep serving on the optimized path. Backward
  /// closures consult this at execution time, so forward and backward of
  /// one tape can even run under different backends.
  static void SetBackend(Backend backend);
  static Backend backend();

  /// Sets the backend width (>= 1; 1 = serial). Rebuilds the pool lazily;
  /// a kernel already running keeps (and finishes on) the pool generation
  /// it grabbed — see shared_pool().
  void SetNumThreads(int n);
  int num_threads();

  /// Test hook: when set, every fan-out site splits its range over the
  /// whole pool regardless of its work, so tests can drive the parallel
  /// code paths with tiny tensors.
  void SetForceSplit(bool force);
  bool force_split() const;

  /// Runs fn(begin, end) over [0, total), where one unit of the range costs
  /// `unit_work` scalar ops (a multiply-add counts once). Splits the range
  /// into contiguous shards across the pool when the fan-out rule above
  /// allows two or more; otherwise — and always on a pool worker or under a
  /// WorkerMark — runs one inline fn(0, total) call without touching the
  /// pool. The fixed range arithmetic plus disjoint writes make parallel
  /// results bitwise equal to the serial ones.
  void ParallelFor(int64_t total, int64_t unit_work,
                   const std::function<void(int64_t, int64_t)>& fn);

  /// The shared pool, built on first use; nullptr when num_threads() == 1.
  /// Returned as a shared_ptr: callers hold their copy for the duration of
  /// the work they dispatch, so a concurrent SetNumThreads (which retires
  /// the context's reference) cannot destroy a pool mid-kernel — the last
  /// holder tears it down after its fork-join completes.
  std::shared_ptr<util::ThreadPool> shared_pool();

 private:
  ComputeContext();

  mutable std::mutex mutex_;
  int num_threads_ = 1;
  std::atomic<bool> force_split_{false};
  std::shared_ptr<util::ThreadPool> pool_;
};

/// Parses an ODNET_NUM_THREADS value: a decimal integer in
/// [1, ComputeContext::kMaxThreads] with nothing after it. InvalidArgument
/// otherwise (empty, non-numeric, trailing characters, out of range).
util::Result<int> ParseNumThreads(const std::string& text);

/// \brief RAII switch of the calling thread's kernel backend.
///
/// Used by the differential tests: run a graph under
/// `BackendGuard guard(Backend::kReference);`, rerun it optimized, and
/// compare bitwise.
class BackendGuard {
 public:
  explicit BackendGuard(Backend backend)
      : previous_(ComputeContext::backend()) {
    ComputeContext::SetBackend(backend);
  }
  ~BackendGuard() { ComputeContext::SetBackend(previous_); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

 private:
  Backend previous_;
};

}  // namespace tensor
}  // namespace odnet

#endif  // ODNET_TENSOR_COMPUTE_CONTEXT_H_
