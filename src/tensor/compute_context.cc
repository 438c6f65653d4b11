#include "src/tensor/compute_context.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <thread>

#include "src/tensor/simd/simd_kernels.h"
#include "src/util/check.h"
#include "src/util/logging.h"

namespace odnet {
namespace tensor {

namespace {

thread_local Backend t_backend = Backend::kOptimized;

// Shards the fan-out rule allows for `total` units of `unit_work` scalar
// ops each on the active tier, at most `total`.
int64_t RuleShards(int64_t total, int64_t unit_work) {
  const double work = static_cast<double>(total) *
                      static_cast<double>(std::max<int64_t>(1, unit_work));
  const double vector_ops =
      work / static_cast<double>(ComputeContext::Lanes());
  const double shards =
      vector_ops / static_cast<double>(ComputeContext::kMinShardVectorOps);
  return shards >= static_cast<double>(total) ? total
                                              : static_cast<int64_t>(shards);
}

}  // namespace

util::Result<int> ParseNumThreads(const std::string& text) {
  const char* begin = text.c_str();
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(begin, &end, 10);
  // strtoll skips leading blanks and takes a sign; neither is accepted.
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])) ||
      *end != '\0' || errno == ERANGE || value < 1 ||
      value > ComputeContext::kMaxThreads) {
    return util::Status::InvalidArgument(
        "expected an integer in [1, " +
        std::to_string(ComputeContext::kMaxThreads) + "], got \"" + text +
        "\"");
  }
  return static_cast<int>(value);
}

int64_t ComputeContext::Lanes() {
  return std::max<int64_t>(1, simd::Kernels().narrow.width);
}

void ComputeContext::SetBackend(Backend backend) { t_backend = backend; }

Backend ComputeContext::backend() { return t_backend; }

ComputeContext::ComputeContext() {
  num_threads_ =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const char* raw = std::getenv("ODNET_NUM_THREADS");
  if (raw != nullptr && *raw != '\0') {
    util::Result<int> parsed = ParseNumThreads(raw);
    if (parsed.ok()) {
      num_threads_ = parsed.value();
    } else {
      ODNET_LOG_ERROR << "ODNET_NUM_THREADS: " << parsed.status().message()
                      << "; using " << num_threads_ << " threads";
    }
  }
}

ComputeContext& ComputeContext::Get() {
  static ComputeContext* ctx = new ComputeContext();  // leaked: outlives exit
  return *ctx;
}

void ComputeContext::SetNumThreads(int n) {
  ODNET_CHECK_GE(n, 1);
  std::lock_guard<std::mutex> lock(mutex_);
  if (n == num_threads_) return;
  num_threads_ = n;
  // Drop our reference only: a kernel holding the old generation via
  // shared_pool() finishes on it and destroys it when done.
  pool_.reset();
}

int ComputeContext::num_threads() {
  std::lock_guard<std::mutex> lock(mutex_);
  return num_threads_;
}

void ComputeContext::SetForceSplit(bool force) {
  force_split_.store(force, std::memory_order_relaxed);
}

bool ComputeContext::force_split() const {
  return force_split_.load(std::memory_order_relaxed);
}

std::shared_ptr<util::ThreadPool> ComputeContext::shared_pool() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (num_threads_ <= 1) return nullptr;
  if (!pool_) pool_ = std::make_shared<util::ThreadPool>(num_threads_);
  return pool_;
}

void ComputeContext::ParallelFor(int64_t total, int64_t unit_work,
                                 const std::function<void(int64_t, int64_t)>& fn) {
  if (total <= 0) return;
  // Decided from the work and the tier alone, before any pool lookup, so a
  // kernel that stays inline takes no lock.
  int64_t shards = force_split() ? total : RuleShards(total, unit_work);
  std::shared_ptr<util::ThreadPool> p =
      (shards >= 2 && !util::ThreadPool::InWorkerThread()) ? shared_pool()
                                                           : nullptr;
  if (p == nullptr) {
    fn(0, total);
    return;
  }
  shards = std::min<int64_t>(shards, p->num_threads());
  const int64_t chunk = (total + shards - 1) / shards;
  p->ParallelFor(shards, [&fn, total, chunk](int64_t s) {
    const int64_t begin = s * chunk;
    const int64_t end = std::min(total, begin + chunk);
    if (begin < end) fn(begin, end);
  });
}

}  // namespace tensor
}  // namespace odnet
