#ifndef ODNET_TENSOR_GRAPH_PLAN_H_
#define ODNET_TENSOR_GRAPH_PLAN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/tensor/buffer_arena.h"
#include "src/tensor/cpu_capability.h"
#include "src/tensor/shape.h"
#include "src/tensor/tensor.h"

namespace odnet {
namespace tensor {

// Capture/replay execution plans (DESIGN.md §10).
//
// A plan records one *eager* run of a program — every op appends a node
// holding a replayable kernel closure plus the value ids of its operands —
// and can then re-execute the same topologically-ordered node list without
// rebuilding the graph or reallocating result buffers. Replay is bitwise
// identical to eager execution: the recorded kernels are the very closures
// the eager op ran (they re-consult the thread's Backend and the
// ComputeContext pool at execution time), node order equals eager op order,
// and host work (batch copies, dropout mask draws) re-runs in record order
// so RNG streams advance exactly as they would eagerly.
//
// Host data flows through HostTensor(shape, fill) (ops.h): a tensor whose
// contents are produced by a host closure; replay re-runs the closure into
// the same buffer. The closure captures *object* addresses (bound-batch
// fields) that the consumer guarantees stable across replays — never raw
// data pointers of temporaries.

/// Operand pointers resolved for one node at replay time: `in[i]` is the
/// i-th recorded input's buffer, `out` the node's output buffer.
struct ReplayPtrs {
  const float* const* in;
  float* out;
};

/// A replayable op kernel. Must write `out` exclusively (fully, unless the
/// node was recorded with zero_init_output — then the runtime pre-zeros the
/// buffer and the kernel accumulates).
using ReplayKernel = std::function<void(const ReplayPtrs&)>;

namespace capture {

/// True when the calling thread is recording into a plan. Ops use this to
/// skip the (allocating) RecordOp call on the hot eager path.
bool Active();

/// Records one op node: `out` was produced from `ins` by `kernel`.
/// `zero_init_output` marks kernels that accumulate into their output
/// (MatMul, SumAxis) so replay pre-zeros the buffer.
void RecordOp(const Tensor& out, const std::vector<Tensor>& ins,
              ReplayKernel kernel, bool zero_init_output = false);

/// Records a zero-copy aliasing node: `out` shares `src`'s storage
/// (Reshape views). Replay does no work; consumers of `out` resolve to
/// `src`'s buffer.
void RecordAlias(const Tensor& out, const Tensor& src);

/// Capture-integrity counter, bumped by Tensor::MakeForOp/MakeViewForOp.
/// EndCapture CHECKs it equals the number of recorded nodes, so an op that
/// is not capture-aware aborts the capture instead of silently producing a
/// plan with a hole in it.
void NoteTensorCreated();

/// Marks the active capture (if any) as touching host state from inside a
/// replay kernel (HostTensor fills, Dropout mask redraws). Such plans
/// report has_host_stages() and must be replayed serially.
void NoteHostData();

}  // namespace capture

/// Liveness-based memory-plan statistics of an inference GraphPlan.
struct MemoryPlanStats {
  int64_t num_nodes = 0;        // replayable op nodes (excl. aliases)
  int64_t num_values = 0;       // intermediate values needing a buffer
  int64_t num_buffers = 0;      // physical buffers after liveness reuse
  int64_t requested_bytes = 0;  // sum of all intermediate value sizes
  int64_t peak_bytes = 0;       // sum of physical buffer sizes
  double reuse_ratio = 0.0;     // 1 - peak/requested (0 when no reuse)
};

/// \brief A captured inference program: topo-ordered nodes with static
/// shapes and a liveness-planned buffer assignment.
///
/// Capture runs the program once eagerly under NoGrad, recording every op.
/// The memory plan walks the node list with per-value liveness (an alias
/// chain shares its root's buffer; program outputs are pinned) and greedily
/// reuses retired buffers of equal size, so Replay() touches a fixed set of
/// arena-backed buffers and performs zero graph or storage allocation in
/// steady state.
///
/// Replay() uses the plan's own buffer set and is single-threaded per plan;
/// for concurrent replay of a *shared* plan, give each thread its own
/// Buffers via NewBuffers()/ReplayOn() — safe only for pure-tensor plans
/// (plans with host stages share whatever host state their HostTensor and
/// Dropout kernels touch, and must be replayed serially; the ODNET serving
/// plan reads its bound batch that way).
class GraphPlan {
 public:
  /// Per-executor buffer set: the planned physical buffers (arena-backed),
  /// pre-wrapped output tensors, and pointer scratch. One Buffers instance
  /// per concurrent replayer.
  class Buffers {
   public:
    ~Buffers() = default;
    Buffers(const Buffers&) = delete;
    Buffers& operator=(const Buffers&) = delete;

   private:
    friend class GraphPlan;
    Buffers() = default;
    BufferArena arena_;
    std::vector<std::shared_ptr<std::vector<float>>> slots_;
    std::vector<const float*> input_ptrs_;
    std::vector<const float*> scratch_;
    std::vector<Tensor> outputs_;
  };

  /// Records one eager run of `program` under NoGrad. The tensors `program`
  /// returns become the plan outputs (their eagerly computed values are
  /// returned through `capture_results` when non-null). `inputs` lists
  /// tensors whose *values* are rebound per replay (pass fresh same-shaped
  /// tensors to ReplayOn); any other pre-existing tensor the program reads
  /// is captured as a constant whose storage the plan retains.
  static std::shared_ptr<GraphPlan> CaptureInference(
      const std::function<std::vector<Tensor>()>& program,
      std::vector<Tensor>* capture_results = nullptr,
      const std::vector<Tensor>& inputs = {});

  /// Fresh buffer set for ReplayOn (allocates once; replays are then
  /// allocation-free).
  std::unique_ptr<Buffers> NewBuffers() const;

  /// Re-executes the recorded nodes into `buffers`. `inputs` must match the
  /// captured input count and shapes. Returns the plan outputs wrapped over
  /// `buffers`' storage (valid until the next ReplayOn on that set).
  const std::vector<Tensor>& ReplayOn(Buffers* buffers,
                                      const std::vector<Tensor>& inputs = {}) const;

  /// Replay on the plan-owned buffer set (created lazily). Convenient and
  /// allocation-free in steady state, but serializes callers: use
  /// NewBuffers()+ReplayOn() for concurrent replay.
  const std::vector<Tensor>& Replay(const std::vector<Tensor>& inputs = {});

  MemoryPlanStats memory_stats() const { return stats_; }
  bool has_host_stages() const { return has_host_stages_; }
  int64_t replay_count() const { return replay_count_; }

  /// SIMD tier active when the plan was captured. Replay CHECKs the current
  /// tier against this stamp: the recorded kernel closures re-resolve the
  /// dispatch table per execution, so a mid-run capability switch would
  /// silently change the numerics of a captured program. Rejected loudly
  /// instead.
  CpuCapability capability() const { return capability_; }

 private:
  friend class PlanBuilder;
  GraphPlan() = default;

  enum class ValueKind { kSlot, kConstant, kInput };
  struct ValueRef {
    ValueKind kind = ValueKind::kSlot;
    int index = 0;
  };
  struct Node {
    ReplayKernel kernel;
    std::vector<ValueRef> ins;
    int out_slot = -1;
    int64_t out_numel = 0;
    bool zero_out = false;
    // Op name active when the node was recorded (string literal from the
    // op's telemetry scope). Names replay spans.
    const char* name = nullptr;
  };
  struct OutputRef {
    ValueRef ref;
    Shape shape;
  };

  const float* Resolve(const ValueRef& ref, const Buffers& b) const;

  std::vector<Node> nodes_;
  std::vector<std::shared_ptr<std::vector<float>>> constants_;
  std::vector<int64_t> slot_sizes_;
  std::vector<Shape> input_shapes_;
  std::vector<OutputRef> outputs_;
  MemoryPlanStats stats_;
  CpuCapability capability_ = CpuCapability::kScalar;
  size_t max_ins_ = 0;  // widest node fan-in; sizes Buffers::scratch_
  bool has_host_stages_ = false;
  int64_t replay_count_ = 0;
  std::unique_ptr<Buffers> own_buffers_;
};

}  // namespace tensor
}  // namespace odnet

#endif  // ODNET_TENSOR_GRAPH_PLAN_H_
