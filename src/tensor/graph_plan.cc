#include "src/tensor/graph_plan.h"

#include <algorithm>
#include <limits>
#include <map>
#include <unordered_map>
#include <utility>

#include "src/telemetry/telemetry.h"

namespace odnet {
namespace tensor {

namespace {

// ---------------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------------

struct RecNode {
  ReplayKernel kernel;           // op node
  std::vector<int> ins;
  int out = -1;
  bool zero_out = false;
  int alias_of = -1;             // >= 0: `out` aliases this value's buffer
  const char* name = nullptr;    // telemetry::CurrentOpName() at record time
};

struct RecValue {
  std::shared_ptr<internal::TensorImpl> impl;
  int producer = -1;     // producing node; -1 = external (constant/input)
  int input_index = -1;  // >= 0 when pre-registered as a rebindable input
  int64_t numel = 0;
};

// One in-flight capture. Installed thread-locally while the program runs;
// ops funnel through capture::RecordOp / RecordAlias.
struct Recorder {
  std::vector<RecValue> values;
  std::vector<RecNode> nodes;
  std::unordered_map<const internal::TensorImpl*, int> ids;
  int64_t tensors_created = 0;  // MakeForOp/MakeViewForOp calls
  int64_t ops_recorded = 0;     // RecordOp/RecordAlias calls
  bool host_data = false;       // some kernel closes over host state

  // Value id of `t`, registering it as an external (constant) on first
  // sight. Externals must be owned: an arena-leased constant would dangle
  // after the arena resets while the plan still references its buffer.
  int IdFor(const Tensor& t) {
    ODNET_CHECK(t.defined());
    auto it = ids.find(t.impl());
    if (it != ids.end()) return it->second;
    ODNET_CHECK(t.impl()->lease == nullptr)
        << "captured constant is arena-leased; plans may only retain owned "
           "storage (Clone() it before capture)";
    const int id = static_cast<int>(values.size());
    RecValue v;
    v.impl = t.impl_ptr();
    v.numel = t.numel();
    values.push_back(std::move(v));
    ids.emplace(t.impl(), id);
    return id;
  }

  int RegisterOut(const Tensor& t, int producer) {
    ODNET_CHECK(t.defined());
    ODNET_CHECK(ids.find(t.impl()) == ids.end())
        << "op output recorded twice";
    const int id = static_cast<int>(values.size());
    RecValue v;
    v.impl = t.impl_ptr();
    v.producer = producer;
    v.numel = t.numel();
    values.push_back(std::move(v));
    ids.emplace(t.impl(), id);
    return id;
  }
};

thread_local Recorder* g_recorder = nullptr;

class ScopedRecorder {
 public:
  explicit ScopedRecorder(Recorder* rec) {
    ODNET_CHECK(g_recorder == nullptr) << "nested plan capture";
    g_recorder = rec;
  }
  ~ScopedRecorder() { g_recorder = nullptr; }
  ScopedRecorder(const ScopedRecorder&) = delete;
  ScopedRecorder& operator=(const ScopedRecorder&) = delete;
};

void CheckCaptureIntegrity(const Recorder& rec) {
  ODNET_CHECK_EQ(rec.tensors_created, rec.ops_recorded)
      << "capture integrity: an op created a tensor without recording a "
         "plan node (op not capture-aware)";
}

}  // namespace

namespace capture {

bool Active() { return g_recorder != nullptr; }

void RecordOp(const Tensor& out, const std::vector<Tensor>& ins,
              ReplayKernel kernel, bool zero_init_output) {
  Recorder* rec = g_recorder;
  if (rec == nullptr) return;
  ++rec->ops_recorded;
  RecNode node;
  node.kernel = std::move(kernel);
  node.zero_out = zero_init_output;
  node.name = telemetry::CurrentOpName();
  node.ins.reserve(ins.size());
  for (const Tensor& t : ins) node.ins.push_back(rec->IdFor(t));
  const int idx = static_cast<int>(rec->nodes.size());
  node.out = rec->RegisterOut(out, idx);
  rec->nodes.push_back(std::move(node));
}

void RecordAlias(const Tensor& out, const Tensor& src) {
  Recorder* rec = g_recorder;
  if (rec == nullptr) return;
  ++rec->ops_recorded;
  RecNode node;
  node.alias_of = rec->IdFor(src);
  const int idx = static_cast<int>(rec->nodes.size());
  node.out = rec->RegisterOut(out, idx);
  rec->nodes.push_back(std::move(node));
}

void NoteTensorCreated() {
  Recorder* rec = g_recorder;
  if (rec != nullptr) ++rec->tensors_created;
}

void NoteHostData() {
  Recorder* rec = g_recorder;
  if (rec != nullptr) rec->host_data = true;
}

}  // namespace capture

// ---------------------------------------------------------------------------
// Inference-plan construction (liveness-based memory plan)
// ---------------------------------------------------------------------------

class PlanBuilder {
 public:
  static std::shared_ptr<GraphPlan> Build(Recorder* rec,
                                          const std::vector<Tensor>& outs,
                                          const std::vector<Tensor>& inputs) {
    std::shared_ptr<GraphPlan> plan(new GraphPlan());
    // Kernels that close over host state (HostTensor fills, Dropout mask
    // redraws) make the plan serial.
    plan->has_host_stages_ = rec->host_data;
    const int nv = static_cast<int>(rec->values.size());
    const int nn = static_cast<int>(rec->nodes.size());

    // Alias chains collapse onto the producing buffer.
    std::vector<int> canon(static_cast<size_t>(nv));
    for (int v = 0; v < nv; ++v) canon[static_cast<size_t>(v)] = v;
    for (const RecNode& node : rec->nodes) {
      if (node.alias_of >= 0) {
        canon[static_cast<size_t>(node.out)] =
            canon[static_cast<size_t>(node.alias_of)];
      }
    }

    // Last consumer per canonical value; program outputs are pinned live.
    constexpr int kLive = std::numeric_limits<int>::max();
    std::vector<int> last(static_cast<size_t>(nv), -1);
    for (int i = 0; i < nn; ++i) {
      for (int in : rec->nodes[static_cast<size_t>(i)].ins) {
        last[static_cast<size_t>(canon[static_cast<size_t>(in)])] = i;
      }
    }
    for (const Tensor& out : outs) {
      const int ov = canon[static_cast<size_t>(rec->IdFor(out))];
      last[static_cast<size_t>(ov)] = kLive;
    }

    // Externals: rebindable inputs vs retained constants.
    std::vector<GraphPlan::ValueRef> refs(static_cast<size_t>(nv));
    std::vector<bool> resolved(static_cast<size_t>(nv), false);
    for (int v = 0; v < nv; ++v) {
      const RecValue& val = rec->values[static_cast<size_t>(v)];
      if (val.producer >= 0) continue;
      GraphPlan::ValueRef ref;
      if (val.input_index >= 0) {
        ref.kind = GraphPlan::ValueKind::kInput;
        ref.index = val.input_index;
      } else {
        ref.kind = GraphPlan::ValueKind::kConstant;
        ref.index = static_cast<int>(plan->constants_.size());
        plan->constants_.push_back(val.impl->storage);
      }
      refs[static_cast<size_t>(v)] = ref;
      resolved[static_cast<size_t>(v)] = true;
    }

    // Forward walk: greedy slot reuse keyed by element count. A node's
    // output slot is acquired before its inputs are released, so a kernel
    // never reads and writes the same physical buffer.
    std::multimap<int64_t, int> free_slots;
    size_t max_ins = 0;
    for (int i = 0; i < nn; ++i) {
      const RecNode& rnode = rec->nodes[static_cast<size_t>(i)];
      if (rnode.alias_of >= 0) continue;  // no execution, no buffer

      const int ov = canon[static_cast<size_t>(rnode.out)];
      const int64_t numel = rec->values[static_cast<size_t>(ov)].numel;
      int slot;
      auto it = free_slots.find(numel);
      if (it != free_slots.end()) {
        slot = it->second;
        free_slots.erase(it);
      } else {
        slot = static_cast<int>(plan->slot_sizes_.size());
        plan->slot_sizes_.push_back(numel);
      }
      refs[static_cast<size_t>(ov)] =
          GraphPlan::ValueRef{GraphPlan::ValueKind::kSlot, slot};
      resolved[static_cast<size_t>(ov)] = true;
      plan->stats_.num_values += 1;
      plan->stats_.requested_bytes +=
          numel * static_cast<int64_t>(sizeof(float));

      GraphPlan::Node pnode;
      pnode.kernel = rnode.kernel;
      pnode.name = rnode.name;
      pnode.out_slot = slot;
      pnode.out_numel = numel;
      pnode.zero_out = rnode.zero_out;
      pnode.ins.reserve(rnode.ins.size());
      for (int in : rnode.ins) {
        const int cv = canon[static_cast<size_t>(in)];
        ODNET_CHECK(resolved[static_cast<size_t>(cv)])
            << "plan value consumed before production";
        pnode.ins.push_back(refs[static_cast<size_t>(cv)]);
      }
      max_ins = std::max(max_ins, pnode.ins.size());
      plan->nodes_.push_back(std::move(pnode));

      // Retire buffers whose last consumer just ran (and dead outputs).
      std::vector<int> touched = rnode.ins;
      touched.push_back(rnode.out);
      for (int t : touched) {
        const int cv = canon[static_cast<size_t>(t)];
        const GraphPlan::ValueRef& ref = refs[static_cast<size_t>(cv)];
        if (ref.kind != GraphPlan::ValueKind::kSlot) continue;
        if (last[static_cast<size_t>(cv)] > i) continue;
        // Guard against double-release (duplicate operands, repeat visits).
        bool already_free = false;
        auto range = free_slots.equal_range(
            rec->values[static_cast<size_t>(cv)].numel);
        for (auto fit = range.first; fit != range.second; ++fit) {
          if (fit->second == ref.index) {
            already_free = true;
            break;
          }
        }
        if (!already_free) {
          free_slots.emplace(rec->values[static_cast<size_t>(cv)].numel,
                             ref.index);
        }
      }
    }

    plan->stats_.num_nodes = static_cast<int64_t>(plan->nodes_.size());
    plan->stats_.num_buffers = static_cast<int64_t>(plan->slot_sizes_.size());
    for (int64_t sz : plan->slot_sizes_) {
      plan->stats_.peak_bytes += sz * static_cast<int64_t>(sizeof(float));
    }
    if (plan->stats_.requested_bytes > 0) {
      plan->stats_.reuse_ratio =
          1.0 - static_cast<double>(plan->stats_.peak_bytes) /
                    static_cast<double>(plan->stats_.requested_bytes);
    }

    for (const Tensor& t : inputs) plan->input_shapes_.push_back(t.shape());
    for (const Tensor& out : outs) {
      const int ov = canon[static_cast<size_t>(rec->IdFor(out))];
      ODNET_CHECK(resolved[static_cast<size_t>(ov)]);
      const GraphPlan::ValueRef& ref = refs[static_cast<size_t>(ov)];
      ODNET_CHECK(ref.kind != GraphPlan::ValueKind::kInput)
          << "plan output aliases a rebindable input";
      plan->outputs_.push_back(GraphPlan::OutputRef{ref, out.shape()});
    }
    plan->max_ins_ = max_ins;
    return plan;
  }
};

// ---------------------------------------------------------------------------
// GraphPlan replay
// ---------------------------------------------------------------------------

std::shared_ptr<GraphPlan> GraphPlan::CaptureInference(
    const std::function<std::vector<Tensor>()>& program,
    std::vector<Tensor>* capture_results, const std::vector<Tensor>& inputs) {
  Recorder rec;
  for (size_t i = 0; i < inputs.size(); ++i) {
    const int id = rec.IdFor(inputs[i]);
    rec.values[static_cast<size_t>(id)].input_index = static_cast<int>(i);
  }
  std::vector<Tensor> outs;
  {
    ScopedRecorder guard(&rec);
    NoGradGuard no_grad;
    outs = program();
  }
  CheckCaptureIntegrity(rec);
  ODNET_CHECK(!outs.empty()) << "captured program returned no outputs";
  std::shared_ptr<GraphPlan> plan = PlanBuilder::Build(&rec, outs, inputs);
  plan->capability_ = ActiveCpuCapability();
  telemetry::TelemetryRegistry::Get().GetCounter("plan.captures")->Add(1);
  if (capture_results != nullptr) *capture_results = std::move(outs);
  return plan;
}

std::unique_ptr<GraphPlan::Buffers> GraphPlan::NewBuffers() const {
  std::unique_ptr<Buffers> b(new Buffers());
  b->slots_.reserve(slot_sizes_.size());
  for (int64_t numel : slot_sizes_) {
    b->slots_.push_back(b->arena_.Acquire(numel).storage);
  }
  b->input_ptrs_.resize(input_shapes_.size(), nullptr);
  b->scratch_.resize(max_ins_, nullptr);
  b->outputs_.reserve(outputs_.size());
  for (const OutputRef& out : outputs_) {
    std::shared_ptr<std::vector<float>> storage =
        out.ref.kind == ValueKind::kSlot
            ? b->slots_[static_cast<size_t>(out.ref.index)]
            : constants_[static_cast<size_t>(out.ref.index)];
    b->outputs_.push_back(
        Tensor::WrapStorage(out.shape, std::move(storage), nullptr));
  }
  return b;
}

const float* GraphPlan::Resolve(const ValueRef& ref, const Buffers& b) const {
  switch (ref.kind) {
    case ValueKind::kSlot:
      return b.slots_[static_cast<size_t>(ref.index)]->data();
    case ValueKind::kConstant:
      return constants_[static_cast<size_t>(ref.index)]->data();
    case ValueKind::kInput:
      return b.input_ptrs_[static_cast<size_t>(ref.index)];
  }
  ODNET_CHECK(false) << "unreachable";
  return nullptr;
}

const std::vector<Tensor>& GraphPlan::ReplayOn(
    Buffers* buffers, const std::vector<Tensor>& inputs) const {
  ODNET_CHECK(buffers != nullptr);
  ODNET_CHECK(ActiveCpuCapability() == capability_)
      << "GraphPlan captured under CPU capability '"
      << CpuCapabilityName(capability_) << "' replayed under '"
      << CpuCapabilityName(ActiveCpuCapability())
      << "': switching the SIMD tier mid-run would change the numerics of a "
         "captured program; re-capture the plan under the new tier";
  ODNET_CHECK_EQ(inputs.size(), input_shapes_.size())
      << "replay input count differs from capture";
  for (size_t i = 0; i < inputs.size(); ++i) {
    ODNET_CHECK(SameShape(inputs[i].shape(), input_shapes_[i]))
        << "replay input shape " << ShapeToString(inputs[i].shape())
        << " differs from captured " << ShapeToString(input_shapes_[i])
        << " (invalidate the plan and re-capture)";
    buffers->input_ptrs_[i] = inputs[i].data();
  }
  {
    static telemetry::Counter* replays =
        telemetry::TelemetryRegistry::Get().GetCounter("plan.replays");
    replays->Add(1);
  }
  telemetry::SpanScope replay_span("GraphPlan.Replay", "plan");
  for (const Node& node : nodes_) {
    telemetry::SpanScope node_span(node.name != nullptr ? node.name : "Node",
                                   "plan.node");
    for (size_t j = 0; j < node.ins.size(); ++j) {
      buffers->scratch_[j] = Resolve(node.ins[j], *buffers);
    }
    float* out = buffers->slots_[static_cast<size_t>(node.out_slot)]->data();
    if (node.zero_out) std::fill(out, out + node.out_numel, 0.0f);
    ReplayPtrs ptrs{buffers->scratch_.data(), out};
    node.kernel(ptrs);
  }
  return buffers->outputs_;
}

const std::vector<Tensor>& GraphPlan::Replay(const std::vector<Tensor>& inputs) {
  if (own_buffers_ == nullptr) own_buffers_ = NewBuffers();
  ++replay_count_;
  return ReplayOn(own_buffers_.get(), inputs);
}

}  // namespace tensor
}  // namespace odnet
