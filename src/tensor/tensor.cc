#include "src/tensor/tensor.h"

#include <atomic>
#include <unordered_set>

#include "src/tensor/graph_plan.h"

namespace odnet {
namespace tensor {

namespace {

std::atomic<uint64_t> g_next_tensor_id{1};
thread_local bool g_grad_enabled = true;

std::shared_ptr<internal::TensorImpl> NewImpl(
    Shape shape, std::shared_ptr<std::vector<float>> storage) {
  ODNET_CHECK(storage != nullptr);
  ODNET_CHECK_EQ(static_cast<int64_t>(storage->size()), Numel(shape))
      << "data size does not match shape " << ShapeToString(shape);
  auto impl = std::make_shared<internal::TensorImpl>();
  impl->shape = std::move(shape);
  impl->storage = std::move(storage);
  impl->id = g_next_tensor_id.fetch_add(1);
  return impl;
}

std::shared_ptr<internal::TensorImpl> NewImpl(Shape shape,
                                              std::vector<float> data) {
  return NewImpl(std::move(shape),
                 std::make_shared<std::vector<float>>(std::move(data)));
}

}  // namespace

NoGradGuard::NoGradGuard() : previous_(g_grad_enabled) {
  g_grad_enabled = false;
}

NoGradGuard::~NoGradGuard() { g_grad_enabled = previous_; }

bool GradModeEnabled() { return g_grad_enabled; }

Tensor Tensor::Zeros(const Shape& shape, bool requires_grad) {
  return Full(shape, 0.0f, requires_grad);
}

Tensor Tensor::Ones(const Shape& shape, bool requires_grad) {
  return Full(shape, 1.0f, requires_grad);
}

Tensor Tensor::Full(const Shape& shape, float value, bool requires_grad) {
  std::vector<float> data(static_cast<size_t>(Numel(shape)), value);
  Tensor t(NewImpl(shape, std::move(data)));
  t.impl_->requires_grad = requires_grad;
  return t;
}

Tensor Tensor::Scalar(float value, bool requires_grad) {
  return Full({}, value, requires_grad);
}

Tensor Tensor::FromVector(const Shape& shape, std::vector<float> values,
                          bool requires_grad) {
  Tensor t(NewImpl(shape, std::move(values)));
  t.impl_->requires_grad = requires_grad;
  return t;
}

Tensor Tensor::Randn(const Shape& shape, util::Rng* rng, float stddev,
                     bool requires_grad) {
  ODNET_CHECK(rng != nullptr);
  std::vector<float> data(static_cast<size_t>(Numel(shape)));
  for (float& x : data) {
    x = static_cast<float>(rng->Normal(0.0, stddev));
  }
  return FromVector(shape, std::move(data), requires_grad);
}

Tensor Tensor::Uniform(const Shape& shape, util::Rng* rng, float lo, float hi,
                       bool requires_grad) {
  ODNET_CHECK(rng != nullptr);
  std::vector<float> data(static_cast<size_t>(Numel(shape)));
  for (float& x : data) {
    x = static_cast<float>(rng->UniformDouble(lo, hi));
  }
  return FromVector(shape, std::move(data), requires_grad);
}

const Shape& Tensor::shape() const {
  ODNET_CHECK(defined());
  return impl_->shape;
}

int64_t Tensor::dim(int axis) const {
  const Shape& s = shape();
  if (axis < 0) axis += static_cast<int>(s.size());
  ODNET_CHECK_GE(axis, 0);
  ODNET_CHECK_LT(axis, static_cast<int>(s.size()));
  return s[static_cast<size_t>(axis)];
}

const float* Tensor::data() const {
  ODNET_CHECK(defined());
  return impl_->data().data();
}

float* Tensor::mutable_data() {
  ODNET_CHECK(defined());
  ++impl_->version;
  return impl_->data().data();
}

uint64_t Tensor::version() const {
  ODNET_CHECK(defined());
  return impl_->version;
}

const std::vector<float>& Tensor::vec() const {
  ODNET_CHECK(defined());
  return impl_->data();
}

float Tensor::item() const {
  ODNET_CHECK_EQ(numel(), 1) << "item() on non-scalar tensor "
                             << ShapeToString(shape());
  return impl_->data()[0];
}

float Tensor::at(std::initializer_list<int64_t> idx) const {
  const Shape& s = shape();
  ODNET_CHECK_EQ(idx.size(), s.size());
  auto strides = ContiguousStrides(s);
  int64_t offset = 0;
  size_t d = 0;
  for (int64_t i : idx) {
    ODNET_CHECK_GE(i, 0);
    ODNET_CHECK_LT(i, s[d]);
    offset += i * strides[d];
    ++d;
  }
  return impl_->data()[static_cast<size_t>(offset)];
}

bool Tensor::requires_grad() const {
  ODNET_CHECK(defined());
  return impl_->requires_grad;
}

void Tensor::set_requires_grad(bool value) {
  ODNET_CHECK(defined());
  ODNET_CHECK(impl_->parents.empty())
      << "set_requires_grad only valid on leaf tensors";
  impl_->requires_grad = value;
}

const std::vector<float>& Tensor::grad() const {
  ODNET_CHECK(defined());
  impl_->EnsureGrad();
  return impl_->grad;
}

std::vector<float>* Tensor::mutable_grad() {
  ODNET_CHECK(defined());
  impl_->EnsureGrad();
  // The caller may write anywhere; the row list would go stale.
  impl_->MarkGradDense();
  return &impl_->grad;
}

void Tensor::ZeroGrad() {
  ODNET_CHECK(defined());
  internal::TensorImpl* impl = impl_.get();
  if (impl->grad_rows_valid && impl->grad.size() == impl->data().size()) {
    // Row-sparse fast path: only the touched rows can hold nonzeros.
    const int64_t width = impl->shape[1];
    for (int64_t row : impl->grad_rows) {
      float* dst = impl->grad.data() + row * width;
      std::fill(dst, dst + width, 0.0f);
    }
    impl->grad_rows.clear();
    return;
  }
  impl->grad.assign(impl->data().size(), 0.0f);
  impl->ResetGradRows();
}

bool Tensor::grad_rows_valid() const {
  ODNET_CHECK(defined());
  return impl_->grad_rows_valid;
}

const std::vector<int64_t>& Tensor::grad_rows() const {
  ODNET_CHECK(defined());
  return impl_->grad_rows;
}

void Tensor::AliasStorageOf(const Tensor& src) {
  ODNET_CHECK(defined());
  ODNET_CHECK(src.defined());
  ODNET_CHECK(SameShape(shape(), src.shape()))
      << "AliasStorageOf shape mismatch: " << ShapeToString(shape()) << " vs "
      << ShapeToString(src.shape());
  impl_->storage = src.impl_->storage;
  impl_->lease = src.impl_->lease;
  ++impl_->version;
}

Tensor Tensor::Clone() const {
  ODNET_CHECK(defined());
  Tensor t(NewImpl(impl_->shape, impl_->data()));
  t.impl_->requires_grad = impl_->requires_grad;
  return t;
}

Tensor Tensor::Detach() const {
  ODNET_CHECK(defined());
  // Shares the values (as the header promises) without the tape: cheap, and
  // storage is only ever mutated through leaf parameters. The lease travels
  // with the storage: a detached alias of arena-backed data expires with it.
  auto impl = std::make_shared<internal::TensorImpl>();
  impl->shape = impl_->shape;
  impl->storage = impl_->storage;
  impl->lease = impl_->lease;
  impl->id = g_next_tensor_id.fetch_add(1);
  return Tensor(std::move(impl));
}

std::string Tensor::ToString(int64_t max_values) const {
  if (!defined()) return "Tensor(undefined)";
  std::string out = "Tensor" + ShapeToString(impl_->shape) + " [";
  int64_t n = std::min<int64_t>(numel(), max_values);
  for (int64_t i = 0; i < n; ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(impl_->data()[static_cast<size_t>(i)]);
  }
  if (n < numel()) out += ", ...";
  out += "]";
  return out;
}

Tensor Tensor::MakeForOp(Shape shape, std::vector<float> data,
                         std::vector<Tensor> parents,
                         std::function<void(internal::TensorImpl*)> backward) {
  capture::NoteTensorCreated();
  Tensor out(NewImpl(std::move(shape), std::move(data)));
  bool any_grad = false;
  for (const Tensor& p : parents) {
    if (p.defined() && p.requires_grad()) {
      any_grad = true;
      break;
    }
  }
  if (any_grad && GradModeEnabled()) {
    out.impl_->requires_grad = true;
    out.impl_->parents.reserve(parents.size());
    for (const Tensor& p : parents) out.impl_->parents.push_back(p.impl_ptr());
    out.impl_->backward_fn = std::move(backward);
  }
  return out;
}

Tensor Tensor::MakeForOp(Shape shape, OpBuffer buffer,
                         std::vector<Tensor> parents,
                         std::function<void(internal::TensorImpl*)> backward) {
  capture::NoteTensorCreated();
  Tensor out(NewImpl(std::move(shape), std::move(buffer.storage)));
  out.impl_->lease = std::move(buffer.lease);
  bool any_grad = false;
  for (const Tensor& p : parents) {
    if (p.defined() && p.requires_grad()) {
      any_grad = true;
      break;
    }
  }
  if (any_grad && GradModeEnabled()) {
    out.impl_->requires_grad = true;
    out.impl_->parents.reserve(parents.size());
    for (const Tensor& p : parents) out.impl_->parents.push_back(p.impl_ptr());
    out.impl_->backward_fn = std::move(backward);
  }
  return out;
}

Tensor Tensor::WrapStorage(Shape shape,
                           std::shared_ptr<std::vector<float>> storage,
                           std::shared_ptr<ArenaLease> lease) {
  Tensor out(NewImpl(std::move(shape), std::move(storage)));
  out.impl_->lease = std::move(lease);
  return out;
}

Tensor Tensor::MakeViewForOp(
    Shape shape, const Tensor& parent,
    std::function<void(internal::TensorImpl*)> backward) {
  ODNET_CHECK(parent.defined());
  ODNET_CHECK_EQ(Numel(shape), parent.numel())
      << "view shape " << ShapeToString(shape) << " over "
      << ShapeToString(parent.shape());
  capture::NoteTensorCreated();
  Tensor out(NewImpl(std::move(shape), parent.impl_->storage));
  // The view aliases the parent's buffer, so it expires with the parent's
  // arena lease.
  out.impl_->lease = parent.impl_->lease;
  if (parent.requires_grad() && GradModeEnabled()) {
    out.impl_->requires_grad = true;
    out.impl_->parents.push_back(parent.impl_ptr());
    out.impl_->backward_fn = std::move(backward);
  }
  return out;
}

void Tensor::Backward() {
  ODNET_CHECK(defined());
  ODNET_CHECK(impl_->requires_grad)
      << "Backward() on a tensor that does not require grad";
  // Deterministic reverse topological order via iterative DFS.
  std::vector<internal::TensorImpl*> topo;
  std::unordered_set<internal::TensorImpl*> visited;
  std::vector<std::pair<internal::TensorImpl*, size_t>> stack;
  stack.emplace_back(impl_.get(), 0);
  visited.insert(impl_.get());
  while (!stack.empty()) {
    auto& [node, child_idx] = stack.back();
    if (child_idx < node->parents.size()) {
      internal::TensorImpl* parent = node->parents[child_idx].get();
      ++child_idx;
      if (parent->requires_grad && !visited.count(parent)) {
        visited.insert(parent);
        stack.emplace_back(parent, 0);
      }
    } else {
      topo.push_back(node);
      stack.pop_back();
    }
  }

  // Seed: d(out)/d(out) = 1.
  impl_->EnsureGrad();
  impl_->MarkGradDense();
  for (float& g : impl_->grad) g += 1.0f;

  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    internal::TensorImpl* node = *it;
    if (node->backward_fn) {
      for (auto& parent : node->parents) {
        parent->EnsureGrad();
        // The closure may scatter anywhere into this parent's grad; only
        // ops that maintain the touched-row list themselves (see
        // sparse_aware_backward) keep the row metadata alive.
        if (!node->sparse_aware_backward && parent->requires_grad) {
          parent->MarkGradDense();
        }
      }
      node->backward_fn(node);
    }
  }
}

}  // namespace tensor
}  // namespace odnet
