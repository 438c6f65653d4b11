#ifndef ODNET_TENSOR_TENSOR_H_
#define ODNET_TENSOR_TENSOR_H_

#include <algorithm>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "src/tensor/buffer_arena.h"
#include "src/tensor/shape.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace odnet {
namespace tensor {

class Tensor;

namespace internal {

/// Reference-counted tensor storage plus the autograd tape hooks.
///
/// A TensorImpl created by a differentiable op records its parents and a
/// backward closure; Tensor::Backward() walks the resulting DAG in reverse
/// topological order. Leaf tensors (parameters) have no parents.
///
/// Values live in a shared_ptr'd buffer so zero-copy views (Reshape,
/// inference-mode Dropout) can alias a parent's storage; gradients are
/// always per-node (views accumulate into their parent through the tape).
struct TensorImpl {
  Shape shape;
  std::shared_ptr<std::vector<float>> storage;  // never null once constructed
  // Null for owned storage; set when `storage` is leased from a BufferArena.
  // Every data() access CHECKs the lease, so a tensor (or zero-copy view)
  // outliving its arena's Reset() fails loudly instead of reading recycled
  // memory. Views and Detach() copies carry their parent's lease.
  std::shared_ptr<ArenaLease> lease;
  std::vector<float> grad;  // same size as data once touched by backward
  bool requires_grad = false;
  uint64_t id = 0;  // creation order; used for deterministic topo sort
  // Bumped by Tensor::mutable_data() and Tensor::AliasStorageOf(): a cache
  // derived from the values (the HSGC inference tables) is stale once it
  // moves.
  uint64_t version = 0;

  // Autograd tape. `backward_fn` distributes `grad` into parents' grads.
  std::vector<std::shared_ptr<TensorImpl>> parents;
  std::function<void(TensorImpl*)> backward_fn;

  // Row-sparsity metadata over `grad`, valid only for rank-2 tensors (the
  // embedding tables). When `grad_rows_valid` is true, every nonzero of
  // `grad` lives in a row listed in `grad_rows` (sorted ascending, deduped);
  // rows outside the list are exactly +0.0f everywhere. Backward marks a
  // parent dense before running a node's closure unless the node opted in
  // via `sparse_aware_backward` (EmbeddingLookup, which calls MarkGradRows
  // itself), so any op that scatters into a table keeps the invariant
  // conservatively correct. Consumers (optimizer, ClipGradNorm) use the
  // list to skip untouched rows.
  bool grad_rows_valid = false;
  std::vector<int64_t> grad_rows;
  bool sparse_aware_backward = false;

  std::vector<float>& data() {
    CheckLease();
    return *storage;
  }
  const std::vector<float>& data() const {
    CheckLease();
    return *storage;
  }

  void CheckLease() const {
    if (lease != nullptr) {
      ODNET_CHECK(lease->valid())
          << "tensor storage outlived its arena generation (it escaped an "
             "ArenaScope; Clone() inside the scope to keep a tensor)";
    }
  }

  void EnsureGrad() {
    if (grad.size() != data().size()) {
      grad.assign(data().size(), 0.0f);
      ResetGradRows();
    }
  }

  /// Grad is all zeros: the touched-row set becomes valid and empty (rank-2
  /// only; other ranks never carry row metadata).
  void ResetGradRows() {
    grad_rows.clear();
    grad_rows_valid = shape.size() == 2;
  }

  /// Grad may have nonzeros anywhere; drop the row list.
  void MarkGradDense() {
    grad_rows_valid = false;
    grad_rows.clear();
  }

  /// Merges `rows` (sorted ascending, deduped) into the touched-row set.
  /// No-op when the grad is already marked dense.
  void MarkGradRows(const std::vector<int64_t>& rows) {
    if (!grad_rows_valid) return;
    if (grad_rows.empty()) {
      grad_rows = rows;
      return;
    }
    if (rows.empty()) return;
    std::vector<int64_t> merged;
    merged.reserve(grad_rows.size() + rows.size());
    std::set_union(grad_rows.begin(), grad_rows.end(), rows.begin(),
                   rows.end(), std::back_inserter(merged));
    grad_rows = std::move(merged);
  }
};

}  // namespace internal

/// \brief Scoped guard disabling tape construction (inference mode).
///
/// Inside the guard, ops do not record parents or backward closures, so
/// forward passes are cheaper and produce detached tensors.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

/// Returns true when ops should build the autograd tape.
bool GradModeEnabled();

/// \brief Value-semantic handle to a float32, contiguous, row-major
/// n-dimensional array with reverse-mode autodiff.
///
/// Copying a Tensor aliases the underlying storage (shared_ptr semantics);
/// use Clone() for a deep copy. All shapes are fixed at construction.
class Tensor {
 public:
  /// Null tensor; most operations on it CHECK-fail. Use factories below.
  Tensor() = default;

  // -- Factories -------------------------------------------------------

  /// Zero-filled tensor of the given shape.
  static Tensor Zeros(const Shape& shape, bool requires_grad = false);

  /// One-filled tensor.
  static Tensor Ones(const Shape& shape, bool requires_grad = false);

  /// Constant-filled tensor.
  static Tensor Full(const Shape& shape, float value,
                     bool requires_grad = false);

  /// Rank-0 scalar.
  static Tensor Scalar(float value, bool requires_grad = false);

  /// Takes ownership of `values` (size must equal Numel(shape)).
  static Tensor FromVector(const Shape& shape, std::vector<float> values,
                           bool requires_grad = false);

  /// Gaussian init (mean 0, given stddev) from a deterministic Rng.
  static Tensor Randn(const Shape& shape, util::Rng* rng, float stddev = 1.0f,
                      bool requires_grad = false);

  /// Uniform init on [lo, hi).
  static Tensor Uniform(const Shape& shape, util::Rng* rng, float lo, float hi,
                        bool requires_grad = false);

  // -- Introspection ---------------------------------------------------

  bool defined() const { return impl_ != nullptr; }
  const Shape& shape() const;
  int64_t dim(int axis) const;
  int rank() const { return static_cast<int>(shape().size()); }
  int64_t numel() const { return Numel(shape()); }

  const float* data() const;
  /// Writable values; counts as a write (bumps version()).
  float* mutable_data();
  const std::vector<float>& vec() const;

  /// Writes through this handle so far: mutable_data() and
  /// AliasStorageOf() calls. Equal versions mean unchanged values, unless
  /// the storage was written through another handle.
  uint64_t version() const;

  /// Value of a rank-0 or single-element tensor.
  float item() const;

  /// Element access by multi-index (rank must match index arity).
  float at(std::initializer_list<int64_t> idx) const;

  bool requires_grad() const;
  /// Marks this tensor as a leaf requiring gradient accumulation.
  void set_requires_grad(bool value);

  /// Gradient buffer (zeros until Backward touches it).
  const std::vector<float>& grad() const;
  /// Mutable grad access drops any row-sparsity metadata (the caller may
  /// write anywhere); sparse-aware consumers use impl() directly.
  std::vector<float>* mutable_grad();
  void ZeroGrad();

  /// True when every nonzero of grad lives in a row listed by grad_rows()
  /// (rank-2 leaves written only by EmbeddingLookup backward). See
  /// internal::TensorImpl::grad_rows.
  bool grad_rows_valid() const;
  /// Touched rows, sorted ascending and deduped. Only meaningful when
  /// grad_rows_valid().
  const std::vector<int64_t>& grad_rows() const;

  /// Re-points this tensor's storage at `src`'s buffer (shapes must match).
  /// Reads and writes through either tensor then see the same values, while
  /// grad buffers, row metadata, and tape stay per-tensor — the mechanism
  /// behind data-parallel model replicas (nn::Module::AliasParametersTo).
  /// Only meaningful on leaf tensors; the previous storage is released.
  void AliasStorageOf(const Tensor& src);

  /// Deep copy with no autograd history.
  Tensor Clone() const;

  /// Same storage, detached from the tape (no parents, no grad flow).
  Tensor Detach() const;

  /// Debug rendering: shape plus (truncated) values.
  std::string ToString(int64_t max_values = 16) const;

  // -- Autograd --------------------------------------------------------

  /// Runs reverse-mode autodiff from this tensor. If it is not a scalar,
  /// the seed gradient is all-ones. Gradients accumulate into leaves'
  /// grad buffers (call ZeroGrad between steps).
  void Backward();

  /// Identity comparison (same storage).
  bool IsSameAs(const Tensor& other) const { return impl_ == other.impl_; }

  // Internal: used by ops to construct results with tape entries.
  static Tensor MakeForOp(Shape shape, std::vector<float> data,
                          std::vector<Tensor> parents,
                          std::function<void(internal::TensorImpl*)> backward);

  /// Internal: like MakeForOp but over an AllocOpResult buffer, which may be
  /// arena-leased (the lease is stamped onto the impl so escaping tensors
  /// CHECK on access after the arena resets).
  static Tensor MakeForOp(Shape shape, OpBuffer buffer,
                          std::vector<Tensor> parents,
                          std::function<void(internal::TensorImpl*)> backward);

  /// Internal: wraps existing storage (no copy, no tape) under `shape`.
  /// Used by plan replay to expose planned buffers as output tensors.
  static Tensor WrapStorage(Shape shape,
                            std::shared_ptr<std::vector<float>> storage,
                            std::shared_ptr<ArenaLease> lease);

  /// Internal: zero-copy view node sharing `parent`'s storage under a new
  /// shape (numel must match). The view has its own grad buffer; `backward`
  /// routes it into the parent. Mutating the view's data mutates the parent.
  static Tensor MakeViewForOp(
      Shape shape, const Tensor& parent,
      std::function<void(internal::TensorImpl*)> backward);
  internal::TensorImpl* impl() const { return impl_.get(); }
  std::shared_ptr<internal::TensorImpl> impl_ptr() const { return impl_; }

 private:
  explicit Tensor(std::shared_ptr<internal::TensorImpl> impl)
      : impl_(std::move(impl)) {}

  std::shared_ptr<internal::TensorImpl> impl_;
};

}  // namespace tensor
}  // namespace odnet

#endif  // ODNET_TENSOR_TENSOR_H_
