#include "src/tensor/shape.h"

#include <algorithm>

namespace odnet {
namespace tensor {

int64_t Numel(const Shape& shape) {
  int64_t n = 1;
  for (int64_t dim : shape) n *= dim;
  return n;
}

std::vector<int64_t> ContiguousStrides(const Shape& shape) {
  std::vector<int64_t> strides(shape.size());
  int64_t stride = 1;
  for (int64_t i = static_cast<int64_t>(shape.size()) - 1; i >= 0; --i) {
    strides[static_cast<size_t>(i)] = stride;
    stride *= shape[static_cast<size_t>(i)];
  }
  return strides;
}

std::string ShapeToString(const Shape& shape) {
  std::string out = "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(shape[i]);
  }
  out += "]";
  return out;
}

bool SameShape(const Shape& a, const Shape& b) { return a == b; }

util::Result<Shape> BroadcastShapes(const Shape& a, const Shape& b) {
  size_t rank = std::max(a.size(), b.size());
  Shape out(rank);
  for (size_t i = 0; i < rank; ++i) {
    int64_t da = i < a.size() ? a[a.size() - 1 - i] : 1;
    int64_t db = i < b.size() ? b[b.size() - 1 - i] : 1;
    if (da != db && da != 1 && db != 1) {
      return util::Status::InvalidArgument(
          "shapes not broadcastable: " + ShapeToString(a) + " vs " +
          ShapeToString(b));
    }
    // A size-1 dim takes the other side's size, 0 included: [0, 16] with
    // [16] is [0, 16], not [1, 16].
    out[rank - 1 - i] = da == 1 ? db : da;
  }
  return out;
}

bool IsBroadcastableTo(const Shape& from, const Shape& to) {
  if (from.size() > to.size()) return false;
  for (size_t i = 0; i < from.size(); ++i) {
    int64_t df = from[from.size() - 1 - i];
    int64_t dt = to[to.size() - 1 - i];
    if (df != dt && df != 1) return false;
  }
  return true;
}

}  // namespace tensor
}  // namespace odnet
