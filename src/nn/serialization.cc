#include "src/nn/serialization.h"

#include <cstdio>
#include <cstring>
#include <limits>
#include <map>

namespace odnet {
namespace nn {

namespace {

constexpr char kMagic[4] = {'O', 'D', 'N', 'T'};
constexpr uint32_t kVersion = 1;

class FileCloser {
 public:
  explicit FileCloser(FILE* file) : file_(file) {}
  ~FileCloser() {
    if (file_ != nullptr) std::fclose(file_);
  }
  FILE* get() const { return file_; }

 private:
  FILE* file_;
};

util::Status WriteBytes(FILE* file, const void* data, size_t size) {
  if (std::fwrite(data, 1, size, file) != size) {
    return util::Status::IoError("short write");
  }
  return util::Status::OK();
}

util::Status ReadBytes(FILE* file, void* data, size_t size) {
  if (std::fread(data, 1, size, file) != size) {
    return util::Status::IoError("short read / truncated checkpoint");
  }
  return util::Status::OK();
}

util::Status WriteU64(FILE* file, uint64_t value) {
  return WriteBytes(file, &value, sizeof(value));
}

util::Result<uint64_t> ReadU64(FILE* file) {
  uint64_t value = 0;
  ODNET_RETURN_NOT_OK(ReadBytes(file, &value, sizeof(value)));
  return value;
}

}  // namespace

util::Status SaveParameters(const Module& module, const std::string& path) {
  FILE* raw = std::fopen(path.c_str(), "wb");
  if (raw == nullptr) {
    return util::Status::IoError("cannot open for writing: " + path);
  }
  FileCloser file(raw);

  ODNET_RETURN_NOT_OK(WriteBytes(file.get(), kMagic, sizeof(kMagic)));
  ODNET_RETURN_NOT_OK(WriteBytes(file.get(), &kVersion, sizeof(kVersion)));

  auto named = module.NamedParameters();
  ODNET_RETURN_NOT_OK(WriteU64(file.get(), named.size()));
  for (const auto& [name, tensor] : named) {
    ODNET_RETURN_NOT_OK(WriteU64(file.get(), name.size()));
    ODNET_RETURN_NOT_OK(WriteBytes(file.get(), name.data(), name.size()));
    const tensor::Shape& shape = tensor.shape();
    ODNET_RETURN_NOT_OK(WriteU64(file.get(), shape.size()));
    for (int64_t dim : shape) {
      ODNET_RETURN_NOT_OK(
          WriteU64(file.get(), static_cast<uint64_t>(dim)));
    }
    ODNET_RETURN_NOT_OK(WriteBytes(
        file.get(), tensor.data(),
        static_cast<size_t>(tensor.numel()) * sizeof(float)));
  }
  if (std::fflush(file.get()) != 0) {
    return util::Status::IoError("flush failed: " + path);
  }
  return util::Status::OK();
}

util::Status LoadParameters(Module* module, const std::string& path) {
  ODNET_CHECK(module != nullptr);
  FILE* raw = std::fopen(path.c_str(), "rb");
  if (raw == nullptr) {
    return util::Status::IoError("cannot open: " + path);
  }
  FileCloser file(raw);
  if (std::fseek(file.get(), 0, SEEK_END) != 0) {
    return util::Status::IoError("cannot seek: " + path);
  }
  const long file_size = std::ftell(file.get());
  if (file_size < 0 || std::fseek(file.get(), 0, SEEK_SET) != 0) {
    return util::Status::IoError("cannot seek: " + path);
  }

  char magic[4];
  ODNET_RETURN_NOT_OK(ReadBytes(file.get(), magic, sizeof(magic)));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return util::Status::InvalidArgument("not an ODNET checkpoint: " + path);
  }
  uint32_t version = 0;
  ODNET_RETURN_NOT_OK(ReadBytes(file.get(), &version, sizeof(version)));
  if (version != kVersion) {
    return util::Status::InvalidArgument(
        "unsupported checkpoint version " + std::to_string(version));
  }

  // Read everything first so a malformed file cannot partially apply.
  ODNET_ASSIGN_OR_RETURN(uint64_t count, ReadU64(file.get()));
  std::map<std::string, std::pair<tensor::Shape, std::vector<float>>> stored;
  for (uint64_t i = 0; i < count; ++i) {
    ODNET_ASSIGN_OR_RETURN(uint64_t name_size, ReadU64(file.get()));
    if (name_size > 4096) {
      return util::Status::InvalidArgument("implausible parameter name size");
    }
    std::string name(name_size, '\0');
    ODNET_RETURN_NOT_OK(ReadBytes(file.get(), name.data(), name_size));
    ODNET_ASSIGN_OR_RETURN(uint64_t rank, ReadU64(file.get()));
    if (rank > 8) {
      return util::Status::InvalidArgument("implausible tensor rank");
    }
    tensor::Shape shape(rank);
    int64_t numel = 1;
    for (uint64_t d = 0; d < rank; ++d) {
      ODNET_ASSIGN_OR_RETURN(uint64_t dim, ReadU64(file.get()));
      if (dim > static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
        return util::Status::InvalidArgument("negative dimension for " + name);
      }
      shape[d] = static_cast<int64_t>(dim);
      if (shape[d] != 0 &&
          numel > std::numeric_limits<int64_t>::max() / shape[d]) {
        return util::Status::InvalidArgument("element count overflows for " +
                                             name);
      }
      numel *= shape[d];
    }
    // Validate against the bytes actually present before allocating, so a
    // corrupt header fails with a Status instead of a huge allocation.
    const int64_t bytes_left = file_size - std::ftell(file.get());
    if (numel > bytes_left / static_cast<int64_t>(sizeof(float))) {
      return util::Status::InvalidArgument(
          "tensor " + name + " needs " + std::to_string(numel) +
          " floats but only " + std::to_string(bytes_left) +
          " bytes remain");
    }
    std::vector<float> values(static_cast<size_t>(numel));
    ODNET_RETURN_NOT_OK(ReadBytes(file.get(), values.data(),
                                  values.size() * sizeof(float)));
    stored[name] = {std::move(shape), std::move(values)};
  }

  auto named = module->NamedParameters();
  if (named.size() != stored.size()) {
    return util::Status::InvalidArgument(
        "checkpoint has " + std::to_string(stored.size()) +
        " parameters, module has " + std::to_string(named.size()));
  }
  for (auto& [name, tensor] : named) {
    auto it = stored.find(name);
    if (it == stored.end()) {
      return util::Status::NotFound("parameter missing in checkpoint: " +
                                    name);
    }
    if (!tensor::SameShape(it->second.first, tensor.shape())) {
      return util::Status::InvalidArgument(
          "shape mismatch for " + name + ": checkpoint " +
          tensor::ShapeToString(it->second.first) + " vs module " +
          tensor::ShapeToString(tensor.shape()));
    }
  }
  // All validated: apply.
  for (auto& [name, tensor] : named) {
    const std::vector<float>& values = stored[name].second;
    std::memcpy(tensor.mutable_data(), values.data(),
                values.size() * sizeof(float));
  }
  return util::Status::OK();
}

}  // namespace nn
}  // namespace odnet
