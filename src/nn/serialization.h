#ifndef ODNET_NN_SERIALIZATION_H_
#define ODNET_NN_SERIALIZATION_H_

#include <string>

#include "src/nn/module.h"
#include "src/util/status.h"

namespace odnet {
namespace nn {

/// \brief Binary checkpointing of a Module's named parameters.
///
/// Format: magic "ODNT" + version, parameter count, then per parameter the
/// name, shape, and raw float32 data (little-endian, host order). Loading
/// matches parameters by name and requires identical shapes, so a
/// checkpoint restores exactly the architecture that wrote it.
util::Status SaveParameters(const Module& module, const std::string& path);

/// Restores parameter values in place. Fails without partial writes when
/// the file is malformed, a parameter is missing, or a shape differs.
util::Status LoadParameters(Module* module, const std::string& path);

}  // namespace nn
}  // namespace odnet

#endif  // ODNET_NN_SERIALIZATION_H_
