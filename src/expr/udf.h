// Scalar user-defined functions (paper §3.4 lists UDFs as planned Sirius
// coverage). No device-side UDF exists: engine::CheckDeviceSupport declines
// every plan that calls one, and the host runs it on its CPU engine.

#pragma once

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "format/scalar.h"

namespace sirius::expr {

/// \brief A registered scalar UDF: a row-wise function over Scalars.
struct UdfDefinition {
  std::string name;
  /// Declared argument count (-1 = variadic).
  int arity = -1;
  format::DataType return_type;
  /// Row function. Receives one Scalar per argument (may be NULL); returns
  /// the result Scalar. NULL inputs are passed through to the function so
  /// UDFs can define their own NULL behaviour.
  std::function<Result<format::Scalar>(const std::vector<format::Scalar>&)> fn;
};

/// \brief Process-wide UDF registry (thread-safe).
class UdfRegistry {
 public:
  static UdfRegistry* Global();

  /// Registers (or replaces) a UDF under `def.name` (lower-case).
  Status Register(UdfDefinition def);
  /// Removes a UDF; KeyError when absent.
  Status Unregister(const std::string& name);
  /// Looks up a UDF; KeyError when absent.
  Result<UdfDefinition> Lookup(const std::string& name) const;
  bool Contains(const std::string& name) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, UdfDefinition> udfs_;
};

}  // namespace sirius::expr
