// A scalar UDF for tests, registered for one scope. No device-side UDF
// exists, so a plan that calls one is a plan the device declines: the
// fallback tests use it for that, the UDF suite for the UDF itself.

#pragma once

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "expr/udf.h"

namespace sirius {

/// RAII registration so tests do not leak UDFs into each other.
class ScopedUdf {
 public:
  explicit ScopedUdf(expr::UdfDefinition def) : name_(def.name) {
    SIRIUS_CHECK_OK(expr::UdfRegistry::Global()->Register(std::move(def)));
  }
  ~ScopedUdf() { (void)expr::UdfRegistry::Global()->Unregister(name_); }

  ScopedUdf(const ScopedUdf&) = delete;
  ScopedUdf& operator=(const ScopedUdf&) = delete;

 private:
  std::string name_;
};

/// clamp100(INT64) -> INT64: min(100, v), NULL stays NULL.
inline expr::UdfDefinition ClampUdf() {
  expr::UdfDefinition def;
  def.name = "clamp100";
  def.arity = 1;
  def.return_type = format::Int64();
  def.fn = [](const std::vector<format::Scalar>& args) -> Result<format::Scalar> {
    if (args[0].is_null()) return format::Scalar::Null(format::Int64());
    return format::Scalar::FromInt64(std::min<int64_t>(100, args[0].int_value()));
  };
  return def;
}

}  // namespace sirius
