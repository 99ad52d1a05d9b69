// Capability gating for graceful CPU fallback (paper §3.2.2): Sirius checks
// a plan against the GPU engine's supported feature set before executing;
// anything unsupported routes the whole query back to the host database.

#pragma once

#include "common/status.h"
#include "plan/plan.h"

namespace sirius::engine {

/// \brief Feature switches of the GPU engine.
///
/// Everything defaults to supported; tests and the distributed mode (which
/// has narrower SQL coverage, §3.4) turn individual features off.
struct Capabilities {
  bool strings = true;
  bool like = true;
  /// avg is unsupported in distributed Sirius (§3.4 "it does not support
  /// functions such as avg").
  bool avg = true;
  /// Scalar UDFs run on the host CPU only until device-side UDFs land
  /// (§3.4), so plans containing them fall back by default.
  bool udf = false;

  /// OK when every operator/expression in the plan is supported; otherwise
  /// UnsupportedOnDevice with the offending feature named.
  Status Check(const plan::PlanNode& plan) const;
};

}  // namespace sirius::engine
