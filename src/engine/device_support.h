// The device-support rule behind graceful CPU fallback (paper §3.2.2): Sirius
// checks a plan before executing it, and a plan the device cannot run goes
// back to the host database whole.

#pragma once

#include "common/status.h"
#include "plan/plan.h"

namespace sirius::engine {

/// OK when the device can run every operator and expression of `plan`;
/// otherwise UnsupportedOnDevice naming the first offending feature.
///
/// The one feature the device lacks is a scalar UDF (§3.4 lists device-side
/// UDFs as future work): a UDF in any filter, projection or join residual
/// declines the plan.
Status CheckDeviceSupport(const plan::PlanNode& plan);

}  // namespace sirius::engine
