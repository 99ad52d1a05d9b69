// QueryProfile exporters: Chrome trace-event JSON and a text summary.

#pragma once

#include <string>

#include "obs/trace.h"

namespace sirius::obs {

/// Serializes `profile` in Chrome trace-event format (the JSON object form:
/// `{"traceEvents": [...]}`), loadable in chrome://tracing or Perfetto.
/// Simulated seconds map to microseconds; each track becomes one named
/// thread under pid 0. Output is deterministic: spans in profile order
/// (already canonically sorted by Finish()), timestamps with fixed
/// precision, no pointers or insertion-order ids.
std::string ToChromeTraceJson(const QueryProfile& profile);

/// Human-readable summary: per-category simulated-time totals, the slowest
/// spans, and the counter block. `top_n` bounds the span list.
std::string ToTextSummary(const QueryProfile& profile, size_t top_n = 10);

}  // namespace sirius::obs
