// Recursive (operator-at-a-time) plan executor over the GDF kernels.
//
// This is the CPU execution path of the host databases (DuckX / the
// distributed baselines). Sirius' own engine (src/engine) uses the
// pipeline/push model instead; both produce identical results, which the
// test suite exploits for cross-engine validation.

#pragma once

#include <functional>
#include <vector>

#include "common/result.h"
#include "format/table.h"
#include "gdf/context.h"
#include "gdf/groupby.h"
#include "gdf/join.h"
#include "plan/plan.h"

namespace sirius::host {

/// Resolves a scan's base table at execution time.
using TableResolver =
    std::function<Result<format::TablePtr>(const std::string&)>;

/// \brief Executes a bound plan tree bottom-up, charging `ctx`'s cost model.
///
/// Exchange nodes are executed as no-ops (single-node semantics); the
/// distributed runtime (src/dist) intercepts them.
Result<format::TablePtr> ExecutePlan(const plan::PlanPtr& plan,
                                     const TableResolver& resolver,
                                     const gdf::Context& ctx);

/// \brief Applies one operator to already-computed child tables.
///
/// For kTableScan, children[0] must hold the (full-width) base table; the
/// scan's column projection is applied here. Used by the distributed
/// runtime, which owns the recursion and the exchanges between fragments.
Result<format::TablePtr> ApplyNode(const plan::PlanNode& node,
                                   const std::vector<format::TablePtr>& children,
                                   const gdf::Context& ctx);

/// \name Plan-node translation shared with the device engine (src/engine).
/// @{

/// Hash-join type of an equi-join (cross and ASOF joins have their own
/// kernels and never reach the hash join).
gdf::JoinType ToGdfJoin(plan::JoinType type);
/// True when a join of `type` outputs the build (right) side's columns.
bool JoinEmitsRight(plan::JoinType type);
/// True when those right-side columns are NULL for unmatched rows.
bool JoinNullableRight(plan::JoinType type);
/// The kernel requests of an aggregate node, named after its output schema.
std::vector<gdf::AggRequest> AggRequests(const plan::PlanNode& node);
/// @}

}  // namespace sirius::host
