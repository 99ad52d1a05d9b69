// Expression compute kernel: evaluates bound expressions over a table,
// charging the cost model for the columns touched (cudf::compute_column).

#pragma once

#include "common/result.h"
#include "expr/eval.h"
#include "gdf/context.h"
#include "gdf/selection.h"

namespace sirius::gdf {

/// \brief Evaluates `e` over `input`, charging `cat` (kFilter for predicate
/// masks, kProject for projections) with a cost proportional to the input
/// columns the expression touches plus per-row compute.
Result<format::ColumnPtr> ComputeColumn(const Context& ctx, const expr::Expr& e,
                                        const format::TablePtr& input,
                                        sim::OpCategory cat);

/// \brief Evaluates `e` over the rows of `view`. Outside a fused pass the
/// view is one dense table and this is ComputeColumn. Inside one it reads
/// only the referenced columns through the selection (each priced as a
/// fused read on first touch — the cheaper of a predicated sequential scan
/// or random fetches) instead of over a gathered intermediate, charged with
/// zero launches: the enclosing fused stage owns the chain's launch. The
/// result is dense: one value per view row.
Result<format::ColumnPtr> ComputeColumnView(const Context& ctx,
                                            const expr::Expr& e,
                                            const SelectionView& view,
                                            sim::OpCategory cat);

}  // namespace sirius::gdf
