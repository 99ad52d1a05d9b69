// Filter kernels: boolean-mask application (cudf::apply_boolean_mask).

#pragma once

#include "common/result.h"
#include "format/table.h"
#include "gdf/context.h"

namespace sirius::gdf {

/// \brief Indices of rows where `mask` is true (NULL counts as false).
/// One launch standalone; inside a fused pass (`ctx.fused_reads` set) the
/// compare and the compaction run in the stage's single pass, so only the
/// data traffic counts.
Result<std::vector<index_t>> MaskToIndices(const Context& ctx,
                                           const format::ColumnPtr& mask);

/// \brief Keeps rows of `table` where the boolean `mask` is true.
/// Charges a kFilter pass (mask scan + compaction gather).
Result<format::TablePtr> ApplyBooleanMask(const Context& ctx,
                                          const format::TablePtr& table,
                                          const format::ColumnPtr& mask);

}  // namespace sirius::gdf
