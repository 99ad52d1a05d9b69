// Copying kernels: gather, gather-with-nulls, concatenate, slice.
// The GDF analogue of cudf::gather / cudf::concatenate.

#pragma once

#include "common/result.h"
#include "format/table.h"
#include "gdf/context.h"

namespace sirius::gdf {

/// \brief Gathers rows of `col` at `indices` into a new column.
/// All indices must be in [0, col.length).
Result<format::ColumnPtr> GatherColumn(const Context& ctx,
                                       const format::ColumnPtr& col,
                                       const std::vector<index_t>& indices);

/// Gather where a negative index produces a NULL output slot (used to
/// materialize the unmatched side of outer joins).
Result<format::ColumnPtr> GatherColumnWithNulls(const Context& ctx,
                                                const format::ColumnPtr& col,
                                                const std::vector<index_t>& indices);

/// \brief Gather without charging the cost model: the caller has already
/// priced the access (fused selected reads price the cheaper of a sequential
/// scan or random fetches — see selection.h). Bounds-checked; negative
/// indices produce NULLs only when `nulls_for_negative` is set.
Result<format::ColumnPtr> GatherColumnUncharged(const Context& ctx,
                                                const format::ColumnPtr& col,
                                                const std::vector<index_t>& indices,
                                                bool nulls_for_negative = false);

/// Gathers all columns of a table. Charges one kJoin-free "scan" pass;
/// callers that gather as part of a join/filter pass their own category.
Result<format::TablePtr> GatherTable(const Context& ctx,
                                     const format::TablePtr& table,
                                     const std::vector<index_t>& indices,
                                     sim::OpCategory charge_as = sim::OpCategory::kProject,
                                     bool nulls_for_negative = false);

/// Vertically concatenates tables with identical schemas.
Result<format::TablePtr> ConcatTables(const Context& ctx,
                                      const std::vector<format::TablePtr>& tables);

/// \brief Rows [offset, offset+length) of `columns` of `table` (by index,
/// in that order, repeats allowed) as a new table of copies. A range past the
/// end is clamped; an index out of range is an IndexError.
///
/// Each column is one contiguous copy from `ctx.mr`: fixed-width values in
/// one memcpy; a string's chars range in one memcpy with its offsets rebased
/// to 0; a list's offsets rebased and its child sliced the same way; a
/// validity bitmap only when the range holds a NULL. The buffers equal what
/// GatherTable produces over the identity range, byte for byte.
///
/// The charge is GatherTable's, as one kOther launch, over every column of
/// `table` and not only the copied ones. The out-of-core batch loop slices
/// only the columns its scan reads, and charging just those would move every
/// modeled out-of-core number; that re-pricing waits for the paper-shape
/// gates, so the model's bytes stay those of a whole-table slice.
Result<format::TablePtr> SliceTable(const Context& ctx,
                                    const format::TablePtr& table,
                                    const std::vector<int>& columns,
                                    size_t offset, size_t length);

}  // namespace sirius::gdf
