// Copying kernels: gather, slice, concatenate. The GDF analogue of
// cudf::gather / cudf::slice / cudf::concatenate.
//
// Every kernel copies bytes as they are, as cudf's do: a NULL slot keeps the
// value or chars its source held and a BOOL keeps its byte (key hashing,
// equality and sort test validity before they read a slot). An output has a
// validity bitmap only when one of its rows is NULL. `ctx.mr` is the only
// allocator, bitmaps and list children included, and a failed allocation
// returns OutOfMemory, never aborts: the engine heals it by evicting,
// spilling or falling back to the CPU engine (§3.4).

#pragma once

#include "common/result.h"
#include "format/table.h"
#include "gdf/context.h"

namespace sirius::gdf {

/// \brief Gathers rows of `col` at `indices` into a new column, without
/// charging the cost model: the caller has already priced the access (fused
/// selected reads price the cheaper of a sequential scan or random fetches —
/// see selection.h).
///
/// The one index rule of both gathers: each index is in [0, col.length), or
/// negative only when `nulls_for_negative` is set, where it produces a NULL
/// row (zeroed value, empty string or list). Any other index is an
/// IndexError.
Result<format::ColumnPtr> GatherColumnUncharged(const Context& ctx,
                                                const format::ColumnPtr& col,
                                                const std::vector<index_t>& indices,
                                                bool nulls_for_negative = false);

/// Gathers all columns of a table under GatherColumnUncharged's index rule
/// (a table without columns reads no row). Charges one pass in `charge_as`;
/// callers that gather as part of a join/filter pass their own category.
Result<format::TablePtr> GatherTable(const Context& ctx,
                                     const format::TablePtr& table,
                                     const std::vector<index_t>& indices,
                                     sim::OpCategory charge_as = sim::OpCategory::kProject,
                                     bool nulls_for_negative = false);

/// Vertically concatenates tables with identical schemas, every type LIST
/// included, with the same range copy as SliceTable: one per input.
/// Charges 2x the input bytes as one kOther pass.
Result<format::TablePtr> ConcatTables(const Context& ctx,
                                      const std::vector<format::TablePtr>& tables);

/// \brief Rows [offset, offset+length) of `columns` of `table` (by index,
/// in that order, repeats allowed) as a new table of copies. A range past the
/// end is clamped; an index out of range is an IndexError.
///
/// Each column is one range copy: fixed-width values in one memcpy; a
/// string's chars range in one memcpy with its offsets rebased to 0; a
/// list's offsets rebased and its child copied over its element range the
/// same way. The buffers equal what GatherTable produces over the identity
/// range, byte for byte.
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
