// Reference key kernels for tests: the row-at-a-time hash join, group-by,
// DISTINCT, partition and ASOF kernels that the column-at-a-time key kernels
// replaced, kept as an oracle (see key_reference.cc). Same contracts as the
// gdf functions of the same names.

#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "format/table.h"
#include "gdf/asof.h"
#include "gdf/groupby.h"
#include "gdf/join.h"
#include "gdf/partition.h"
#include "gdf/row_ops.h"

namespace sirius::gdf::reference {

/// Combined hash of row `i`'s key values, one row at a time.
uint64_t Hash(const RowOps& keys, size_t i);

Result<JoinResult> HashJoin(const Context& ctx,
                            const std::vector<format::ColumnPtr>& left_keys,
                            const std::vector<format::ColumnPtr>& right_keys,
                            const JoinOptions& options);

Result<format::TablePtr> GroupByAggregate(
    const Context& ctx, const std::vector<format::ColumnPtr>& keys,
    const std::vector<std::string>& key_names, const format::TablePtr& values,
    const std::vector<AggRequest>& aggs);

Result<std::vector<index_t>> DistinctIndices(
    const Context& ctx, const std::vector<format::ColumnPtr>& keys);

Result<std::vector<format::TablePtr>> HashPartition(
    const Context& ctx, const format::TablePtr& table,
    const std::vector<int>& key_columns, size_t num_partitions);

Result<JoinResult> AsofJoin(const Context& ctx, const format::ColumnPtr& left_on,
                            const format::ColumnPtr& right_on,
                            const std::vector<format::ColumnPtr>& left_by,
                            const std::vector<format::ColumnPtr>& right_by);

}  // namespace sirius::gdf::reference
