#include "gdf/partition.h"

#include "gdf/copying.h"
#include "gdf/row_ops.h"

namespace sirius::gdf {

Result<std::vector<format::TablePtr>> HashPartition(
    const Context& ctx, const format::TablePtr& table,
    const std::vector<int>& key_columns, size_t num_partitions) {
  if (num_partitions == 0) return Status::Invalid("HashPartition: 0 partitions");
  std::vector<format::ColumnPtr> keys;
  for (int c : key_columns) {
    if (c < 0 || static_cast<size_t>(c) >= table->num_columns()) {
      return Status::IndexError("HashPartition: bad key column");
    }
    keys.push_back(table->column(c));
  }
  RowOps ops(keys);
  const size_t n = table->num_rows();
  // Without keys every row hashes to 0, i.e. lands in partition 0.
  const std::vector<uint64_t> hashes =
      keys.empty() ? std::vector<uint64_t>(n, 0) : ops.HashAll();
  const bool nulls = ops.has_nulls();
  std::vector<std::vector<index_t>> buckets(num_partitions);
  for (size_t i = 0; i < n; ++i) {
    size_t p = nulls && ops.AnyNull(i) ? 0 : hashes[i] % num_partitions;
    buckets[p].push_back(static_cast<index_t>(i));
  }

  sim::KernelCost cost;
  cost.seq_bytes = 2 * table->MemoryUsage();
  cost.rows = n;
  cost.ops_per_row = 2.0;
  cost.launches = 2;
  ctx.Charge(sim::OpCategory::kExchange, cost);

  std::vector<format::TablePtr> out;
  out.reserve(num_partitions);
  for (size_t p = 0; p < num_partitions; ++p) {
    SIRIUS_ASSIGN_OR_RETURN(
        format::TablePtr t,
        GatherTable(ctx, table, buckets[p], sim::OpCategory::kExchange));
    out.push_back(std::move(t));
  }
  return out;
}

}  // namespace sirius::gdf
