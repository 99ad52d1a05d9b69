#include "gdf/filter.h"

#include "common/bitutil.h"
#include "gdf/copying.h"

namespace sirius::gdf {

Result<std::vector<index_t>> MaskToIndices(const Context& ctx,
                                           const format::ColumnPtr& mask) {
  if (mask->type().id != format::TypeId::kBool) {
    return Status::TypeError("boolean mask required, got " +
                             mask->type().ToString());
  }
  const size_t n = mask->length();
  std::vector<index_t> out(n);
  const uint8_t* vals = mask->data<uint8_t>();
  // Branch-free compaction: every row writes its index at the cursor, and
  // the cursor moves past it only when the row is selected.
  size_t count = 0;
  if (mask->has_nulls()) {
    const uint8_t* valid = mask->validity();
    for (size_t i = 0; i < n; ++i) {
      out[count] = static_cast<index_t>(i);
      count += (vals[i] != 0) & bit::GetBit(valid, i);
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      out[count] = static_cast<index_t>(i);
      count += vals[i] != 0;
    }
  }
  out.resize(count);
  sim::KernelCost cost;
  cost.seq_bytes = n + out.size() * sizeof(index_t);
  cost.rows = n;
  // Inside a fused pass the compaction runs in the stage's single pass.
  cost.launches = ctx.fused_reads != nullptr ? 0 : 1;
  ctx.Charge(sim::OpCategory::kFilter, cost);
  return out;
}

Result<format::TablePtr> ApplyBooleanMask(const Context& ctx,
                                          const format::TablePtr& table,
                                          const format::ColumnPtr& mask) {
  if (mask->length() != table->num_rows()) {
    return Status::Invalid("mask length != table rows");
  }
  SIRIUS_ASSIGN_OR_RETURN(std::vector<index_t> indices, MaskToIndices(ctx, mask));
  return GatherTable(ctx, table, indices, sim::OpCategory::kFilter);
}

}  // namespace sirius::gdf
