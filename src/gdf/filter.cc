#include "gdf/filter.h"

#include "gdf/copying.h"

namespace sirius::gdf {

Result<std::vector<index_t>> MaskToIndices(const Context& ctx,
                                           const format::ColumnPtr& mask) {
  if (mask->type().id != format::TypeId::kBool) {
    return Status::TypeError("boolean mask required, got " +
                             mask->type().ToString());
  }
  const size_t n = mask->length();
  std::vector<index_t> out;
  out.reserve(n / 2);
  const uint8_t* vals = mask->data<uint8_t>();
  for (size_t i = 0; i < n; ++i) {
    if (vals[i] != 0 && !mask->IsNull(i)) out.push_back(static_cast<index_t>(i));
  }
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
