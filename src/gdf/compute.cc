#include "gdf/compute.h"

#include <string>
#include <unordered_map>

namespace sirius::gdf {

namespace {

/// Rewrites every column reference through `remap` (old index -> compact
/// index). The tree was cloned by the caller; mutation is safe.
void RemapColumnRefs(expr::Expr* e,
                     const std::unordered_map<int, int>& remap) {
  if (e->kind == expr::ExprKind::kColumnRef) {
    auto it = remap.find(e->column_index);
    if (it != remap.end()) e->column_index = it->second;
  }
  for (const auto& child : e->children) RemapColumnRefs(child.get(), remap);
}

}  // namespace

Result<format::ColumnPtr> ComputeColumn(const Context& ctx, const expr::Expr& e,
                                        const format::TablePtr& input,
                                        sim::OpCategory cat) {
  sim::KernelCost cost;
  std::vector<int> cols;
  e.CollectColumns(&cols);
  for (int c : cols) {
    if (c >= 0 && static_cast<size_t>(c) < input->num_columns()) {
      cost.seq_bytes += input->column(c)->MemoryUsage();
    }
  }
  cost.rows = input->num_rows();
  cost.ops_per_row = e.OpCount();
  // Output write traffic.
  cost.seq_bytes += input->num_rows() * e.type.byte_width();
  ctx.Charge(cat, cost);
  return expr::Evaluate(e, *input);
}

Result<format::ColumnPtr> ComputeColumnView(const Context& ctx,
                                            const expr::Expr& e,
                                            const SelectionView& view,
                                            sim::OpCategory cat) {
  // Outside a fused pass the view is one dense table: the standalone kernel.
  if (ctx.fused_reads == nullptr) {
    return ComputeColumn(ctx, e, view.dense(), cat);
  }

  std::vector<int> cols;
  e.CollectColumns(&cols);
  if (cols.empty()) {
    // Literal-only expression: the compact input still needs the view's row
    // count, so carry one column along (its read is charged like any other).
    if (view.num_columns() == 0) {
      return Status::Invalid("ComputeColumnView: empty view");
    }
    cols.push_back(0);
  }

  // Compact input: only the referenced columns, read through the selection.
  std::vector<format::ColumnPtr> compact;
  format::Schema schema;
  std::unordered_map<int, int> remap;
  for (int c : cols) {
    SIRIUS_ASSIGN_OR_RETURN(format::ColumnPtr g,
                            GatherViewColumn(ctx, view, c, cat));
    remap.emplace(c, static_cast<int>(compact.size()));
    schema.AddField({"c" + std::to_string(c), g->type()});
    compact.push_back(std::move(g));
  }
  SIRIUS_ASSIGN_OR_RETURN(format::TablePtr input,
                          format::Table::Make(std::move(schema), compact));

  expr::ExprPtr remapped = e.Clone();
  RemapColumnRefs(remapped.get(), remap);

  // Each input column is charged at its first touch only (identity
  // pass-throughs arrive unpriced from GatherViewColumn); after that its
  // values live in registers, and the result feeds the next operator in the
  // chain without an HBM round trip.
  sim::KernelCost cost;
  cost.rows = input->num_rows();
  cost.ops_per_row = e.OpCount();
  cost.launches = 0;
  for (const auto& c : compact) {
    if (ctx.FirstRead(c.get())) {
      const sim::KernelCost read =
          FusedReadCost(ctx.sim, c, input->num_rows());
      cost.seq_bytes += read.seq_bytes;
      cost.rand_bytes += read.rand_bytes;
    }
  }
  ctx.Charge(cat, cost);
  SIRIUS_ASSIGN_OR_RETURN(format::ColumnPtr result,
                          expr::Evaluate(*remapped, *input));
  ctx.fused_reads->insert(result.get());
  return result;
}

}  // namespace sirius::gdf
