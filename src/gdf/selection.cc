#include "gdf/selection.h"

#include <algorithm>

#include "gdf/copying.h"

namespace sirius::gdf {

using format::ColumnPtr;
using format::TablePtr;

SelectionView SelectionView::FromTable(TablePtr table) {
  SelectionView v;
  v.num_rows_ = table->num_rows();
  ViewSegment seg;
  seg.table = std::move(table);
  v.segments_.push_back(std::move(seg));
  return v;
}

size_t SelectionView::num_columns() const {
  size_t n = 0;
  for (const auto& s : segments_) n += s.table->num_columns();
  return n;
}

const TablePtr& SelectionView::dense() const {
  SIRIUS_CHECK(IsIdentity());
  return segments_.front().table;
}

Result<SelectionView::ColumnRef> SelectionView::Resolve(int column) const {
  if (column < 0) return Status::IndexError("view column < 0");
  size_t c = static_cast<size_t>(column);
  for (const auto& s : segments_) {
    if (c < s.table->num_columns()) {
      ColumnRef ref;
      ref.segment = &s;
      ref.column = s.table->column(c);
      return ref;
    }
    c -= s.table->num_columns();
  }
  return Status::IndexError("view column " + std::to_string(column) +
                            " out of range (" + std::to_string(num_columns()) +
                            " columns)");
}

Status SelectionView::Refine(const std::vector<index_t>& sel) {
  for (index_t i : sel) {
    if (i < 0 || static_cast<size_t>(i) >= num_rows_) {
      return Status::IndexError("view selection index out of range: " +
                                std::to_string(i));
    }
  }
  for (auto& s : segments_) {
    if (s.identity) {
      s.rows = sel;
      s.identity = false;
    } else {
      std::vector<index_t> composed(sel.size());
      for (size_t i = 0; i < sel.size(); ++i) composed[i] = s.rows[sel[i]];
      s.rows = std::move(composed);
    }
  }
  num_rows_ = sel.size();
  return Status::OK();
}

Status SelectionView::AppendSegment(TablePtr table, std::vector<index_t> rows,
                                    bool nullable) {
  if (segments_.empty()) {
    return Status::Invalid("AppendSegment on an empty view");
  }
  if (rows.size() != num_rows_) {
    return Status::Invalid("AppendSegment: row map length " +
                           std::to_string(rows.size()) + " != view rows " +
                           std::to_string(num_rows_));
  }
  const index_t n = static_cast<index_t>(table->num_rows());
  for (index_t r : rows) {
    if (r >= n || (r < 0 && !nullable)) {
      return Status::IndexError("AppendSegment: row map index out of range: " +
                                std::to_string(r));
    }
  }
  ViewSegment seg;
  seg.table = std::move(table);
  seg.rows = std::move(rows);
  seg.identity = false;
  seg.nullable = nullable;
  segments_.push_back(std::move(seg));
  return Status::OK();
}

void SelectionView::ResetToTable(TablePtr table) {
  num_rows_ = table->num_rows();
  segments_.clear();
  ViewSegment seg;
  seg.table = std::move(table);
  segments_.push_back(std::move(seg));
}

uint64_t SelectionView::SelectionBytes() const {
  uint64_t b = 0;
  for (const auto& s : segments_) b += s.rows.size() * sizeof(index_t);
  return b;
}

sim::KernelCost FusedReadCost(const sim::SimContext& sim, const ColumnPtr& col,
                              size_t selected) {
  const uint64_t full = col->MemoryUsage();
  const uint64_t width =
      col->length() > 0 ? std::max<uint64_t>(1, full / col->length()) : 1;
  const uint64_t picked = selected * width;

  sim::KernelCost cost;
  cost.rows = selected;
  cost.launches = 0;  // the fused stage owns the chain's single launch
  // Cheaper access pattern wins: a dense selection reads the column as a
  // predicated coalesced scan; a sparse one fetches elements through the
  // selection vector at the random-access rate.
  const double seq_s = static_cast<double>(full) / sim.device.mem_bw_gbps;
  const double rand_s = static_cast<double>(picked) /
                        (sim.device.mem_bw_gbps * sim.device.random_access_factor);
  if (seq_s <= rand_s) {
    cost.seq_bytes = full;
  } else {
    cost.rand_bytes = picked;
    cost.seq_bytes = selected * sizeof(index_t);  // the selection vector itself
  }
  return cost;
}

Result<ColumnPtr> GatherViewColumn(const Context& ctx, const SelectionView& view,
                                   int col, sim::OpCategory cat) {
  SIRIUS_ASSIGN_OR_RETURN(SelectionView::ColumnRef ref, view.Resolve(col));
  if (ref.segment->identity) {
    // All rows in order: the backing column is already the answer. No data
    // moves and nothing is charged — the consumer prices its own read.
    return ref.column;
  }
  // Inside a fused pass (the only place a selected view exists) the
  // column's values are loaded once and then live in registers: the read is
  // charged only on first touch and the compact output is a register
  // artifact, not an HBM write. A resident read still charges KernelCost's
  // default single launch.
  sim::KernelCost cost;
  if (ctx.FirstRead(ref.column.get())) {
    cost = FusedReadCost(ctx.sim, ref.column, view.num_rows());
  }
  ctx.Charge(cat, cost);
  SIRIUS_ASSIGN_OR_RETURN(
      ColumnPtr out, GatherColumnUncharged(ctx, ref.column, ref.segment->rows,
                                           ref.segment->nullable));
  if (ctx.fused_reads != nullptr) ctx.fused_reads->insert(out.get());
  return out;
}

Status RefineView(const Context& ctx, SelectionView* view,
                  const std::vector<index_t>& sel, sim::OpCategory cat) {
  if (ctx.fused_reads == nullptr) {
    SIRIUS_ASSIGN_OR_RETURN(TablePtr t,
                            GatherTable(ctx, view->dense(), sel, cat));
    view->ResetToTable(std::move(t));
    return Status::OK();
  }
  sim::KernelCost cost;
  cost.seq_bytes =
      sel.size() * sizeof(index_t) * (view->segments().size() + 1);
  cost.rows = sel.size();
  cost.launches = 0;
  ctx.Charge(cat, cost);
  return view->Refine(sel);
}

Status ApplyJoinToView(const Context& ctx, SelectionView* view,
                       const JoinResult& pairs, TablePtr build,
                       const format::Schema& schema, bool emits_right,
                       bool nullable_right, sim::OpCategory cat) {
  if (ctx.fused_reads == nullptr) {
    SIRIUS_ASSIGN_OR_RETURN(
        TablePtr left,
        GatherTable(ctx, view->dense(), pairs.left_indices, cat));
    std::vector<ColumnPtr> cols = left->columns();
    if (emits_right) {
      SIRIUS_ASSIGN_OR_RETURN(
          TablePtr right,
          GatherTable(ctx, build, pairs.right_indices, cat, nullable_right));
      for (const auto& c : right->columns()) cols.push_back(c);
    }
    SIRIUS_ASSIGN_OR_RETURN(TablePtr out,
                            format::Table::Make(schema, std::move(cols)));
    view->ResetToTable(std::move(out));
    return Status::OK();
  }
  sim::KernelCost cost;
  cost.seq_bytes =
      pairs.left_indices.size() * sizeof(index_t) * (view->segments().size() + 1);
  if (emits_right) {
    cost.seq_bytes += pairs.right_indices.size() * sizeof(index_t);
  }
  cost.rows = pairs.left_indices.size();
  cost.launches = 0;
  ctx.Charge(cat, cost);
  SIRIUS_RETURN_NOT_OK(view->Refine(pairs.left_indices));
  if (emits_right) {
    SIRIUS_RETURN_NOT_OK(
        view->AppendSegment(std::move(build), pairs.right_indices,
                            nullable_right));
  }
  return Status::OK();
}

Result<TablePtr> MaterializeView(const Context& ctx, const SelectionView& view,
                                 const format::Schema& schema,
                                 sim::OpCategory cat) {
  if (schema.num_fields() != view.num_columns()) {
    return Status::Invalid("MaterializeView: schema has " +
                           std::to_string(schema.num_fields()) +
                           " fields, view has " +
                           std::to_string(view.num_columns()) + " columns");
  }
  std::vector<ColumnPtr> cols;
  cols.reserve(view.num_columns());
  sim::KernelCost cost;
  cost.launches = 0;
  bool gathered = false;
  for (const auto& seg : view.segments()) {
    for (size_t c = 0; c < seg.table->num_columns(); ++c) {
      const ColumnPtr& col = seg.table->column(c);
      if (seg.identity) {
        cols.push_back(col);  // zero-copy pass-through
        continue;
      }
      gathered = true;
      // Register-resident columns (already read this pass) materialize for
      // just the write; cold columns pay the fused read too.
      if (ctx.FirstRead(col.get())) {
        const sim::KernelCost read =
            FusedReadCost(ctx.sim, col, view.num_rows());
        cost.seq_bytes += read.seq_bytes;
        cost.rand_bytes += read.rand_bytes;
      }
      cost.rows += view.num_rows();
      const uint64_t width =
          col->length() > 0
              ? std::max<uint64_t>(1, col->MemoryUsage() / col->length())
              : 1;
      cost.seq_bytes += view.num_rows() * width;  // output write
      SIRIUS_ASSIGN_OR_RETURN(
          ColumnPtr out,
          GatherColumnUncharged(ctx, col, seg.rows, seg.nullable));
      cols.push_back(std::move(out));
    }
  }
  if (gathered) {
    cost.launches = 1;  // the chain's single materialization kernel
    ctx.Charge(cat, cost);
  }
  return format::Table::Make(schema, std::move(cols));
}

}  // namespace sirius::gdf
