// Selection-vector machinery for fused pipeline execution.
//
// A fused pass streams one morsel through a filter -> project -> probe chain
// without materializing gathered intermediates: operators exchange a
// SelectionView — shared input columns plus per-segment row maps — and only
// sink boundaries (build sides, aggregations, sorts) gather. This is the
// engine-side analogue of the data-path fusion the single-GPU breakdown
// motivates (paper §4.3; "Data Path Fusion in GPU for Analytical Query
// Processing", PAPERS.md): the HBM round trip between chained operators is
// replaced by an index indirection that stays on-chip.

#pragma once

#include <vector>

#include "common/result.h"
#include "format/table.h"
#include "gdf/context.h"
#include "gdf/join.h"

namespace sirius::gdf {

/// \brief One segment of a fused view: the columns of `table`, seen through
/// the segment's row map.
///
/// A probe join appends the build side as a new segment, so a view over a
/// join chain is a list of segments whose concatenated columns form the
/// logical output schema — none of them gathered yet.
struct ViewSegment {
  format::TablePtr table;       ///< shared input columns (never copied)
  std::vector<index_t> rows;    ///< view row -> table row; empty when identity
  bool identity = true;         ///< rows is implicitly 0..num_rows-1
  bool nullable = false;        ///< rows may contain -1 (NULL row, outer joins)
};

/// \brief A logical table flowing through a fused operator chain: shared
/// input columns plus selection vectors, materialized only at sinks.
class SelectionView {
 public:
  SelectionView() = default;

  /// A view of all rows of `table`, in order (the fused pass's source).
  static SelectionView FromTable(format::TablePtr table);

  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const;
  const std::vector<ViewSegment>& segments() const { return segments_; }

  /// True when the view is a single all-rows-in-order segment (materializing
  /// it is a no-op). Outside a fused pass every view is one.
  bool IsIdentity() const {
    return segments_.size() == 1 && segments_.front().identity;
  }

  /// The table behind an identity view. Checked: a selected view exists
  /// only inside a fused pass.
  const format::TablePtr& dense() const;

  /// Resolution of a view-global column index to its backing segment.
  struct ColumnRef {
    const ViewSegment* segment = nullptr;
    format::ColumnPtr column;
  };
  Result<ColumnRef> Resolve(int column) const;

  /// Refines the view by a selection over its rows: view row `i` of the
  /// result maps to old view row `sel[i]`. Composes with every segment's
  /// existing row map; O(segments * |sel|) index writes, no column data
  /// moves.
  Status Refine(const std::vector<index_t>& sel);

  /// Appends a segment (a probed build side): `rows[i]` is the build-table
  /// row paired with view row `i` (-1 = unmatched, requires `nullable`).
  Status AppendSegment(format::TablePtr table, std::vector<index_t> rows,
                       bool nullable);

  /// Replaces the view with a single dense table (a project's computed
  /// columns, or a gather outside a fused pass).
  void ResetToTable(format::TablePtr table);

  /// Bytes of selection-vector state the fused pass keeps live (the
  /// processing-fit check prices this instead of a gathered intermediate).
  uint64_t SelectionBytes() const;

 private:
  std::vector<ViewSegment> segments_;
  size_t num_rows_ = 0;
};

/// \brief Cost of reading `selected` rows of `col` inside a fused pass.
///
/// The kernel takes the cheaper access pattern: a predicated sequential scan
/// of the whole column (dense selections coalesce) or element-wise fetches
/// through the selection vector (sparse selections). launches = 0 — the
/// enclosing fused stage pays a single launch for the whole chain.
sim::KernelCost FusedReadCost(const sim::SimContext& sim,
                              const format::ColumnPtr& col, size_t selected);

/// \brief Gathers view-global column `col` into a compact column.
///
/// Identity segments return the backing column zero-copy and charge nothing
/// (the consumer prices its own read); selected segments charge a fused
/// read on the column's first touch.
Result<format::ColumnPtr> GatherViewColumn(const Context& ctx,
                                           const SelectionView& view, int col,
                                           sim::OpCategory cat);

/// \brief Keeps the view rows `sel` names. Inside a fused pass the selection
/// composes into the row maps, charging the index writes and no launch;
/// outside one the dense view gathers into a new dense table, priced as
/// GatherTable.
Status RefineView(const Context& ctx, SelectionView* view,
                  const std::vector<index_t>& sel, sim::OpCategory cat);

/// \brief Applies a join's pair lists to its probe-side view. Inside a
/// fused pass the probe segments refine by `pairs.left_indices` (view-row
/// space) and, when the join emits the build side, `build` appends as a new
/// segment mapped by `pairs.right_indices`; only the row-map writes are
/// charged. Outside one, both sides gather into one dense table with
/// `schema`, priced as the probe-side GatherTable plus the build-side one.
Status ApplyJoinToView(const Context& ctx, SelectionView* view,
                       const JoinResult& pairs, format::TablePtr build,
                       const format::Schema& schema, bool emits_right,
                       bool nullable_right, sim::OpCategory cat);

/// \brief Materializes the whole view with the given output schema — the
/// fused chain's single gather, paid at a sink boundary. Charges fused reads
/// plus the output writes, one launch total (zero when the view is identity).
Result<format::TablePtr> MaterializeView(const Context& ctx,
                                         const SelectionView& view,
                                         const format::Schema& schema,
                                         sim::OpCategory cat);

}  // namespace sirius::gdf
