#include "host/cpu_executor.h"

#include "gdf/asof.h"
#include "gdf/compute.h"
#include "gdf/copying.h"
#include "gdf/filter.h"
#include "gdf/join.h"
#include "gdf/partition.h"
#include "gdf/sort.h"

namespace sirius::host {

using format::ColumnPtr;
using format::TablePtr;
using plan::PlanKind;
using plan::PlanNode;
using plan::PlanPtr;

namespace {

gdf::AggKind ToGdfAgg(plan::AggFunc f) {
  switch (f) {
    case plan::AggFunc::kSum:
      return gdf::AggKind::kSum;
    case plan::AggFunc::kMin:
      return gdf::AggKind::kMin;
    case plan::AggFunc::kMax:
      return gdf::AggKind::kMax;
    case plan::AggFunc::kCount:
      return gdf::AggKind::kCount;
    case plan::AggFunc::kCountStar:
      return gdf::AggKind::kCountStar;
    case plan::AggFunc::kAvg:
      return gdf::AggKind::kAvg;
    case plan::AggFunc::kCountDistinct:
      return gdf::AggKind::kCountDistinct;
  }
  return gdf::AggKind::kCountStar;
}

Result<TablePtr> ExecScan(const PlanNode& node, const TablePtr& base,
                          const gdf::Context& ctx) {
  SIRIUS_ASSIGN_OR_RETURN(TablePtr out, base->SelectColumns(node.scan_columns));
  sim::KernelCost cost;
  cost.seq_bytes = out->MemoryUsage();
  cost.rows = out->num_rows();
  ctx.Charge(sim::OpCategory::kScan, cost);
  return out;
}

Result<TablePtr> ExecFilter(const PlanNode& node, const TablePtr& input,
                            const gdf::Context& ctx) {
  SIRIUS_ASSIGN_OR_RETURN(ColumnPtr mask,
                          gdf::ComputeColumn(ctx, *node.predicate, input,
                                             sim::OpCategory::kFilter));
  return gdf::ApplyBooleanMask(ctx, input, mask);
}

Result<TablePtr> ExecProject(const PlanNode& node, const TablePtr& input,
                             const gdf::Context& ctx) {
  std::vector<ColumnPtr> cols;
  cols.reserve(node.projections.size());
  for (const auto& e : node.projections) {
    SIRIUS_ASSIGN_OR_RETURN(
        ColumnPtr c, gdf::ComputeColumn(ctx, *e, input, sim::OpCategory::kProject));
    cols.push_back(std::move(c));
  }
  return format::Table::Make(node.output_schema, std::move(cols));
}

Result<TablePtr> ExecJoin(const PlanNode& node, const TablePtr& left,
                          const TablePtr& right, const gdf::Context& ctx) {
  gdf::JoinResult pairs;
  if (node.join_type == plan::JoinType::kCross) {
    SIRIUS_ASSIGN_OR_RETURN(
        pairs, gdf::CrossJoin(ctx, left->num_rows(), right->num_rows()));
  } else if (node.join_type == plan::JoinType::kAsof) {
    std::vector<ColumnPtr> lby, rby;
    for (int k : node.left_keys) lby.push_back(left->column(k));
    for (int k : node.right_keys) rby.push_back(right->column(k));
    SIRIUS_ASSIGN_OR_RETURN(
        pairs, gdf::AsofJoin(ctx, left->column(node.asof_left_on),
                             right->column(node.asof_right_on), lby, rby));
  } else {
    std::vector<ColumnPtr> lkeys, rkeys;
    for (int k : node.left_keys) lkeys.push_back(left->column(k));
    for (int k : node.right_keys) rkeys.push_back(right->column(k));
    gdf::JoinOptions options;
    options.type = ToGdfJoin(node.join_type);
    if (node.residual != nullptr) {
      options.residual = node.residual.get();
      options.left_table = left;
      options.right_table = right;
    }
    SIRIUS_ASSIGN_OR_RETURN(pairs, gdf::HashJoin(ctx, lkeys, rkeys, options));
  }

  SIRIUS_ASSIGN_OR_RETURN(
      TablePtr lg,
      gdf::GatherTable(ctx, left, pairs.left_indices, sim::OpCategory::kJoin));
  std::vector<ColumnPtr> cols = lg->columns();
  if (JoinEmitsRight(node.join_type)) {
    SIRIUS_ASSIGN_OR_RETURN(
        TablePtr rg,
        gdf::GatherTable(
            ctx, right, pairs.right_indices, sim::OpCategory::kJoin,
            /*nulls_for_negative=*/JoinNullableRight(node.join_type)));
    for (const auto& c : rg->columns()) cols.push_back(c);
  }
  return format::Table::Make(node.output_schema, std::move(cols));
}

Result<TablePtr> ExecAggregate(const PlanNode& node, const TablePtr& input,
                               const gdf::Context& ctx) {
  std::vector<ColumnPtr> keys;
  std::vector<std::string> key_names;
  for (size_t k = 0; k < node.group_by.size(); ++k) {
    keys.push_back(input->column(node.group_by[k]));
    key_names.push_back(node.output_schema.field(k).name);
  }
  return gdf::GroupByAggregate(ctx, keys, key_names, input, AggRequests(node));
}

Result<TablePtr> ExecSort(const PlanNode& node, const TablePtr& input,
                          const gdf::Context& ctx) {
  std::vector<int> cols;
  std::vector<bool> desc;
  for (const auto& k : node.sort_keys) {
    cols.push_back(k.column);
    desc.push_back(k.descending);
  }
  return gdf::SortTable(ctx, input, cols, desc);
}

Result<TablePtr> ExecLimit(const PlanNode& node, const TablePtr& input,
                           const gdf::Context& ctx) {
  size_t limit =
      node.limit < 0 ? input->num_rows() : static_cast<size_t>(node.limit);
  return gdf::SliceTable(ctx, input, input->ColumnIndices(),
                         static_cast<size_t>(node.offset), limit);
}

Result<TablePtr> ExecDistinct(const TablePtr& input, const gdf::Context& ctx) {
  if (input->num_columns() == 0) return input;
  SIRIUS_ASSIGN_OR_RETURN(std::vector<gdf::index_t> indices,
                          gdf::DistinctIndices(ctx, input->columns()));
  return gdf::GatherTable(ctx, input, indices, sim::OpCategory::kGroupBy);
}

}  // namespace

gdf::JoinType ToGdfJoin(plan::JoinType type) {
  switch (type) {
    case plan::JoinType::kInner:
      return gdf::JoinType::kInner;
    case plan::JoinType::kLeft:
      return gdf::JoinType::kLeft;
    case plan::JoinType::kSemi:
      return gdf::JoinType::kSemi;
    case plan::JoinType::kAnti:
      return gdf::JoinType::kAnti;
    case plan::JoinType::kCross:
    case plan::JoinType::kAsof:
      return gdf::JoinType::kInner;  // handled separately
  }
  return gdf::JoinType::kInner;
}

bool JoinEmitsRight(plan::JoinType type) {
  return type == plan::JoinType::kInner || type == plan::JoinType::kLeft ||
         type == plan::JoinType::kCross || type == plan::JoinType::kAsof;
}

bool JoinNullableRight(plan::JoinType type) {
  return type == plan::JoinType::kLeft || type == plan::JoinType::kAsof;
}

std::vector<gdf::AggRequest> AggRequests(const PlanNode& node) {
  std::vector<gdf::AggRequest> aggs;
  for (size_t a = 0; a < node.aggregates.size(); ++a) {
    gdf::AggRequest req;
    req.kind = ToGdfAgg(node.aggregates[a].func);
    req.column = node.aggregates[a].arg_column;
    req.name = node.output_schema.field(node.group_by.size() + a).name;
    aggs.push_back(std::move(req));
  }
  return aggs;
}

Result<TablePtr> ApplyNode(const PlanNode& node,
                           const std::vector<TablePtr>& children,
                           const gdf::Context& ctx) {
  switch (node.kind) {
    case PlanKind::kTableScan:
      return ExecScan(node, children.at(0), ctx);
    case PlanKind::kFilter:
      return ExecFilter(node, children.at(0), ctx);
    case PlanKind::kProject:
      return ExecProject(node, children.at(0), ctx);
    case PlanKind::kJoin:
      return ExecJoin(node, children.at(0), children.at(1), ctx);
    case PlanKind::kAggregate:
      return ExecAggregate(node, children.at(0), ctx);
    case PlanKind::kSort:
      return ExecSort(node, children.at(0), ctx);
    case PlanKind::kLimit:
      return ExecLimit(node, children.at(0), ctx);
    case PlanKind::kDistinct:
      return ExecDistinct(children.at(0), ctx);
    case PlanKind::kExchange:
      // Single-node execution: exchange is the identity.
      return children.at(0);
  }
  return Status::Internal("unknown plan node");
}

Result<TablePtr> ExecutePlan(const PlanPtr& plan, const TableResolver& resolver,
                             const gdf::Context& ctx) {
  std::vector<TablePtr> children;
  if (plan->kind == PlanKind::kTableScan) {
    SIRIUS_ASSIGN_OR_RETURN(TablePtr base, resolver(plan->table_name));
    children.push_back(std::move(base));
  } else {
    for (const auto& c : plan->children) {
      SIRIUS_ASSIGN_OR_RETURN(TablePtr r, ExecutePlan(c, resolver, ctx));
      children.push_back(std::move(r));
    }
  }
  return ApplyNode(*plan, children, ctx);
}

}  // namespace sirius::host
