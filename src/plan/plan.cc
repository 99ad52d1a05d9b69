#include "plan/plan.h"

#include <sstream>

namespace sirius::plan {

using format::DataType;
using format::Field;
using format::Schema;

const char* PlanKindName(PlanKind k) {
  switch (k) {
    case PlanKind::kTableScan:
      return "TableScan";
    case PlanKind::kFilter:
      return "Filter";
    case PlanKind::kProject:
      return "Project";
    case PlanKind::kJoin:
      return "Join";
    case PlanKind::kAggregate:
      return "Aggregate";
    case PlanKind::kSort:
      return "Sort";
    case PlanKind::kLimit:
      return "Limit";
    case PlanKind::kDistinct:
      return "Distinct";
    case PlanKind::kExchange:
      return "Exchange";
  }
  return "?";
}

const char* JoinTypeName(JoinType t) {
  switch (t) {
    case JoinType::kInner:
      return "inner";
    case JoinType::kLeft:
      return "left";
    case JoinType::kSemi:
      return "semi";
    case JoinType::kAnti:
      return "anti";
    case JoinType::kCross:
      return "cross";
    case JoinType::kAsof:
      return "asof";
  }
  return "?";
}

const char* AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
    case AggFunc::kCount:
      return "count";
    case AggFunc::kCountStar:
      return "count_star";
    case AggFunc::kAvg:
      return "avg";
    case AggFunc::kCountDistinct:
      return "count_distinct";
  }
  return "?";
}

const char* ExchangeKindName(ExchangeKind k) {
  switch (k) {
    case ExchangeKind::kShuffle:
      return "shuffle";
    case ExchangeKind::kBroadcast:
      return "broadcast";
    case ExchangeKind::kGather:
      return "gather";
    case ExchangeKind::kMulticast:
      return "multicast";
  }
  return "?";
}

namespace {

format::DataType AggResultType(AggFunc f, const DataType& in) {
  switch (f) {
    case AggFunc::kSum:
      if (in.id == format::TypeId::kFloat64) return format::Float64();
      if (in.is_decimal()) return in;
      return format::Int64();
    case AggFunc::kMin:
    case AggFunc::kMax:
      return in;
    case AggFunc::kAvg:
      return format::Float64();
    default:
      return format::Int64();
  }
}

void RenderTree(const PlanNode& node, int depth, std::ostringstream* out) {
  *out << std::string(static_cast<size_t>(depth) * 2, ' ') << PlanKindName(node.kind);
  switch (node.kind) {
    case PlanKind::kTableScan: {
      *out << " " << node.table_name << " [";
      for (size_t i = 0; i < node.scan_columns.size(); ++i) {
        if (i > 0) *out << ", ";
        *out << node.output_schema.field(i).name;
      }
      *out << "]";
      break;
    }
    case PlanKind::kFilter:
      *out << " (" << node.predicate->ToString() << ")";
      break;
    case PlanKind::kProject: {
      *out << " [";
      for (size_t i = 0; i < node.projections.size(); ++i) {
        if (i > 0) *out << ", ";
        *out << node.projection_names[i] << "=" << node.projections[i]->ToString();
      }
      *out << "]";
      break;
    }
    case PlanKind::kJoin: {
      *out << " " << JoinTypeName(node.join_type) << " on [";
      for (size_t i = 0; i < node.left_keys.size(); ++i) {
        if (i > 0) *out << ", ";
        *out << "#" << node.left_keys[i] << "=#" << node.right_keys[i];
      }
      *out << "]";
      if (node.residual != nullptr) {
        *out << " residual(" << node.residual->ToString() << ")";
      }
      break;
    }
    case PlanKind::kAggregate: {
      *out << " group_by=[";
      for (size_t i = 0; i < node.group_by.size(); ++i) {
        if (i > 0) *out << ", ";
        *out << "#" << node.group_by[i];
      }
      *out << "] aggs=[";
      for (size_t i = 0; i < node.aggregates.size(); ++i) {
        if (i > 0) *out << ", ";
        *out << node.aggregates[i].name << "=" << AggFuncName(node.aggregates[i].func)
             << "(#" << node.aggregates[i].arg_column << ")";
      }
      *out << "]";
      break;
    }
    case PlanKind::kSort: {
      *out << " [";
      for (size_t i = 0; i < node.sort_keys.size(); ++i) {
        if (i > 0) *out << ", ";
        *out << "#" << node.sort_keys[i].column
             << (node.sort_keys[i].descending ? " desc" : " asc");
      }
      *out << "]";
      break;
    }
    case PlanKind::kLimit:
      *out << " " << node.limit;
      if (node.offset > 0) *out << " offset " << node.offset;
      break;
    case PlanKind::kDistinct:
      break;
    case PlanKind::kExchange: {
      *out << " " << ExchangeKindName(node.exchange) << " keys=[";
      for (size_t i = 0; i < node.partition_keys.size(); ++i) {
        if (i > 0) *out << ", ";
        *out << "#" << node.partition_keys[i];
      }
      *out << "]";
      break;
    }
  }
  if (node.estimated_rows >= 0) {
    *out << "  ~" << static_cast<int64_t>(node.estimated_rows) << " rows";
  }
  *out << "\n";
  for (const auto& c : node.children) RenderTree(*c, depth + 1, out);
}

Status CheckColumnRange(const std::vector<int>& cols, const Schema& schema,
                        const char* what) {
  for (int c : cols) {
    if (c < 0 || static_cast<size_t>(c) >= schema.num_fields()) {
      return Status::Invalid(std::string(what) + ": column index " +
                             std::to_string(c) + " out of range");
    }
  }
  return Status::OK();
}

/// TypeError unless each left key column is stored like its right partner
/// (format::SameRepresentation): the join kernels read both sides of a key
/// pair with one type. Both ranges must already be checked.
Status CheckJoinKeyTypes(const std::vector<int>& left_cols, const Schema& left,
                         const std::vector<int>& right_cols, const Schema& right,
                         const char* what) {
  for (size_t k = 0; k < left_cols.size(); ++k) {
    const format::Field& l = left.field(left_cols[k]);
    const format::Field& r = right.field(right_cols[k]);
    if (!format::SameRepresentation(l.type, r.type)) {
      return Status::TypeError(std::string(what) + ": " + l.name + " (" +
                               l.type.ToString() + ") and " + r.name + " (" +
                               r.type.ToString() + ") have different types");
    }
  }
  return Status::OK();
}

}  // namespace

std::string PlanNode::ToString() const {
  std::ostringstream out;
  RenderTree(*this, 0, &out);
  return out.str();
}

Status PlanNode::Validate() const {
  const size_t expected_children = kind == PlanKind::kTableScan ? 0
                                   : kind == PlanKind::kJoin    ? 2
                                                                : 1;
  if (children.size() != expected_children) {
    return Status::Invalid(std::string(PlanKindName(kind)) + ": expected " +
                           std::to_string(expected_children) + " children, got " +
                           std::to_string(children.size()));
  }
  for (const auto& c : children) {
    SIRIUS_RETURN_NOT_OK(c->Validate());
  }
  switch (kind) {
    case PlanKind::kFilter:
      if (predicate == nullptr) return Status::Invalid("Filter: null predicate");
      if (predicate->type.id != format::TypeId::kBool) {
        return Status::TypeError("Filter: predicate is not BOOL");
      }
      break;
    case PlanKind::kJoin:
      if (left_keys.size() != right_keys.size()) {
        return Status::Invalid("Join: key count mismatch");
      }
      SIRIUS_RETURN_NOT_OK(
          CheckColumnRange(left_keys, children[0]->output_schema, "Join.left"));
      SIRIUS_RETURN_NOT_OK(
          CheckColumnRange(right_keys, children[1]->output_schema, "Join.right"));
      SIRIUS_RETURN_NOT_OK(CheckJoinKeyTypes(left_keys, children[0]->output_schema,
                                             right_keys, children[1]->output_schema,
                                             "Join keys"));
      if (join_type == JoinType::kAsof) {
        SIRIUS_RETURN_NOT_OK(CheckColumnRange(
            {asof_left_on}, children[0]->output_schema, "Join.asof_left"));
        SIRIUS_RETURN_NOT_OK(CheckColumnRange(
            {asof_right_on}, children[1]->output_schema, "Join.asof_right"));
        SIRIUS_RETURN_NOT_OK(CheckJoinKeyTypes(
            {asof_left_on}, children[0]->output_schema, {asof_right_on},
            children[1]->output_schema, "AsofJoin ordering columns"));
      }
      break;
    case PlanKind::kAggregate:
      SIRIUS_RETURN_NOT_OK(
          CheckColumnRange(group_by, children[0]->output_schema, "Aggregate.keys"));
      for (const auto& a : aggregates) {
        if (a.func != AggFunc::kCountStar) {
          SIRIUS_RETURN_NOT_OK(CheckColumnRange({a.arg_column},
                                                children[0]->output_schema,
                                                "Aggregate.arg"));
        }
      }
      break;
    case PlanKind::kSort:
      for (const auto& k : sort_keys) {
        SIRIUS_RETURN_NOT_OK(
            CheckColumnRange({k.column}, children[0]->output_schema, "Sort"));
      }
      break;
    default:
      break;
  }
  return Status::OK();
}

Result<PlanPtr> MakeScan(std::string table_name, const Schema& table_schema,
                         std::vector<int> columns) {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kTableScan;
  node->table_name = std::move(table_name);
  if (columns.empty()) {
    for (size_t i = 0; i < table_schema.num_fields(); ++i) {
      columns.push_back(static_cast<int>(i));
    }
  }
  SIRIUS_RETURN_NOT_OK(CheckColumnRange(columns, table_schema, "Scan"));
  Schema out;
  for (int c : columns) out.AddField(table_schema.field(c));
  node->scan_columns = std::move(columns);
  node->output_schema = std::move(out);
  return node;
}

Result<PlanPtr> MakeFilter(PlanPtr child, expr::ExprPtr predicate) {
  SIRIUS_RETURN_NOT_OK(expr::Bind(predicate, child->output_schema));
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kFilter;
  node->predicate = std::move(predicate);
  node->output_schema = child->output_schema;
  node->children = {std::move(child)};
  return node;
}

Result<PlanPtr> MakeProject(PlanPtr child, std::vector<expr::ExprPtr> exprs,
                            std::vector<std::string> names) {
  if (exprs.size() != names.size()) {
    return Status::Invalid("Project: expr/name count mismatch");
  }
  Schema out;
  for (size_t i = 0; i < exprs.size(); ++i) {
    SIRIUS_RETURN_NOT_OK(expr::Bind(exprs[i], child->output_schema));
    out.AddField({names[i], exprs[i]->type});
  }
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kProject;
  node->projections = std::move(exprs);
  node->projection_names = std::move(names);
  node->output_schema = std::move(out);
  node->children = {std::move(child)};
  return node;
}

Result<PlanPtr> MakeJoin(PlanPtr left, PlanPtr right, JoinType type,
                         std::vector<int> left_keys, std::vector<int> right_keys,
                         expr::ExprPtr residual) {
  if (left_keys.size() != right_keys.size()) {
    return Status::Invalid("Join: key count mismatch");
  }
  SIRIUS_RETURN_NOT_OK(CheckColumnRange(left_keys, left->output_schema, "Join.left"));
  SIRIUS_RETURN_NOT_OK(
      CheckColumnRange(right_keys, right->output_schema, "Join.right"));
  SIRIUS_RETURN_NOT_OK(CheckJoinKeyTypes(left_keys, left->output_schema, right_keys,
                                         right->output_schema, "Join keys"));

  Schema out;
  for (const auto& f : left->output_schema.fields()) out.AddField(f);
  const bool emits_right = type == JoinType::kInner || type == JoinType::kLeft ||
                           type == JoinType::kCross || type == JoinType::kAsof;
  if (emits_right) {
    for (const auto& f : right->output_schema.fields()) out.AddField(f);
  }
  if (residual != nullptr) {
    Schema combined;
    for (const auto& f : left->output_schema.fields()) combined.AddField(f);
    for (const auto& f : right->output_schema.fields()) combined.AddField(f);
    SIRIUS_RETURN_NOT_OK(expr::Bind(residual, combined));
  }
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kJoin;
  node->join_type = type;
  node->left_keys = std::move(left_keys);
  node->right_keys = std::move(right_keys);
  node->residual = std::move(residual);
  node->output_schema = std::move(out);
  node->children = {std::move(left), std::move(right)};
  return node;
}

Result<PlanPtr> MakeAsofJoin(PlanPtr left, PlanPtr right,
                             std::vector<int> by_left, std::vector<int> by_right,
                             int left_on, int right_on) {
  SIRIUS_RETURN_NOT_OK(
      CheckColumnRange({left_on}, left->output_schema, "AsofJoin.left_on"));
  SIRIUS_RETURN_NOT_OK(
      CheckColumnRange({right_on}, right->output_schema, "AsofJoin.right_on"));
  SIRIUS_RETURN_NOT_OK(CheckJoinKeyTypes({left_on}, left->output_schema, {right_on},
                                         right->output_schema,
                                         "AsofJoin ordering columns"));
  SIRIUS_ASSIGN_OR_RETURN(
      PlanPtr node, MakeJoin(std::move(left), std::move(right), JoinType::kAsof,
                             std::move(by_left), std::move(by_right)));
  node->asof_left_on = left_on;
  node->asof_right_on = right_on;
  return node;
}

Result<PlanPtr> MakeAggregate(PlanPtr child, std::vector<int> group_by,
                              std::vector<AggItem> aggregates) {
  SIRIUS_RETURN_NOT_OK(
      CheckColumnRange(group_by, child->output_schema, "Aggregate.keys"));
  Schema out;
  for (int c : group_by) out.AddField(child->output_schema.field(c));
  for (const auto& a : aggregates) {
    DataType in = format::Int64();
    if (a.func != AggFunc::kCountStar) {
      SIRIUS_RETURN_NOT_OK(
          CheckColumnRange({a.arg_column}, child->output_schema, "Aggregate.arg"));
      in = child->output_schema.field(a.arg_column).type;
    }
    out.AddField({a.name, AggResultType(a.func, in)});
  }
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kAggregate;
  node->group_by = std::move(group_by);
  node->aggregates = std::move(aggregates);
  node->output_schema = std::move(out);
  node->children = {std::move(child)};
  return node;
}

Result<PlanPtr> MakeSort(PlanPtr child, std::vector<SortKey> keys) {
  for (const auto& k : keys) {
    SIRIUS_RETURN_NOT_OK(CheckColumnRange({k.column}, child->output_schema, "Sort"));
  }
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kSort;
  node->sort_keys = std::move(keys);
  node->output_schema = child->output_schema;
  node->children = {std::move(child)};
  return node;
}

Result<PlanPtr> MakeLimit(PlanPtr child, int64_t limit, int64_t offset) {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kLimit;
  node->limit = limit;
  node->offset = offset;
  node->output_schema = child->output_schema;
  node->children = {std::move(child)};
  return node;
}

Result<PlanPtr> MakeDistinct(PlanPtr child) {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kDistinct;
  node->output_schema = child->output_schema;
  node->children = {std::move(child)};
  return node;
}

Result<PlanPtr> MakeExchange(PlanPtr child, ExchangeKind kind,
                             std::vector<int> partition_keys) {
  SIRIUS_RETURN_NOT_OK(
      CheckColumnRange(partition_keys, child->output_schema, "Exchange"));
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kExchange;
  node->exchange = kind;
  node->partition_keys = std::move(partition_keys);
  node->output_schema = child->output_schema;
  node->children = {std::move(child)};
  return node;
}

PlanPtr ClonePlan(const PlanPtr& p) {
  if (p == nullptr) return nullptr;
  auto node = std::make_shared<PlanNode>(*p);
  for (auto& c : node->children) c = ClonePlan(c);
  if (node->predicate != nullptr) node->predicate = node->predicate->Clone();
  if (node->residual != nullptr) node->residual = node->residual->Clone();
  for (auto& e : node->projections) e = e->Clone();
  return node;
}

}  // namespace sirius::plan
