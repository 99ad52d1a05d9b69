#include "engine/capabilities.h"

namespace sirius::engine {

namespace {

Status CheckExpr(const Capabilities& caps, const expr::Expr& e) {
  if (!caps.udf && e.kind == expr::ExprKind::kUdf) {
    return Status::UnsupportedOnDevice("UDF '" + e.udf_name +
                                       "' not supported on device");
  }
  if (!caps.like && e.kind == expr::ExprKind::kFunction &&
      (e.fop == expr::FuncOp::kLike || e.fop == expr::FuncOp::kNotLike)) {
    return Status::UnsupportedOnDevice("LIKE not supported on device");
  }
  if (!caps.strings && e.type.is_string()) {
    return Status::UnsupportedOnDevice("string expressions not supported on device");
  }
  for (const auto& c : e.children) {
    SIRIUS_RETURN_NOT_OK(CheckExpr(caps, *c));
  }
  return Status::OK();
}

}  // namespace

Status Capabilities::Check(const plan::PlanNode& node) const {
  for (const auto& c : node.children) {
    SIRIUS_RETURN_NOT_OK(Check(*c));
  }
  if (!strings) {
    for (const auto& f : node.output_schema.fields()) {
      if (f.type.is_string()) {
        return Status::UnsupportedOnDevice("string columns not supported on device");
      }
    }
  }
  switch (node.kind) {
    case plan::PlanKind::kFilter:
      return CheckExpr(*this, *node.predicate);
    case plan::PlanKind::kProject:
      for (const auto& e : node.projections) {
        SIRIUS_RETURN_NOT_OK(CheckExpr(*this, *e));
      }
      return Status::OK();
    case plan::PlanKind::kJoin:
      if (node.residual != nullptr) return CheckExpr(*this, *node.residual);
      return Status::OK();
    case plan::PlanKind::kAggregate:
      for (const auto& a : node.aggregates) {
        if (!avg && a.func == plan::AggFunc::kAvg) {
          return Status::UnsupportedOnDevice("avg not supported on device");
        }
      }
      return Status::OK();
    default:
      return Status::OK();
  }
}

}  // namespace sirius::engine
