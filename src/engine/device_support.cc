#include "engine/device_support.h"

namespace sirius::engine {

namespace {

Status CheckExpr(const expr::Expr& e) {
  if (e.kind == expr::ExprKind::kUdf) {
    return Status::UnsupportedOnDevice("UDF '" + e.udf_name +
                                       "' not supported on device");
  }
  for (const auto& c : e.children) SIRIUS_RETURN_NOT_OK(CheckExpr(*c));
  return Status::OK();
}

}  // namespace

Status CheckDeviceSupport(const plan::PlanNode& node) {
  for (const auto& c : node.children) {
    SIRIUS_RETURN_NOT_OK(CheckDeviceSupport(*c));
  }
  switch (node.kind) {
    case plan::PlanKind::kFilter:
      return CheckExpr(*node.predicate);
    case plan::PlanKind::kProject:
      for (const auto& e : node.projections) SIRIUS_RETURN_NOT_OK(CheckExpr(*e));
      return Status::OK();
    case plan::PlanKind::kJoin:
      if (node.residual != nullptr) return CheckExpr(*node.residual);
      return Status::OK();
    default:
      return Status::OK();
  }
}

}  // namespace sirius::engine
