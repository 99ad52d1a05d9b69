#include "host/database.h"

#include "common/logging.h"

namespace sirius::host {

Database::Database(Options options) : options_(std::move(options)) {}

Result<plan::PlanPtr> Database::Optimize(const plan::PlanPtr& plan) const {
  opt::OptimizerOptions opt_options;
  opt_options.reorder_joins = options_.engine.reorder_joins;
  return opt::Optimize(plan, catalog_, opt_options);
}

Result<plan::PlanPtr> Database::PlanSql(const std::string& sql) {
  SIRIUS_ASSIGN_OR_RETURN(plan::PlanPtr bound, sql::SqlToPlan(sql, catalog_));
  return Optimize(bound);
}

Result<std::string> Database::ExportSubstrait(const std::string& sql) {
  SIRIUS_ASSIGN_OR_RETURN(plan::PlanPtr plan, PlanSql(sql));
  return plan::SerializePlan(plan);
}

Result<std::string> Database::Explain(const std::string& sql) {
  SIRIUS_ASSIGN_OR_RETURN(plan::PlanPtr plan, PlanSql(sql));
  return plan->ToString();
}

Result<QueryResult> Database::ExecutePlanCpu(const plan::PlanPtr& plan) {
  QueryResult result;
  result.optimized_plan = plan;
  result.timeline.Charge(sim::OpCategory::kOther,
                         options_.engine.fixed_query_overhead_s);
  gdf::Context ctx;
  ctx.mr = mem::DefaultResource();
  ctx.sim.device = options_.device;
  ctx.sim.engine = options_.engine;
  ctx.sim.timeline = &result.timeline;
  ctx.sim.data_scale = options_.data_scale;
  auto resolver = [this](const std::string& name) {
    return catalog_.GetTable(name);
  };
  SIRIUS_ASSIGN_OR_RETURN(result.table, ExecutePlan(plan, resolver, ctx));
  return result;
}

Result<QueryResult> Database::Query(const std::string& sql) {
  SIRIUS_ASSIGN_OR_RETURN(plan::PlanPtr plan, PlanSql(sql));
  return ExecutePlanRouted(plan);
}

Result<QueryResult> Database::ExecutePlanRouted(const plan::PlanPtr& plan) {
  if (accelerator_ != nullptr) {
    std::string wire = plan::SerializePlan(plan);
    auto accelerated = accelerator_->ExecuteSubstrait(wire);
    if (accelerated.ok()) {
      QueryResult result = std::move(accelerated).ValueOrDie();
      result.optimized_plan = plan;
      result.accelerated = true;
      return result;
    }
    // Graceful fallback to the host CPU engine (paper §3.2.2).
    SIRIUS_LOG(Info) << "accelerator '" << accelerator_->name()
                     << "' declined plan (" << accelerated.status().ToString()
                     << "); falling back to CPU";
    SIRIUS_ASSIGN_OR_RETURN(QueryResult result, ExecutePlanCpu(plan));
    result.fell_back = true;
    return result;
  }
  return ExecutePlanCpu(plan);
}

}  // namespace sirius::host
