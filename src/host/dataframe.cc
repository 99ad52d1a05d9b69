#include "host/dataframe.h"

#include "plan/substrait.h"

namespace sirius::host {

using plan::PlanPtr;

Result<DataFrame> DataFrame::Scan(Database* db, const std::string& table) {
  if (db == nullptr) return Status::Invalid("DataFrame::Scan: null database");
  SIRIUS_ASSIGN_OR_RETURN(format::Schema schema,
                          db->catalog().GetTableSchema(table));
  SIRIUS_ASSIGN_OR_RETURN(PlanPtr scan, plan::MakeScan(table, schema, {}));
  return DataFrame(db, std::move(scan));
}

Result<int> DataFrame::ColumnIndex(const std::string& name) const {
  int idx = plan_->output_schema.IndexOf(name);
  if (idx < 0) {
    return Status::BindError("DataFrame: column '" + name +
                             "' not found in schema [" +
                             plan_->output_schema.ToString() + "]");
  }
  return idx;
}

Result<DataFrame> DataFrame::Filter(expr::ExprPtr predicate) const {
  SIRIUS_ASSIGN_OR_RETURN(PlanPtr out,
                          plan::MakeFilter(plan_, std::move(predicate)));
  return DataFrame(db_, std::move(out));
}

Result<DataFrame> DataFrame::Select(
    std::vector<std::pair<std::string, expr::ExprPtr>> named_exprs) const {
  std::vector<expr::ExprPtr> exprs;
  std::vector<std::string> names;
  for (auto& [name, e] : named_exprs) {
    names.push_back(name);
    exprs.push_back(std::move(e));
  }
  SIRIUS_ASSIGN_OR_RETURN(
      PlanPtr out, plan::MakeProject(plan_, std::move(exprs), std::move(names)));
  return DataFrame(db_, std::move(out));
}

Result<DataFrame> DataFrame::Join(const DataFrame& right,
                                  const std::vector<std::string>& left_keys,
                                  const std::vector<std::string>& right_keys,
                                  plan::JoinType type) const {
  if (db_ != right.db_) {
    return Status::Invalid("DataFrame::Join: frames from different databases");
  }
  if (left_keys.size() != right_keys.size()) {
    return Status::Invalid("DataFrame::Join: key count mismatch");
  }
  std::vector<int> lk, rk;
  for (const auto& k : left_keys) {
    SIRIUS_ASSIGN_OR_RETURN(int i, ColumnIndex(k));
    lk.push_back(i);
  }
  for (const auto& k : right_keys) {
    SIRIUS_ASSIGN_OR_RETURN(int i, right.ColumnIndex(k));
    rk.push_back(i);
  }
  SIRIUS_ASSIGN_OR_RETURN(
      PlanPtr out, plan::MakeJoin(plan_, right.plan_, type, lk, rk));
  return DataFrame(db_, std::move(out));
}

Result<DataFrame> DataFrame::AsofJoin(
    const DataFrame& right, const std::string& left_on,
    const std::string& right_on, const std::vector<std::string>& by_left,
    const std::vector<std::string>& by_right) const {
  std::vector<int> bl, br;
  for (const auto& k : by_left) {
    SIRIUS_ASSIGN_OR_RETURN(int i, ColumnIndex(k));
    bl.push_back(i);
  }
  for (const auto& k : by_right) {
    SIRIUS_ASSIGN_OR_RETURN(int i, right.ColumnIndex(k));
    br.push_back(i);
  }
  SIRIUS_ASSIGN_OR_RETURN(int lo, ColumnIndex(left_on));
  SIRIUS_ASSIGN_OR_RETURN(int ro, right.ColumnIndex(right_on));
  SIRIUS_ASSIGN_OR_RETURN(
      PlanPtr out, plan::MakeAsofJoin(plan_, right.plan_, bl, br, lo, ro));
  return DataFrame(db_, std::move(out));
}

Result<DataFrame> DataFrame::Aggregate(const std::vector<std::string>& group_by,
                                       const std::vector<AggSpec>& aggs) const {
  std::vector<int> keys;
  for (const auto& g : group_by) {
    SIRIUS_ASSIGN_OR_RETURN(int i, ColumnIndex(g));
    keys.push_back(i);
  }
  std::vector<plan::AggItem> items;
  for (const auto& a : aggs) {
    plan::AggItem item;
    item.func = a.func;
    item.name = a.as;
    if (a.func != plan::AggFunc::kCountStar) {
      SIRIUS_ASSIGN_OR_RETURN(item.arg_column, ColumnIndex(a.column));
    }
    items.push_back(std::move(item));
  }
  SIRIUS_ASSIGN_OR_RETURN(PlanPtr out,
                          plan::MakeAggregate(plan_, keys, std::move(items)));
  return DataFrame(db_, std::move(out));
}

Result<DataFrame> DataFrame::Sort(
    const std::vector<std::pair<std::string, bool>>& keys) const {
  std::vector<plan::SortKey> sort_keys;
  for (const auto& [name, desc] : keys) {
    SIRIUS_ASSIGN_OR_RETURN(int i, ColumnIndex(name));
    sort_keys.push_back({i, desc});
  }
  SIRIUS_ASSIGN_OR_RETURN(PlanPtr out,
                          plan::MakeSort(plan_, std::move(sort_keys)));
  return DataFrame(db_, std::move(out));
}

Result<DataFrame> DataFrame::Limit(int64_t n) const {
  SIRIUS_ASSIGN_OR_RETURN(PlanPtr out, plan::MakeLimit(plan_, n));
  return DataFrame(db_, std::move(out));
}

Result<DataFrame> DataFrame::Distinct() const {
  SIRIUS_ASSIGN_OR_RETURN(PlanPtr out, plan::MakeDistinct(plan_));
  return DataFrame(db_, std::move(out));
}

Result<QueryResult> DataFrame::Collect() const {
  SIRIUS_ASSIGN_OR_RETURN(PlanPtr optimized, db_->Optimize(plan_));
  return db_->ExecutePlanRouted(optimized);
}

Result<std::string> DataFrame::Explain() const {
  SIRIUS_ASSIGN_OR_RETURN(PlanPtr optimized, db_->Optimize(plan_));
  return optimized->ToString();
}

Result<std::string> DataFrame::ToSubstrait() const {
  SIRIUS_ASSIGN_OR_RETURN(PlanPtr optimized, db_->Optimize(plan_));
  return plan::SerializePlan(optimized);
}

}  // namespace sirius::host
