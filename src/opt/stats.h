// Statistics and cardinality estimation for the cost-based optimizer.

#pragma once

#include <map>
#include <string>

#include "plan/plan.h"

namespace sirius::opt {

/// \brief Table cardinalities, supplied by the host database's catalog.
class StatsProvider {
 public:
  virtual ~StatsProvider() = default;
  /// Row count of a base table; <0 when unknown.
  virtual double TableRows(const std::string& name) const = 0;
  /// Distinct values in a base-table column; <0 when unknown.
  virtual double ColumnDistinct(const std::string& table,
                                const std::string& column) const {
    (void)table;
    (void)column;
    return -1;
  }
};

/// Fixed map-based provider (tests, and the DuckX catalog adapter).
class MapStats : public StatsProvider {
 public:
  explicit MapStats(std::map<std::string, double> rows) : rows_(std::move(rows)) {}
  double TableRows(const std::string& name) const override {
    auto it = rows_.find(name);
    return it == rows_.end() ? -1 : it->second;
  }

 private:
  std::map<std::string, double> rows_;
};

/// Heuristic selectivity of a bound predicate (textbook constants: equality
/// 0.05, range 0.3, LIKE 0.15, conjunction multiplies, disjunction adds).
double EstimateSelectivity(const expr::Expr& pred);

/// Bottom-up output-cardinality estimate of a plan node.
double EstimateRows(const plan::PlanNode& node, const StatsProvider& stats);

/// Distinct-value estimate for output column `col` of `node` (NDV),
/// capped at the node's row estimate.
double EstimateDistinct(const plan::PlanNode& node, int col,
                        const StatsProvider& stats);

/// Annotates `estimated_rows` through the tree (for EXPLAIN and ordering).
/// One walk derives each subtree's rows and distinct counts once, and each
/// node gets exactly what EstimateRows returns for it.
void AnnotateEstimates(plan::PlanNode* node, const StatsProvider& stats);

}  // namespace sirius::opt
