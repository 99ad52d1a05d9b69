// Logical/physical plan IR — the repo's Substrait equivalent (paper §2.2,
// §3.1): host databases emit this representation, Sirius consumes it.
//
// Plans are *bound*: expressions reference child output columns by index,
// and every node carries its output schema. The serialized form
// (plan/substrait.h) is what crosses the host-DB -> Sirius boundary.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "expr/expr.h"
#include "format/table.h"

namespace sirius::plan {

enum class PlanKind : uint8_t {
  kTableScan,
  kFilter,
  kProject,
  kJoin,
  kAggregate,
  kSort,
  kLimit,
  kDistinct,
  kExchange,   ///< distributed data movement (§3.2.4)
};

enum class JoinType : uint8_t { kInner, kLeft, kSemi, kAnti, kCross, kAsof };

enum class AggFunc : uint8_t {
  kSum,
  kMin,
  kMax,
  kCount,
  kCountStar,
  kAvg,
  kCountDistinct,
};

/// Exchange patterns supported by the Sirius exchange service layer.
enum class ExchangeKind : uint8_t { kShuffle, kBroadcast, kGather, kMulticast };

const char* PlanKindName(PlanKind k);
const char* JoinTypeName(JoinType t);
const char* AggFuncName(AggFunc f);
const char* ExchangeKindName(ExchangeKind k);

/// Output type of aggregate `f` over an argument of type `in`: SUM keeps
/// FLOAT64 and DECIMAL and widens the rest to INT64, MIN/MAX keep `in`, AVG
/// is FLOAT64, and the counts are INT64.
format::DataType AggResultType(AggFunc f, const format::DataType& in);

/// \brief One aggregate computed by an Aggregate node.
struct AggItem {
  AggFunc func = AggFunc::kCountStar;
  /// Child output column holding the (pre-projected) argument; -1 for
  /// count(*).
  int arg_column = -1;
  /// Output field name.
  std::string name;
};

/// \brief One ORDER BY key.
struct SortKey {
  int column = 0;  ///< child output column
  bool descending = false;
};

struct PlanNode;
using PlanPtr = std::shared_ptr<PlanNode>;

/// \brief A node of the bound plan tree.
struct PlanNode {
  PlanKind kind = PlanKind::kTableScan;
  std::vector<PlanPtr> children;
  /// Schema of this node's output rows.
  format::Schema output_schema;

  // kTableScan
  std::string table_name;
  /// Base-table columns read, in output order (projection pushdown).
  std::vector<int> scan_columns;

  // kFilter: predicate bound to child schema.
  expr::ExprPtr predicate;

  // kProject
  std::vector<expr::ExprPtr> projections;
  std::vector<std::string> projection_names;

  // kJoin
  JoinType join_type = JoinType::kInner;
  std::vector<int> left_keys;   ///< columns of children[0]
  std::vector<int> right_keys;  ///< columns of children[1]
  /// Extra non-equi condition over (left ++ right) schema; may be null.
  expr::ExprPtr residual;
  /// kAsof: ordering columns (left/right child schemas). Each left row takes
  /// the latest right row with asof_right_on <= asof_left_on within the
  /// equality-key group (left-outer semantics).
  int asof_left_on = -1;
  int asof_right_on = -1;

  // kAggregate
  std::vector<int> group_by;  ///< child columns
  std::vector<AggItem> aggregates;

  // kSort
  std::vector<SortKey> sort_keys;

  // kLimit
  int64_t limit = -1;
  int64_t offset = 0;

  // kExchange
  ExchangeKind exchange = ExchangeKind::kShuffle;
  std::vector<int> partition_keys;

  /// Estimated output cardinality (filled by the optimizer; <0 = unknown).
  double estimated_rows = -1;

  /// Pretty tree rendering (EXPLAIN).
  std::string ToString() const;

  /// Structural checks: child counts, column indices in range, bound
  /// expressions, schema consistency. Recursive.
  Status Validate() const;
};

/// \name Node builders. Each computes the node's output schema.
/// @{
Result<PlanPtr> MakeScan(std::string table_name, const format::Schema& table_schema,
                         std::vector<int> columns);
Result<PlanPtr> MakeFilter(PlanPtr child, expr::ExprPtr predicate);
Result<PlanPtr> MakeProject(PlanPtr child, std::vector<expr::ExprPtr> exprs,
                            std::vector<std::string> names);
Result<PlanPtr> MakeJoin(PlanPtr left, PlanPtr right, JoinType type,
                         std::vector<int> left_keys, std::vector<int> right_keys,
                         expr::ExprPtr residual = nullptr);
/// ASOF join (§3.4): `by` equality keys may be empty; `left_on`/`right_on`
/// are the ordering columns.
Result<PlanPtr> MakeAsofJoin(PlanPtr left, PlanPtr right,
                             std::vector<int> by_left, std::vector<int> by_right,
                             int left_on, int right_on);
Result<PlanPtr> MakeAggregate(PlanPtr child, std::vector<int> group_by,
                              std::vector<AggItem> aggregates);
Result<PlanPtr> MakeSort(PlanPtr child, std::vector<SortKey> keys);
Result<PlanPtr> MakeLimit(PlanPtr child, int64_t limit, int64_t offset = 0);
Result<PlanPtr> MakeDistinct(PlanPtr child);
Result<PlanPtr> MakeExchange(PlanPtr child, ExchangeKind kind,
                             std::vector<int> partition_keys);
/// @}

/// Deep copy of a plan tree.
PlanPtr ClonePlan(const PlanPtr& p);

}  // namespace sirius::plan
