#include "opt/stats.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>
#include <utility>

namespace sirius::opt {

using expr::BinaryOp;
using expr::Expr;
using expr::ExprKind;

double EstimateSelectivity(const Expr& pred) {
  switch (pred.kind) {
    case ExprKind::kBinary:
      switch (pred.bop) {
        case BinaryOp::kAnd:
          return EstimateSelectivity(*pred.children[0]) *
                 EstimateSelectivity(*pred.children[1]);
        case BinaryOp::kOr: {
          double a = EstimateSelectivity(*pred.children[0]);
          double b = EstimateSelectivity(*pred.children[1]);
          return std::min(1.0, a + b - a * b);
        }
        case BinaryOp::kEq:
          return 0.05;
        case BinaryOp::kNe:
          return 0.9;
        default:
          return 0.3;  // range predicates
      }
    case ExprKind::kUnary:
      if (pred.uop == expr::UnaryOp::kNot) {
        return std::max(0.05, 1.0 - EstimateSelectivity(*pred.children[0]));
      }
      return 0.5;
    case ExprKind::kFunction:
      if (pred.fop == expr::FuncOp::kLike) return 0.15;
      if (pred.fop == expr::FuncOp::kNotLike) return 0.85;
      return 0.5;
    case ExprKind::kInList:
      return std::min(1.0, 0.05 * static_cast<double>(pred.in_list.size()));
    default:
      return 0.5;
  }
}

namespace {

/// One derivation's estimates, memoized: rows per node and distinct counts
/// per (node, column). Both are pure functions of the subtree, so a memoized
/// value is exactly what a fresh derivation returns, and each subtree is
/// derived once however many parents and distinct-count descents reach it.
class Estimator {
 public:
  explicit Estimator(const StatsProvider& stats) : stats_(stats) {}

  double Rows(const plan::PlanNode& node) {
    if (auto it = rows_.find(&node); it != rows_.end()) return it->second;
    const double rows = DeriveRows(node);
    rows_.emplace(&node, rows);
    return rows;
  }

  double Distinct(const plan::PlanNode& node, int col) {
    const std::pair<const plan::PlanNode*, int> key(&node, col);
    if (auto it = distinct_.find(key); it != distinct_.end()) return it->second;
    const double ndv = DeriveDistinct(node, col);
    distinct_.emplace(key, ndv);
    return ndv;
  }

 private:
  double DeriveRows(const plan::PlanNode& node);
  double DeriveDistinct(const plan::PlanNode& node, int col);

  const StatsProvider& stats_;
  std::unordered_map<const plan::PlanNode*, double> rows_;
  std::map<std::pair<const plan::PlanNode*, int>, double> distinct_;
};

double Estimator::DeriveRows(const plan::PlanNode& node) {
  using plan::PlanKind;
  switch (node.kind) {
    case PlanKind::kTableScan: {
      double r = stats_.TableRows(node.table_name);
      return r < 0 ? 1000.0 : r;
    }
    case PlanKind::kFilter: {
      double child = Rows(*node.children[0]);
      return std::max(1.0, child * EstimateSelectivity(*node.predicate));
    }
    case PlanKind::kProject:
    case PlanKind::kExchange:
      return Rows(*node.children[0]);
    case PlanKind::kJoin: {
      double l = Rows(*node.children[0]);
      double r = Rows(*node.children[1]);
      switch (node.join_type) {
        case plan::JoinType::kCross:
          return l * r;
        case plan::JoinType::kSemi:
          return std::max(1.0, l * 0.5);
        case plan::JoinType::kAnti:
          return std::max(1.0, l * 0.5);
        case plan::JoinType::kLeft:
          return std::max(l, l * r / std::max(1.0, std::max(l, r)));
        case plan::JoinType::kAsof:
          return l;  // exactly one (or zero) match per left row
        case plan::JoinType::kInner: {
          if (node.left_keys.empty()) return l * r;
          // Textbook NDV formula: |L ⋈ R| = |L||R| / max_k(ndv) — the
          // denominator is the largest per-key distinct count.
          double den = 1.0;
          for (size_t k = 0; k < node.left_keys.size(); ++k) {
            double nl = Distinct(*node.children[0], node.left_keys[k]);
            double nr = Distinct(*node.children[1], node.right_keys[k]);
            den = std::max(den, std::max(nl, nr));
          }
          double sel = 1.0;
          if (node.residual != nullptr) sel = EstimateSelectivity(*node.residual);
          return std::max(1.0, l * r / den * sel);
        }
      }
      return l * r;
    }
    case PlanKind::kAggregate: {
      double child = Rows(*node.children[0]);
      if (node.group_by.empty()) return 1.0;
      // sqrt heuristic, capped by input size.
      return std::max(1.0, std::min(child, 30.0 * std::sqrt(child)));
    }
    case PlanKind::kSort:
      return Rows(*node.children[0]);
    case PlanKind::kDistinct:
      return std::max(1.0, Rows(*node.children[0]) * 0.5);
    case PlanKind::kLimit: {
      double child = Rows(*node.children[0]);
      return node.limit >= 0 ? std::min(child, static_cast<double>(node.limit))
                             : child;
    }
  }
  return 1000.0;
}

double Estimator::DeriveDistinct(const plan::PlanNode& node, int col) {
  using plan::PlanKind;
  const double rows = Rows(node);
  double ndv = rows;
  switch (node.kind) {
    case PlanKind::kTableScan: {
      double d = stats_.ColumnDistinct(node.table_name,
                                       node.output_schema.field(col).name);
      ndv = d < 0 ? rows : d;
      break;
    }
    case PlanKind::kFilter:
    case PlanKind::kSort:
    case PlanKind::kLimit:
    case PlanKind::kDistinct:
    case PlanKind::kExchange:
      ndv = Distinct(*node.children[0], col);
      break;
    case PlanKind::kProject: {
      const auto& e = node.projections[col];
      if (e->kind == expr::ExprKind::kColumnRef) {
        ndv = Distinct(*node.children[0], e->column_index);
      }
      break;
    }
    case PlanKind::kJoin: {
      const int lw =
          static_cast<int>(node.children[0]->output_schema.num_fields());
      ndv = col < lw ? Distinct(*node.children[0], col)
                     : Distinct(*node.children[1], col - lw);
      break;
    }
    case PlanKind::kAggregate: {
      if (col < static_cast<int>(node.group_by.size())) {
        ndv = Distinct(*node.children[0], node.group_by[col]);
      }
      break;
    }
  }
  return std::max(1.0, std::min(ndv, rows));
}

void Annotate(plan::PlanNode* node, Estimator* estimator) {
  for (const auto& c : node->children) Annotate(c.get(), estimator);
  node->estimated_rows = estimator->Rows(*node);
}

}  // namespace

double EstimateRows(const plan::PlanNode& node, const StatsProvider& stats) {
  return Estimator(stats).Rows(node);
}

double EstimateDistinct(const plan::PlanNode& node, int col,
                        const StatsProvider& stats) {
  return Estimator(stats).Distinct(node, col);
}

void AnnotateEstimates(plan::PlanNode* node, const StatsProvider& stats) {
  Estimator estimator(stats);
  Annotate(node, &estimator);
}

}  // namespace sirius::opt
