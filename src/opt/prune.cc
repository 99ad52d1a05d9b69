// Column pruning: narrows scans and intermediate schemas to the columns
// actually referenced upstream (projection pushdown).

#include <algorithm>
#include <functional>
#include <set>

#include "opt/optimizer.h"

namespace sirius::opt {

using expr::ColIdx;
using expr::Expr;
using expr::ExprPtr;
using plan::PlanKind;
using plan::PlanNode;
using plan::PlanPtr;

namespace {

/// The expr::RemapColumns mapping through `old_to_new`; every referenced
/// column must survive pruning.
std::function<int(int)> Through(const std::vector<int>& old_to_new) {
  return [&old_to_new](int i) {
    SIRIUS_CHECK(i >= 0 && static_cast<size_t>(i) < old_to_new.size());
    const int mapped = old_to_new[i];
    SIRIUS_CHECK(mapped >= 0);
    return mapped;
  };
}

void CollectExprColumns(const ExprPtr& e, std::set<int>* out) {
  if (e == nullptr) return;
  std::vector<int> cols;
  e->CollectColumns(&cols);
  out->insert(cols.begin(), cols.end());
}

/// Prunes `node` so it produces (at least) the columns in `needed`.
/// Fills `old_to_new` (size = original width; -1 for dropped columns).
Result<PlanPtr> Prune(const PlanPtr& node, const std::set<int>& needed,
                      std::vector<int>* old_to_new) {
  const size_t width = node->output_schema.num_fields();
  auto identity_map = [&]() {
    old_to_new->assign(width, 0);
    for (size_t i = 0; i < width; ++i) (*old_to_new)[i] = static_cast<int>(i);
  };

  switch (node->kind) {
    case PlanKind::kTableScan: {
      std::vector<int> keep_cols;
      old_to_new->assign(width, -1);
      for (size_t i = 0; i < width; ++i) {
        if (needed.count(static_cast<int>(i))) {
          (*old_to_new)[i] = static_cast<int>(keep_cols.size());
          keep_cols.push_back(node->scan_columns[i]);
        }
      }
      if (keep_cols.empty()) {  // keep one column so the row count survives
        keep_cols.push_back(node->scan_columns[0]);
        (*old_to_new)[0] = 0;
      }
      auto scan = std::make_shared<PlanNode>(*node);
      scan->scan_columns = keep_cols;
      format::Schema out;
      for (size_t i = 0; i < width; ++i) {
        if ((*old_to_new)[i] >= 0) out.AddField(node->output_schema.field(i));
      }
      scan->output_schema = std::move(out);
      return scan;
    }

    case PlanKind::kFilter: {
      std::set<int> child_needed = needed;
      CollectExprColumns(node->predicate, &child_needed);
      std::vector<int> child_map;
      SIRIUS_ASSIGN_OR_RETURN(PlanPtr child,
                              Prune(node->children[0], child_needed, &child_map));
      ExprPtr pred = node->predicate->Clone();
      expr::RemapColumns(pred.get(), Through(child_map));
      *old_to_new = child_map;  // filter passes its child's schema through
      return plan::MakeFilter(child, std::move(pred));
    }

    case PlanKind::kProject: {
      std::set<int> child_needed;
      std::vector<int> kept;
      old_to_new->assign(width, -1);
      for (size_t i = 0; i < width; ++i) {
        if (needed.count(static_cast<int>(i))) {
          (*old_to_new)[i] = static_cast<int>(kept.size());
          kept.push_back(static_cast<int>(i));
          CollectExprColumns(node->projections[i], &child_needed);
        }
      }
      if (kept.empty() && !node->projections.empty()) {
        kept.push_back(0);
        (*old_to_new)[0] = 0;
        CollectExprColumns(node->projections[0], &child_needed);
      }
      std::vector<int> child_map;
      SIRIUS_ASSIGN_OR_RETURN(PlanPtr child,
                              Prune(node->children[0], child_needed, &child_map));
      std::vector<ExprPtr> exprs;
      std::vector<std::string> names;
      for (int i : kept) {
        ExprPtr e = node->projections[i]->Clone();
        expr::RemapColumns(e.get(), Through(child_map));
        exprs.push_back(std::move(e));
        names.push_back(node->projection_names[i]);
      }
      return plan::MakeProject(child, std::move(exprs), std::move(names));
    }

    case PlanKind::kJoin: {
      const size_t lw = node->children[0]->output_schema.num_fields();
      const bool emits_right = node->join_type == plan::JoinType::kInner ||
                               node->join_type == plan::JoinType::kLeft ||
                               node->join_type == plan::JoinType::kCross ||
                               node->join_type == plan::JoinType::kAsof;
      std::set<int> lneed, rneed;
      for (int g : needed) {
        if (g < static_cast<int>(lw)) {
          lneed.insert(g);
        } else {
          rneed.insert(g - static_cast<int>(lw));
        }
      }
      for (int k : node->left_keys) lneed.insert(k);
      for (int k : node->right_keys) rneed.insert(k);
      if (node->join_type == plan::JoinType::kAsof) {
        lneed.insert(node->asof_left_on);
        rneed.insert(node->asof_right_on);
      }
      if (node->residual != nullptr) {
        std::set<int> rescols;
        CollectExprColumns(node->residual, &rescols);
        for (int g : rescols) {
          if (g < static_cast<int>(lw)) {
            lneed.insert(g);
          } else {
            rneed.insert(g - static_cast<int>(lw));
          }
        }
      }
      std::vector<int> lmap, rmap;
      SIRIUS_ASSIGN_OR_RETURN(PlanPtr left, Prune(node->children[0], lneed, &lmap));
      SIRIUS_ASSIGN_OR_RETURN(PlanPtr right, Prune(node->children[1], rneed, &rmap));
      std::vector<int> lkeys, rkeys;
      for (size_t k = 0; k < node->left_keys.size(); ++k) {
        lkeys.push_back(lmap[node->left_keys[k]]);
        rkeys.push_back(rmap[node->right_keys[k]]);
      }
      ExprPtr residual;
      if (node->residual != nullptr) {
        const size_t new_lw = left->output_schema.num_fields();
        std::vector<int> combined(lw + node->children[1]->output_schema.num_fields(),
                                  -1);
        for (size_t i = 0; i < lmap.size(); ++i) combined[i] = lmap[i];
        for (size_t i = 0; i < rmap.size(); ++i) {
          combined[lw + i] =
              rmap[i] < 0 ? -1 : rmap[i] + static_cast<int>(new_lw);
        }
        residual = node->residual->Clone();
        expr::RemapColumns(residual.get(), Through(combined));
      }
      PlanPtr join;
      if (node->join_type == plan::JoinType::kAsof) {
        SIRIUS_ASSIGN_OR_RETURN(
            join, plan::MakeAsofJoin(left, right, lkeys, rkeys,
                                     lmap[node->asof_left_on],
                                     rmap[node->asof_right_on]));
      } else {
        SIRIUS_ASSIGN_OR_RETURN(
            join, plan::MakeJoin(left, right, node->join_type, lkeys, rkeys,
                                 std::move(residual)));
      }
      const size_t new_lw = left->output_schema.num_fields();
      old_to_new->assign(width, -1);
      for (size_t i = 0; i < lmap.size(); ++i) (*old_to_new)[i] = lmap[i];
      if (emits_right) {
        for (size_t i = 0; i < rmap.size(); ++i) {
          (*old_to_new)[lw + i] =
              rmap[i] < 0 ? -1 : rmap[i] + static_cast<int>(new_lw);
        }
      }
      return join;
    }

    case PlanKind::kAggregate: {
      // Group keys always survive (they define the grouping); unused
      // aggregates are dropped.
      const size_t num_keys = node->group_by.size();
      std::set<int> child_needed;
      for (int k : node->group_by) child_needed.insert(k);
      std::vector<int> kept_aggs;
      for (size_t a = 0; a < node->aggregates.size(); ++a) {
        if (needed.count(static_cast<int>(num_keys + a))) {
          kept_aggs.push_back(static_cast<int>(a));
          if (node->aggregates[a].arg_column >= 0) {
            child_needed.insert(node->aggregates[a].arg_column);
          }
        }
      }
      if (kept_aggs.empty() && !node->aggregates.empty() && num_keys == 0) {
        // Global aggregate with nothing needed: keep one (row count shape).
        kept_aggs.push_back(0);
        if (node->aggregates[0].arg_column >= 0) {
          child_needed.insert(node->aggregates[0].arg_column);
        }
      }
      std::vector<int> child_map;
      SIRIUS_ASSIGN_OR_RETURN(PlanPtr child,
                              Prune(node->children[0], child_needed, &child_map));
      std::vector<int> group_by;
      for (int k : node->group_by) group_by.push_back(child_map[k]);
      std::vector<plan::AggItem> aggs;
      for (int a : kept_aggs) {
        plan::AggItem item = node->aggregates[a];
        if (item.arg_column >= 0) item.arg_column = child_map[item.arg_column];
        aggs.push_back(std::move(item));
      }
      old_to_new->assign(width, -1);
      for (size_t k = 0; k < num_keys; ++k) (*old_to_new)[k] = static_cast<int>(k);
      for (size_t j = 0; j < kept_aggs.size(); ++j) {
        (*old_to_new)[num_keys + kept_aggs[j]] = static_cast<int>(num_keys + j);
      }
      return plan::MakeAggregate(child, std::move(group_by), std::move(aggs));
    }

    case PlanKind::kSort: {
      std::set<int> child_needed = needed;
      for (const auto& k : node->sort_keys) child_needed.insert(k.column);
      std::vector<int> child_map;
      SIRIUS_ASSIGN_OR_RETURN(PlanPtr child,
                              Prune(node->children[0], child_needed, &child_map));
      std::vector<plan::SortKey> keys;
      for (const auto& k : node->sort_keys) {
        keys.push_back({child_map[k.column], k.descending});
      }
      *old_to_new = child_map;
      return plan::MakeSort(child, std::move(keys));
    }

    case PlanKind::kLimit: {
      std::vector<int> child_map;
      SIRIUS_ASSIGN_OR_RETURN(PlanPtr child,
                              Prune(node->children[0], needed, &child_map));
      *old_to_new = child_map;
      return plan::MakeLimit(child, node->limit, node->offset);
    }

    case PlanKind::kDistinct: {
      // Distinct deduplicates whole rows: every column is semantically
      // load-bearing, so nothing below it may be dropped.
      std::set<int> all;
      for (size_t i = 0; i < node->children[0]->output_schema.num_fields(); ++i) {
        all.insert(static_cast<int>(i));
      }
      std::vector<int> child_map;
      SIRIUS_ASSIGN_OR_RETURN(PlanPtr child,
                              Prune(node->children[0], all, &child_map));
      identity_map();
      return plan::MakeDistinct(child);
    }

    case PlanKind::kExchange: {
      std::set<int> child_needed = needed;
      for (int k : node->partition_keys) child_needed.insert(k);
      std::vector<int> child_map;
      SIRIUS_ASSIGN_OR_RETURN(PlanPtr child,
                              Prune(node->children[0], child_needed, &child_map));
      std::vector<int> keys;
      for (int k : node->partition_keys) keys.push_back(child_map[k]);
      *old_to_new = child_map;
      return plan::MakeExchange(child, node->exchange, std::move(keys));
    }
  }
  return Status::Internal("prune: unhandled node");
}

}  // namespace

Result<PlanPtr> PruneColumns(const PlanPtr& plan) {
  std::set<int> all;
  for (size_t i = 0; i < plan->output_schema.num_fields(); ++i) {
    all.insert(static_cast<int>(i));
  }
  std::vector<int> map;
  SIRIUS_ASSIGN_OR_RETURN(PlanPtr pruned, Prune(plan, all, &map));
  // Restore the exact original schema (order + names) if anything moved.
  bool identity = pruned->output_schema.Equals(plan->output_schema);
  if (identity) return pruned;
  std::vector<ExprPtr> proj;
  std::vector<std::string> names;
  for (size_t i = 0; i < plan->output_schema.num_fields(); ++i) {
    SIRIUS_CHECK(map[i] >= 0);
    proj.push_back(ColIdx(map[i], plan->output_schema.field(i).type));
    names.push_back(plan->output_schema.field(i).name);
  }
  return plan::MakeProject(pruned, std::move(proj), std::move(names));
}

}  // namespace sirius::opt
