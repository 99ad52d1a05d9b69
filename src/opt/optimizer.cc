#include "opt/optimizer.h"

#include <algorithm>
#include <functional>
#include <set>

namespace sirius::opt {

using expr::ColIdx;
using expr::Expr;
using expr::ExprKind;
using expr::ExprPtr;
using plan::PlanKind;
using plan::PlanNode;
using plan::PlanPtr;

namespace {

// ---------------------------------------------------------------------------
// Expression index utilities
// ---------------------------------------------------------------------------

/// expr::RemapColumns, checking that every index `fn` produces is valid.
void RemapChecked(Expr* e, const std::function<int(int)>& fn) {
  expr::RemapColumns(e, [&fn](int i) {
    const int mapped = fn(i);
    SIRIUS_CHECK(mapped >= 0);
    return mapped;
  });
}

ExprPtr CloneShifted(const Expr& e, int delta) {
  ExprPtr out = e.Clone();
  RemapChecked(out.get(), [delta](int i) { return i + delta; });
  return out;
}

void SplitConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kBinary && e->bop == expr::BinaryOp::kAnd) {
    SplitConjuncts(e->children[0], out);
    SplitConjuncts(e->children[1], out);
    return;
  }
  out->push_back(e);
}

// ---------------------------------------------------------------------------
// Region flattening: Filter / inner / cross join trees
// ---------------------------------------------------------------------------

bool IsRegionInternal(const PlanNode& n) {
  if (n.kind == PlanKind::kFilter) return true;
  if (n.kind == PlanKind::kJoin &&
      (n.join_type == plan::JoinType::kInner ||
       n.join_type == plan::JoinType::kCross) &&
      n.residual == nullptr) {
    return true;
  }
  // Inner joins with residuals also flatten: the residual becomes a conjunct.
  if (n.kind == PlanKind::kJoin && n.join_type == plan::JoinType::kInner) {
    return true;
  }
  return false;
}

struct FlatRel {
  PlanPtr plan;
  size_t offset = 0;  ///< first column position in the flattened schema
  size_t width = 0;
  double est = 0;
  std::vector<ExprPtr> filters;  ///< pushed single-relation conjuncts (local)
};

size_t Flatten(const PlanPtr& node, size_t base, std::vector<FlatRel>* rels,
               std::vector<ExprPtr>* conjuncts) {
  if (node->kind == PlanKind::kFilter) {
    size_t w = Flatten(node->children[0], base, rels, conjuncts);
    std::vector<ExprPtr> parts;
    SplitConjuncts(node->predicate, &parts);
    for (const auto& p : parts) {
      conjuncts->push_back(CloneShifted(*p, static_cast<int>(base)));
    }
    return w;
  }
  if (IsRegionInternal(*node)) {  // inner or cross join
    size_t lw = Flatten(node->children[0], base, rels, conjuncts);
    size_t rw = Flatten(node->children[1], base + lw, rels, conjuncts);
    const auto& l_schema = node->children[0]->output_schema;
    const auto& r_schema = node->children[1]->output_schema;
    for (size_t k = 0; k < node->left_keys.size(); ++k) {
      int li = node->left_keys[k];
      int ri = node->right_keys[k];
      conjuncts->push_back(expr::Eq(
          ColIdx(static_cast<int>(base) + li, l_schema.field(li).type),
          ColIdx(static_cast<int>(base + lw) + ri, r_schema.field(ri).type)));
    }
    if (node->residual != nullptr) {
      std::vector<ExprPtr> parts;
      SplitConjuncts(node->residual, &parts);
      for (const auto& p : parts) {
        conjuncts->push_back(CloneShifted(*p, static_cast<int>(base)));
      }
    }
    return lw + rw;
  }
  FlatRel rel;
  rel.plan = node;
  rel.offset = base;
  rel.width = node->output_schema.num_fields();
  rels->push_back(std::move(rel));
  return rels->back().width;
}

void SplitDisjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e->kind == ExprKind::kBinary && e->bop == expr::BinaryOp::kOr) {
    SplitDisjuncts(e->children[0], out);
    SplitDisjuncts(e->children[1], out);
    return;
  }
  out->push_back(e);
}

/// For OR-of-AND conjuncts (TPC-H Q19 shape), appends the factors common to
/// every OR branch as additional conjuncts. The original OR stays in place
/// (redundant but correct), while the extracted equality factors become join
/// edges instead of forcing a cross product.
void ExtractOrCommonFactors(std::vector<ExprPtr>* conjuncts) {
  std::vector<ExprPtr> extracted;
  for (const auto& c : *conjuncts) {
    if (c->kind != ExprKind::kBinary || c->bop != expr::BinaryOp::kOr) continue;
    std::vector<ExprPtr> branches;
    SplitDisjuncts(c, &branches);
    if (branches.size() < 2) continue;
    std::vector<ExprPtr> first;
    SplitConjuncts(branches[0], &first);
    for (const auto& candidate : first) {
      const std::string rendered = candidate->ToString();
      bool in_all = true;
      for (size_t b = 1; b < branches.size() && in_all; ++b) {
        std::vector<ExprPtr> parts;
        SplitConjuncts(branches[b], &parts);
        bool found = false;
        for (const auto& p : parts) found |= p->ToString() == rendered;
        in_all = found;
      }
      if (in_all) extracted.push_back(candidate->Clone());
    }
  }
  for (auto& e : extracted) conjuncts->push_back(std::move(e));
}

int RelOfColumn(const std::vector<FlatRel>& rels, int global) {
  for (size_t i = 0; i < rels.size(); ++i) {
    if (static_cast<size_t>(global) >= rels[i].offset &&
        static_cast<size_t>(global) < rels[i].offset + rels[i].width) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

/// An equi-join edge between two relations.
struct JoinEdge {
  int rel_a, col_a;  ///< local column
  int rel_b, col_b;
  bool used = false;
};

// ---------------------------------------------------------------------------
// Region re-planning
// ---------------------------------------------------------------------------

class RegionPlanner {
 public:
  RegionPlanner(const StatsProvider& stats, const OptimizerOptions& options,
                std::function<Result<PlanPtr>(const PlanPtr&)> optimize_child)
      : stats_(stats), options_(options), optimize_child_(std::move(optimize_child)) {}

  Result<PlanPtr> Plan(const PlanPtr& region_root) {
    std::vector<FlatRel> rels;
    std::vector<ExprPtr> conjuncts;
    Flatten(region_root, 0, &rels, &conjuncts);
    ExtractOrCommonFactors(&conjuncts);

    // Optimize each base relation's subtree first.
    for (auto& r : rels) {
      SIRIUS_ASSIGN_OR_RETURN(r.plan, optimize_child_(r.plan));
    }

    // Classify conjuncts.
    std::vector<JoinEdge> edges;
    struct PostConjunct {
      ExprPtr pred;
      std::set<int> rels;
    };
    std::vector<PostConjunct> post;
    for (const auto& c : conjuncts) {
      std::vector<int> cols;
      c->CollectColumns(&cols);
      std::set<int> touched;
      for (int g : cols) touched.insert(RelOfColumn(rels, g));
      if (touched.size() <= 1 && options_.push_filters) {
        int rid = touched.empty() ? 0 : *touched.begin();
        ExprPtr local = c->Clone();
        int off = static_cast<int>(rels[rid].offset);
        RemapChecked(local.get(), [off](int i) { return i - off; });
        rels[rid].filters.push_back(std::move(local));
        continue;
      }
      if (touched.size() == 2 && c->kind == ExprKind::kBinary &&
          c->bop == expr::BinaryOp::kEq &&
          c->children[0]->kind == ExprKind::kColumnRef &&
          c->children[1]->kind == ExprKind::kColumnRef) {
        int ga = c->children[0]->column_index;
        int gb = c->children[1]->column_index;
        int ra = RelOfColumn(rels, ga);
        int rb = RelOfColumn(rels, gb);
        edges.push_back({ra, ga - static_cast<int>(rels[ra].offset), rb,
                         gb - static_cast<int>(rels[rb].offset), false});
        continue;
      }
      post.push_back({c->Clone(), touched});
    }

    // Apply pushed filters; estimate.
    for (auto& r : rels) {
      if (!r.filters.empty()) {
        ExprPtr pred = expr::ConjoinAll(r.filters);
        SIRIUS_ASSIGN_OR_RETURN(r.plan, plan::MakeFilter(r.plan, pred));
      }
      r.est = EstimateRows(*r.plan, stats_);
    }

    // Join order.
    std::vector<int> order(rels.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
    if (options_.reorder_joins && rels.size() > 2) {
      order = GreedyOrder(rels, edges);
    }

    // Build the tree.
    PlanPtr current = rels[order[0]].plan;
    double cur_est = rels[order[0]].est;
    std::vector<int> position(rels.size(), -1);  // rel -> column offset
    position[order[0]] = 0;
    std::set<int> in_set{order[0]};

    auto remap_post = [&](const ExprPtr& pred) {
      ExprPtr out = pred->Clone();
      RemapChecked(out.get(), [&](int g) {
        int rid = RelOfColumn(rels, g);
        return position[rid] + (g - static_cast<int>(rels[rid].offset));
      });
      return out;
    };

    for (size_t step = 1; step < order.size(); ++step) {
      int rid = order[step];
      const FlatRel& r = rels[rid];
      // Keys between the current set and r.
      std::vector<int> lkeys, rkeys;
      for (auto& e : edges) {
        if (e.used) continue;
        int in_rel = -1, new_col = -1, in_col = -1;
        if (e.rel_a == rid && in_set.count(e.rel_b)) {
          in_rel = e.rel_b;
          new_col = e.col_a;
          in_col = e.col_b;
        } else if (e.rel_b == rid && in_set.count(e.rel_a)) {
          in_rel = e.rel_a;
          new_col = e.col_b;
          in_col = e.col_a;
        } else {
          continue;
        }
        lkeys.push_back(position[in_rel] + in_col);
        rkeys.push_back(new_col);
        e.used = true;
      }
      const size_t cur_width = current->output_schema.num_fields();
      // Build side is the right join input; put the smaller side there.
      PlanPtr next;
      if (lkeys.empty()) {
        SIRIUS_ASSIGN_OR_RETURN(
            next, plan::MakeJoin(current, r.plan, plan::JoinType::kCross, {}, {}));
        position[rid] = static_cast<int>(cur_width);
      } else if (r.est <= cur_est || !options_.reorder_joins) {
        // Probe with the accumulated (larger) side, build on r.
        SIRIUS_ASSIGN_OR_RETURN(
            next, plan::MakeJoin(current, r.plan, plan::JoinType::kInner, lkeys,
                                 rkeys));
        position[rid] = static_cast<int>(cur_width);
      } else {
        // r is larger: make it the probe side, build on the accumulated set.
        SIRIUS_ASSIGN_OR_RETURN(
            next, plan::MakeJoin(r.plan, current, plan::JoinType::kInner, rkeys,
                                 lkeys));
        const int r_width = static_cast<int>(r.width);
        for (int& p : position) {
          if (p >= 0) p += r_width;
        }
        position[rid] = 0;
      }
      current = std::move(next);
      in_set.insert(rid);
      cur_est = EstimateRows(*current, stats_);

      // Apply post conjuncts that just became evaluable.
      std::vector<ExprPtr> ready;
      for (auto& pc : post) {
        if (pc.pred == nullptr) continue;
        bool ok = true;
        for (int need : pc.rels) ok &= in_set.count(need) > 0;
        if (ok) {
          ready.push_back(remap_post(pc.pred));
          pc.pred = nullptr;
        }
      }
      if (!ready.empty()) {
        SIRIUS_ASSIGN_OR_RETURN(
            current, plan::MakeFilter(current, expr::ConjoinAll(ready)));
        cur_est = EstimateRows(*current, stats_);
      }
    }

    // Single-relation regions may still have post conjuncts (e.g. filters
    // over one relation when pushdown is disabled).
    {
      std::vector<ExprPtr> ready;
      for (auto& pc : post) {
        if (pc.pred != nullptr) {
          ready.push_back(remap_post(pc.pred));
          pc.pred = nullptr;
        }
      }
      if (!ready.empty()) {
        SIRIUS_ASSIGN_OR_RETURN(
            current, plan::MakeFilter(current, expr::ConjoinAll(ready)));
      }
    }
    // Unused edges (both relations already joined through other edges):
    // apply as filters.
    {
      std::vector<ExprPtr> ready;
      for (const auto& e : edges) {
        if (e.used) continue;
        int ga = static_cast<int>(rels[e.rel_a].offset) + e.col_a;
        int gb = static_cast<int>(rels[e.rel_b].offset) + e.col_b;
        ExprPtr eq = expr::Eq(
            ColIdx(ga, rels[e.rel_a].plan->output_schema.field(e.col_a).type),
            ColIdx(gb, rels[e.rel_b].plan->output_schema.field(e.col_b).type));
        ready.push_back(remap_post(eq));
      }
      if (!ready.empty()) {
        SIRIUS_ASSIGN_OR_RETURN(
            current, plan::MakeFilter(current, expr::ConjoinAll(ready)));
      }
    }

    // Restore the original column order.
    bool identity = true;
    std::vector<ExprPtr> proj;
    std::vector<std::string> names;
    const auto& schema = region_root->output_schema;
    for (size_t g = 0; g < schema.num_fields(); ++g) {
      int rid = RelOfColumn(rels, static_cast<int>(g));
      int pos = position[rid] + (static_cast<int>(g) -
                                 static_cast<int>(rels[rid].offset));
      if (pos != static_cast<int>(g)) identity = false;
      proj.push_back(ColIdx(pos, schema.field(g).type));
      names.push_back(schema.field(g).name);
    }
    if (identity && current->output_schema.num_fields() == schema.num_fields()) {
      return current;
    }
    return plan::MakeProject(current, std::move(proj), std::move(names));
  }

 private:
  /// Multi-start greedy: simulates a greedy expansion from every possible
  /// first relation and keeps the order with the smallest total intermediate
  /// cardinality. Join sizes use the NDV formula |L||R| / max_key(ndv).
  std::vector<int> GreedyOrder(const std::vector<FlatRel>& rels,
                               const std::vector<JoinEdge>& edges) {
    const size_t n = rels.size();
    // Per-edge denominator: the larger distinct count of its two key sides.
    std::vector<double> edge_den(edges.size(), 1.0);
    for (size_t e = 0; e < edges.size(); ++e) {
      double na = EstimateDistinct(*rels[edges[e].rel_a].plan, edges[e].col_a,
                                   stats_);
      double nb = EstimateDistinct(*rels[edges[e].rel_b].plan, edges[e].col_b,
                                   stats_);
      edge_den[e] = std::max(1.0, std::max(na, nb));
    }

    std::vector<int> best_order;
    double best_total = 0;
    for (size_t start = 0; start < n; ++start) {
      std::vector<bool> chosen(n, false);
      std::vector<int> order{static_cast<int>(start)};
      chosen[start] = true;
      double cur = rels[start].est;
      double total = cur;
      while (order.size() < n) {
        int best = -1;
        double best_cost = 0;
        bool best_connected = false;
        for (size_t i = 0; i < n; ++i) {
          if (chosen[i]) continue;
          double den = 0;  // 0 == disconnected
          for (size_t e = 0; e < edges.size(); ++e) {
            const auto& edge = edges[e];
            if ((edge.rel_a == static_cast<int>(i) && chosen[edge.rel_b]) ||
                (edge.rel_b == static_cast<int>(i) && chosen[edge.rel_a])) {
              den = std::max(den, edge_den[e]);
            }
          }
          const bool connected = den > 0;
          double cost = connected ? std::max(1.0, cur * rels[i].est / den)
                                  : cur * rels[i].est;
          if (best < 0 || (connected && !best_connected) ||
              (connected == best_connected && cost < best_cost)) {
            best = static_cast<int>(i);
            best_cost = cost;
            best_connected = connected;
          }
        }
        order.push_back(best);
        chosen[best] = true;
        cur = best_cost;
        total += cur;
      }
      if (best_order.empty() || total < best_total) {
        best_order = order;
        best_total = total;
      }
    }
    return best_order;
  }

  const StatsProvider& stats_;
  const OptimizerOptions& options_;
  std::function<Result<PlanPtr>(const PlanPtr&)> optimize_child_;
};

Result<PlanPtr> OptimizeNode(const PlanPtr& node, const StatsProvider& stats,
                             const OptimizerOptions& options) {
  if (node->kind == PlanKind::kFilter || IsRegionInternal(*node)) {
    RegionPlanner planner(stats, options, [&](const PlanPtr& child) {
      return OptimizeNode(child, stats, options);
    });
    return planner.Plan(node);
  }
  auto copy = std::make_shared<PlanNode>(*node);
  for (auto& c : copy->children) {
    SIRIUS_ASSIGN_OR_RETURN(c, OptimizeNode(c, stats, options));
  }
  return copy;
}

}  // namespace

Result<PlanPtr> Optimize(const PlanPtr& plan, const StatsProvider& stats,
                         const OptimizerOptions& options) {
  SIRIUS_ASSIGN_OR_RETURN(PlanPtr optimized, OptimizeNode(plan, stats, options));
  if (options.prune_columns) {
    SIRIUS_ASSIGN_OR_RETURN(optimized, PruneColumns(optimized));
  }
  AnnotateEstimates(optimized.get(), stats);
  SIRIUS_RETURN_NOT_OK(optimized->Validate());
  if (!optimized->output_schema.Equals(plan->output_schema)) {
    return Status::Internal("optimizer changed the output schema");
  }
  return optimized;
}

}  // namespace sirius::opt
