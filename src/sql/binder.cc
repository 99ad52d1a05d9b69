#include "sql/binder.h"

#include <map>
#include <set>

#include "expr/expr.h"
#include "expr/udf.h"
#include "sql/parser.h"

namespace sirius::sql {

using expr::ColIdx;
using expr::ExprPtr;
using format::DataType;
using format::Scalar;
using format::TypeId;
using plan::AggFunc;
using plan::AggItem;
using plan::PlanPtr;

namespace {

// ---------------------------------------------------------------------------
// Relations and name resolution
// ---------------------------------------------------------------------------

/// A column's resolvable names: optional qualifier (table alias) + name.
struct NameEntry {
  std::string qualifier;
  std::string name;
};

/// A bound relation: plan + name table parallel to the output schema.
struct Rel {
  PlanPtr plan;
  std::vector<NameEntry> names;

  size_t width() const { return plan->output_schema.num_fields(); }
  DataType type_of(int i) const { return plan->output_schema.field(i).type; }
};

/// Resolves qualifier.name in `rel`. Entries at positions >= prefer_from are
/// preferred (inner scope of a combined outer++inner schema). Returns -1
/// when absent; error on ambiguity within the winning range.
Result<int> ResolveColumn(const Rel& rel, const std::string& qualifier,
                          const std::string& name, size_t prefer_from = 0) {
  auto scan = [&](size_t begin, size_t end) -> Result<int> {
    int found = -1;
    for (size_t i = begin; i < end; ++i) {
      const NameEntry& e = rel.names[i];
      if (e.name != name) continue;
      if (!qualifier.empty() && e.qualifier != qualifier) continue;
      if (found >= 0) {
        return Status::BindError("ambiguous column reference '" +
                                 (qualifier.empty() ? name : qualifier + "." + name) +
                                 "'");
      }
      found = static_cast<int>(i);
    }
    return found;
  };
  if (prefer_from > 0 && prefer_from < rel.names.size()) {
    SIRIUS_ASSIGN_OR_RETURN(int idx, scan(prefer_from, rel.names.size()));
    if (idx >= 0) return idx;
    return scan(0, prefer_from);
  }
  return scan(0, rel.names.size());
}

/// Aggregates discovered while converting the SELECT/HAVING/ORDER BY of an
/// aggregate query.
struct AggCollector {
  const Rel* pre_rel = nullptr;
  std::vector<ExprPtr> group_exprs;          // bound against pre_rel
  std::vector<std::string> group_rendered;
  struct Entry {
    AggFunc func;
    ExprPtr arg;  // null for count(*)
    std::string rendered;
    DataType out_type;
  };
  std::vector<Entry> entries;

  int FindGroup(const std::string& rendered) const {
    for (size_t i = 0; i < group_rendered.size(); ++i) {
      if (group_rendered[i] == rendered) return static_cast<int>(i);
    }
    return -1;
  }
  int AddAgg(AggFunc func, ExprPtr arg, const std::string& rendered,
             DataType out_type) {
    for (size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].rendered == rendered) return static_cast<int>(i);
    }
    entries.push_back({func, std::move(arg), rendered, out_type});
    return static_cast<int>(entries.size()) - 1;
  }
};

bool IsAggName(const std::string& n) {
  return n == "sum" || n == "avg" || n == "min" || n == "max" || n == "count";
}

bool ContainsAggregate(const AstExpr& e) {
  if (e.kind == AstKind::kFuncCall && IsAggName(e.name)) return true;
  for (const auto& a : e.args) {
    if (a != nullptr && ContainsAggregate(*a)) return true;
  }
  return false;
}

bool ContainsSubquery(const AstExpr& e) {
  if (e.subquery != nullptr) return true;
  for (const auto& a : e.args) {
    if (a != nullptr && ContainsSubquery(*a)) return true;
  }
  return false;
}

void SplitConjuncts(const AstExprPtr& e, std::vector<AstExprPtr>* out) {
  if (e == nullptr) return;
  if (e->kind == AstKind::kBinary && e->name == "and") {
    SplitConjuncts(e->args[0], out);
    SplitConjuncts(e->args[1], out);
    return;
  }
  out->push_back(e);
}

class Binder;

/// Conversion context for AST -> expr::Expr.
struct ConvCtx {
  Binder* binder = nullptr;
  const Rel* rel = nullptr;
  size_t prefer_from = 0;  ///< resolution preference boundary in `rel`
  AggCollector* agg = nullptr;
  /// Pointer-identified scalar-subquery node to replace with `replacement`.
  const AstExpr* replace_node = nullptr;
  ExprPtr replacement;
  /// When set, uncorrelated scalar subqueries are bound and queued here; the
  /// produced reference is ColIdx(base_width + queue position).
  std::vector<PlanPtr>* pending_subs = nullptr;
  size_t base_width = 0;

  ConvCtx Plain() const {
    ConvCtx c;
    c.binder = binder;
    c.rel = rel;
    c.prefer_from = prefer_from;
    c.replace_node = replace_node;
    c.replacement = replacement;
    return c;
  }
};

// ---------------------------------------------------------------------------
// Binder
// ---------------------------------------------------------------------------

class Binder {
 public:
  explicit Binder(const CatalogInterface& catalog) : catalog_(catalog) {}

  Result<Rel> BindStatement(const SelectStmt& stmt) {
    size_t pushed = 0;
    for (const auto& cte : stmt.ctes) {
      ctes_.emplace_back(cte.name, cte.query);
      ++pushed;
    }
    auto result = BindSelectBody(stmt);
    ctes_.resize(ctes_.size() - pushed);
    return result;
  }

  Result<ExprPtr> Convert(const AstExprPtr& ast, ConvCtx& ctx);

 private:
  friend struct ConvCtx;

  // ---------- FROM ----------

  Result<Rel> BindTable(const std::string& name, const std::string& alias) {
    // CTEs shadow base tables; latest definition wins.
    for (auto it = ctes_.rbegin(); it != ctes_.rend(); ++it) {
      if (it->first == name) {
        SIRIUS_ASSIGN_OR_RETURN(Rel rel, BindStatement(*it->second));
        for (auto& e : rel.names) e.qualifier = alias;
        return rel;
      }
    }
    SIRIUS_ASSIGN_OR_RETURN(format::Schema schema, catalog_.GetTableSchema(name));
    SIRIUS_ASSIGN_OR_RETURN(PlanPtr scan, plan::MakeScan(name, schema, {}));
    Rel rel;
    rel.plan = std::move(scan);
    for (const auto& f : schema.fields()) rel.names.push_back({alias, f.name});
    return rel;
  }

  Result<Rel> BindFromItem(const FromItemPtr& f) {
    switch (f->kind) {
      case FromKind::kTable:
        return BindTable(f->table_name, f->alias);
      case FromKind::kSubquery: {
        SIRIUS_ASSIGN_OR_RETURN(Rel rel, BindStatement(*f->subquery));
        for (auto& e : rel.names) e.qualifier = f->alias;
        return rel;
      }
      case FromKind::kJoin: {
        SIRIUS_ASSIGN_OR_RETURN(Rel left, BindFromItem(f->left));
        SIRIUS_ASSIGN_OR_RETURN(Rel right, BindFromItem(f->right));
        if (f->asof) {
          return BindAsofJoin(std::move(left), std::move(right), f->on);
        }
        return BindExplicitJoin(std::move(left), std::move(right), f->left_outer,
                                f->on);
      }
    }
    return Status::Internal("bad from item");
  }

  /// LEFT/INNER JOIN ... ON: equality conjuncts between sides become join
  /// keys, everything else stays in the join's residual condition (required
  /// for LEFT JOIN semantics, e.g. TPC-H Q13's NOT LIKE in the ON clause).
  Result<Rel> BindExplicitJoin(Rel left, Rel right, bool left_outer,
                               const AstExprPtr& on) {
    std::vector<AstExprPtr> conjuncts;
    SplitConjuncts(on, &conjuncts);

    Rel combined;
    combined.names = left.names;
    combined.names.insert(combined.names.end(), right.names.begin(),
                          right.names.end());

    std::vector<int> lkeys, rkeys;
    std::vector<ExprPtr> residuals;
    for (const auto& c : conjuncts) {
      if (c->kind == AstKind::kBinary && c->name == "=") {
        int li = -1, ri = -1;
        if (TryResolveBareColumn(*c->args[0], left, &li) &&
            TryResolveBareColumn(*c->args[1], right, &ri)) {
          lkeys.push_back(li);
          rkeys.push_back(ri);
          continue;
        }
        li = ri = -1;
        if (TryResolveBareColumn(*c->args[0], right, &ri) &&
            TryResolveBareColumn(*c->args[1], left, &li)) {
          lkeys.push_back(li);
          rkeys.push_back(ri);
          continue;
        }
      }
      // Residual: bind against combined schema. Needs the combined plan to
      // exist for Convert's type lookups, so build a throwaway schema rel.
      ConvCtx ctx;
      ctx.binder = this;
      Rel tmp = MakeCombinedRel(left, right);
      ctx.rel = &tmp;
      ctx.prefer_from = left.width();
      SIRIUS_ASSIGN_OR_RETURN(ExprPtr e, Convert(c, ctx));
      residuals.push_back(std::move(e));
    }
    if (lkeys.empty()) {
      return Status::NotImplemented("JOIN ... ON without equality condition");
    }
    ExprPtr residual = expr::ConjoinAll(residuals);
    SIRIUS_ASSIGN_OR_RETURN(
        PlanPtr join,
        plan::MakeJoin(left.plan, right.plan,
                       left_outer ? plan::JoinType::kLeft : plan::JoinType::kInner,
                       std::move(lkeys), std::move(rkeys), std::move(residual)));
    Rel rel;
    rel.plan = std::move(join);
    rel.names = std::move(combined.names);
    return rel;
  }

  /// ASOF JOIN ... ON: equality conjuncts become "by" keys; exactly one
  /// inequality (l.t >= r.t, or r.t <= l.t) names the ordering columns.
  Result<Rel> BindAsofJoin(Rel left, Rel right, const AstExprPtr& on) {
    std::vector<AstExprPtr> conjuncts;
    SplitConjuncts(on, &conjuncts);

    std::vector<int> by_left, by_right;
    int left_on = -1, right_on = -1;
    for (const auto& c : conjuncts) {
      if (c->kind != AstKind::kBinary) {
        return Status::NotImplemented("ASOF JOIN ON supports only =, >=, <=");
      }
      int li = -1, ri = -1;
      const bool fwd = TryResolveBareColumn(*c->args[0], left, &li) &&
                       TryResolveBareColumn(*c->args[1], right, &ri);
      const bool rev = !fwd && TryResolveBareColumn(*c->args[0], right, &ri) &&
                       TryResolveBareColumn(*c->args[1], left, &li);
      if (!fwd && !rev) {
        return Status::NotImplemented(
            "ASOF JOIN ON conditions must compare one column per side");
      }
      if (c->name == "=") {
        by_left.push_back(li);
        by_right.push_back(ri);
        continue;
      }
      // Ordering condition: left.t >= right.t in some spelling.
      const bool ge_shape = (fwd && c->name == ">=") || (rev && c->name == "<=");
      if (!ge_shape) {
        return Status::NotImplemented(
            "ASOF JOIN ordering condition must be left >= right");
      }
      if (left_on >= 0) {
        return Status::Invalid("ASOF JOIN: multiple ordering conditions");
      }
      left_on = li;
      right_on = ri;
    }
    if (left_on < 0) {
      return Status::Invalid("ASOF JOIN requires an inequality condition");
    }
    Rel rel;
    rel.names = left.names;
    rel.names.insert(rel.names.end(), right.names.begin(), right.names.end());
    SIRIUS_ASSIGN_OR_RETURN(
        rel.plan, plan::MakeAsofJoin(left.plan, right.plan, by_left, by_right,
                                     left_on, right_on));
    return rel;
  }

  /// A Rel whose plan is a cross join of `left` and `right` (schema purposes
  /// for residual binding; the real join node replaces it).
  Rel MakeCombinedRel(const Rel& left, const Rel& right) {
    Rel rel;
    rel.plan = plan::MakeJoin(left.plan, right.plan, plan::JoinType::kCross, {}, {})
                   .ValueOrDie();
    rel.names = left.names;
    rel.names.insert(rel.names.end(), right.names.begin(), right.names.end());
    return rel;
  }

  bool TryResolveBareColumn(const AstExpr& ast, const Rel& rel, int* index) {
    if (ast.kind != AstKind::kColumn) return false;
    auto res = ResolveColumn(rel, ast.name, ast.text);
    if (!res.ok() || res.ValueOrDie() < 0) return false;
    *index = res.ValueOrDie();
    return true;
  }

  Result<Rel> BindFromList(const std::vector<FromItemPtr>& from) {
    if (from.empty()) {
      return Status::NotImplemented("SELECT without FROM");
    }
    SIRIUS_ASSIGN_OR_RETURN(Rel rel, BindFromItem(from[0]));
    for (size_t i = 1; i < from.size(); ++i) {
      SIRIUS_ASSIGN_OR_RETURN(Rel next, BindFromItem(from[i]));
      SIRIUS_ASSIGN_OR_RETURN(
          PlanPtr join,
          plan::MakeJoin(rel.plan, next.plan, plan::JoinType::kCross, {}, {}));
      rel.plan = std::move(join);
      rel.names.insert(rel.names.end(), next.names.begin(), next.names.end());
    }
    return rel;
  }

  // ---------- WHERE (with decorrelation) ----------

  /// Applies one conjunct to `rel` (filter or subquery rewrite).
  Result<Rel> ApplyConjunct(Rel rel, const AstExprPtr& conjunct,
                            AggCollector* agg_ctx) {
    if (!ContainsSubquery(*conjunct)) {
      ConvCtx ctx;
      ctx.binder = this;
      ctx.rel = &rel;
      ctx.agg = agg_ctx;
      SIRIUS_ASSIGN_OR_RETURN(ExprPtr pred, Convert(conjunct, ctx));
      SIRIUS_ASSIGN_OR_RETURN(rel.plan, plan::MakeFilter(rel.plan, std::move(pred)));
      return rel;
    }
    // EXISTS / NOT EXISTS.
    if (conjunct->kind == AstKind::kExists) {
      return BindExistsJoin(std::move(rel), *conjunct);
    }
    // x [NOT] IN (subquery).
    if (conjunct->kind == AstKind::kInSubquery) {
      return BindInSubqueryJoin(std::move(rel), *conjunct, agg_ctx);
    }
    // Comparison against a scalar subquery.
    if (conjunct->kind == AstKind::kBinary) {
      const AstExpr* sub = nullptr;
      if (conjunct->args[0]->kind == AstKind::kScalarSubquery) {
        sub = conjunct->args[0].get();
      } else if (conjunct->args[1]->kind == AstKind::kScalarSubquery) {
        sub = conjunct->args[1].get();
      }
      if (sub != nullptr) {
        return BindScalarSubqueryCompare(std::move(rel), conjunct, *sub, agg_ctx);
      }
    }
    return Status::NotImplemented("unsupported subquery form: predicate " +
                                  std::to_string(static_cast<int>(conjunct->kind)));
  }

  /// Partitions a correlated subquery's WHERE into inner-only filters,
  /// outer=inner equality key pairs, and residual predicates.
  struct CorrelationSplit {
    Rel inner;                       // filtered inner relation
    std::vector<int> outer_keys;
    std::vector<int> inner_keys;
    ExprPtr residual;                // bound against outer ++ inner
  };

  Result<CorrelationSplit> SplitCorrelated(const Rel& outer, const SelectStmt& sub) {
    SIRIUS_ASSIGN_OR_RETURN(Rel inner, BindFromList(sub.from));
    std::vector<AstExprPtr> conjuncts;
    SplitConjuncts(sub.where, &conjuncts);

    std::vector<AstExprPtr> inner_only;
    std::vector<AstExprPtr> residual_asts;
    CorrelationSplit split;
    for (const auto& c : conjuncts) {
      // Inner-only? (Inner scope shadows outer, per SQL.)
      ConvCtx ictx;
      ictx.binder = this;
      ictx.rel = &inner;
      if (!ContainsSubquery(*c) && Convert(c, ictx).ok()) {
        inner_only.push_back(c);
        continue;
      }
      // outer.col = inner.col?
      if (c->kind == AstKind::kBinary && c->name == "=") {
        int oi = -1, ii = -1;
        if (TryResolveBareColumn(*c->args[0], outer, &oi) &&
            TryResolveBareColumn(*c->args[1], inner, &ii)) {
          split.outer_keys.push_back(oi);
          split.inner_keys.push_back(ii);
          continue;
        }
        oi = ii = -1;
        if (TryResolveBareColumn(*c->args[0], inner, &ii) &&
            TryResolveBareColumn(*c->args[1], outer, &oi)) {
          split.outer_keys.push_back(oi);
          split.inner_keys.push_back(ii);
          continue;
        }
      }
      residual_asts.push_back(c);
    }
    // Apply inner-only conjuncts (may themselves contain nested subqueries).
    for (const auto& c : inner_only) {
      SIRIUS_ASSIGN_OR_RETURN(inner, ApplyConjunct(std::move(inner), c, nullptr));
    }
    // Bind residuals against outer ++ (filtered) inner.
    if (!residual_asts.empty()) {
      Rel combined = MakeCombinedRel(outer, inner);
      std::vector<ExprPtr> residuals;
      for (const auto& c : residual_asts) {
        if (ContainsSubquery(*c)) {
          return Status::NotImplemented("nested subquery in correlated residual");
        }
        ConvCtx ctx;
        ctx.binder = this;
        ctx.rel = &combined;
        ctx.prefer_from = outer.width();
        SIRIUS_ASSIGN_OR_RETURN(ExprPtr e, Convert(c, ctx));
        residuals.push_back(std::move(e));
      }
      split.residual = expr::ConjoinAll(residuals);
    }
    split.inner = std::move(inner);
    return split;
  }

  Result<Rel> BindExistsJoin(Rel rel, const AstExpr& conjunct) {
    SIRIUS_ASSIGN_OR_RETURN(CorrelationSplit split,
                            SplitCorrelated(rel, *conjunct.subquery));
    if (split.outer_keys.empty()) {
      return Status::NotImplemented("EXISTS without equality correlation");
    }
    SIRIUS_ASSIGN_OR_RETURN(
        rel.plan, plan::MakeJoin(rel.plan, split.inner.plan,
                                 conjunct.negated ? plan::JoinType::kAnti
                                                  : plan::JoinType::kSemi,
                                 split.outer_keys, split.inner_keys,
                                 split.residual));
    return rel;  // semi/anti joins preserve the left schema and names
  }

  Result<Rel> BindInSubqueryJoin(Rel rel, const AstExpr& conjunct,
                                 AggCollector* agg_ctx) {
    // TPC-H IN-subqueries are uncorrelated w.r.t. the enclosing scope.
    SIRIUS_ASSIGN_OR_RETURN(Rel sub, BindStatement(*conjunct.subquery));
    if (sub.width() != 1) {
      return Status::BindError("IN subquery must produce one column");
    }
    // The probe value: usually a bare column; otherwise append a projection.
    ConvCtx ctx;
    ctx.binder = this;
    ctx.rel = &rel;
    ctx.agg = agg_ctx;
    SIRIUS_ASSIGN_OR_RETURN(ExprPtr value, Convert(conjunct.args[0], ctx));
    const size_t original_width = rel.width();
    int key_col;
    bool appended = false;
    if (value->kind == expr::ExprKind::kColumnRef) {
      key_col = value->column_index;
    } else {
      SIRIUS_ASSIGN_OR_RETURN(rel, AppendComputedColumn(std::move(rel), value,
                                                        "__in_probe"));
      key_col = static_cast<int>(rel.width()) - 1;
      appended = true;
    }
    SIRIUS_ASSIGN_OR_RETURN(
        rel.plan,
        plan::MakeJoin(rel.plan, sub.plan,
                       conjunct.negated ? plan::JoinType::kAnti
                                        : plan::JoinType::kSemi,
                       {key_col}, {0}, nullptr));
    if (appended) {
      SIRIUS_ASSIGN_OR_RETURN(rel, ProjectToWidth(std::move(rel), original_width));
    }
    return rel;
  }

  Result<Rel> BindScalarSubqueryCompare(Rel rel, const AstExprPtr& conjunct,
                                        const AstExpr& sub, AggCollector* agg_ctx) {
    const size_t original_width = rel.width();
    // Uncorrelated if it binds standalone.
    auto standalone = BindStatement(*sub.subquery);
    if (standalone.ok()) {
      Rel sub_rel = std::move(standalone).ValueOrDie();
      if (sub_rel.width() != 1) {
        return Status::BindError("scalar subquery must produce one column");
      }
      DataType vt = sub_rel.type_of(0);
      SIRIUS_ASSIGN_OR_RETURN(
          rel.plan, plan::MakeJoin(rel.plan, sub_rel.plan, plan::JoinType::kCross,
                                   {}, {}));
      rel.names.push_back({"", "__scalar"});
      ConvCtx ctx;
      ctx.binder = this;
      ctx.rel = &rel;
      ctx.agg = agg_ctx;
      ctx.replace_node = &sub;
      ctx.replacement = ColIdx(static_cast<int>(original_width), vt);
      SIRIUS_ASSIGN_OR_RETURN(ExprPtr pred, Convert(conjunct, ctx));
      SIRIUS_ASSIGN_OR_RETURN(rel.plan, plan::MakeFilter(rel.plan, std::move(pred)));
      return ProjectToWidth(std::move(rel), original_width);
    }

    // Correlated aggregate subquery: group the inner side by its correlation
    // keys, join, filter on the comparison.
    SIRIUS_ASSIGN_OR_RETURN(CorrelationSplit split,
                            SplitCorrelated(rel, *sub.subquery));
    if (split.outer_keys.empty()) {
      return Status::NotImplemented(
          "correlated scalar subquery without equality correlation");
    }
    if (split.residual != nullptr) {
      return Status::NotImplemented(
          "correlated scalar subquery with non-equality correlation");
    }
    if (sub.subquery->items.size() != 1 || sub.subquery->items[0].expr == nullptr) {
      return Status::BindError("scalar subquery must select one expression");
    }
    // Build: Aggregate(inner keys, aggs) -> Project([keys, value]).
    AggCollector collector;
    collector.pre_rel = &split.inner;
    for (int k : split.inner_keys) {
      collector.group_exprs.push_back(ColIdx(k, split.inner.type_of(k)));
      collector.group_rendered.push_back(collector.group_exprs.back()->ToString());
    }
    ConvCtx vctx;
    vctx.binder = this;
    vctx.rel = &split.inner;
    vctx.agg = &collector;
    SIRIUS_ASSIGN_OR_RETURN(ExprPtr value_expr,
                            Convert(sub.subquery->items[0].expr, vctx));
    SIRIUS_ASSIGN_OR_RETURN(Rel agg_rel,
                            BuildAggregate(split.inner, collector));
    // Project to [keys..., value].
    std::vector<ExprPtr> proj;
    std::vector<std::string> names;
    for (size_t k = 0; k < split.inner_keys.size(); ++k) {
      proj.push_back(ColIdx(static_cast<int>(k), agg_rel.type_of(static_cast<int>(k))));
      names.push_back("__k" + std::to_string(k));
    }
    proj.push_back(value_expr);
    names.push_back("__scalar");
    SIRIUS_ASSIGN_OR_RETURN(
        PlanPtr sub_plan, plan::MakeProject(agg_rel.plan, proj, names));

    const size_t num_keys = split.inner_keys.size();
    std::vector<int> sub_keys(num_keys);
    for (size_t k = 0; k < num_keys; ++k) sub_keys[k] = static_cast<int>(k);
    SIRIUS_ASSIGN_OR_RETURN(
        rel.plan, plan::MakeJoin(rel.plan, sub_plan, plan::JoinType::kInner,
                                 split.outer_keys, sub_keys));
    for (size_t k = 0; k < num_keys; ++k) rel.names.push_back({"", "__k"});
    rel.names.push_back({"", "__scalar"});

    DataType vt = rel.type_of(static_cast<int>(original_width + num_keys));
    ConvCtx ctx;
    ctx.binder = this;
    ctx.rel = &rel;
    ctx.agg = agg_ctx;
    ctx.replace_node = &sub;
    ctx.replacement =
        ColIdx(static_cast<int>(original_width + num_keys), vt);
    SIRIUS_ASSIGN_OR_RETURN(ExprPtr pred, Convert(conjunct, ctx));
    SIRIUS_ASSIGN_OR_RETURN(rel.plan, plan::MakeFilter(rel.plan, std::move(pred)));
    return ProjectToWidth(std::move(rel), original_width);
  }

  // ---------- helpers ----------

  Result<Rel> AppendComputedColumn(Rel rel, ExprPtr e, const std::string& name) {
    std::vector<ExprPtr> proj;
    std::vector<std::string> names;
    for (size_t i = 0; i < rel.width(); ++i) {
      proj.push_back(ColIdx(static_cast<int>(i), rel.type_of(static_cast<int>(i))));
      names.push_back(rel.plan->output_schema.field(i).name);
    }
    proj.push_back(std::move(e));
    names.push_back(name);
    SIRIUS_ASSIGN_OR_RETURN(rel.plan,
                            plan::MakeProject(rel.plan, std::move(proj), names));
    rel.names.push_back({"", name});
    return rel;
  }

  Result<Rel> ProjectToWidth(Rel rel, size_t width) {
    std::vector<ExprPtr> proj;
    std::vector<std::string> names;
    for (size_t i = 0; i < width; ++i) {
      proj.push_back(ColIdx(static_cast<int>(i), rel.type_of(static_cast<int>(i))));
      names.push_back(rel.plan->output_schema.field(i).name);
    }
    SIRIUS_ASSIGN_OR_RETURN(rel.plan,
                            plan::MakeProject(rel.plan, std::move(proj), names));
    rel.names.resize(width);
    return rel;
  }

  /// Builds PreProject + Aggregate from a filled collector. Output schema:
  /// [group keys..., aggregates...].
  Result<Rel> BuildAggregate(const Rel& input, const AggCollector& collector) {
    std::vector<ExprPtr> pre;
    std::vector<std::string> pre_names;
    for (size_t k = 0; k < collector.group_exprs.size(); ++k) {
      pre.push_back(collector.group_exprs[k]);
      pre_names.push_back("k" + std::to_string(k));
    }
    std::vector<AggItem> items;
    int arg_pos = static_cast<int>(collector.group_exprs.size());
    for (size_t a = 0; a < collector.entries.size(); ++a) {
      const auto& e = collector.entries[a];
      AggItem item;
      item.func = e.func;
      item.name = "agg" + std::to_string(a);
      if (e.arg != nullptr) {
        pre.push_back(e.arg);
        pre_names.push_back("a" + std::to_string(a));
        item.arg_column = arg_pos++;
      }
      items.push_back(std::move(item));
    }
    if (pre.empty()) {
      // Pure count(*) with no keys: keep a constant column so the input's
      // cardinality survives the projection.
      pre.push_back(expr::LitInt(1));
      pre_names.push_back("__one");
    }
    SIRIUS_ASSIGN_OR_RETURN(PlanPtr pre_plan,
                            plan::MakeProject(input.plan, pre, pre_names));
    std::vector<int> group_cols(collector.group_exprs.size());
    for (size_t k = 0; k < group_cols.size(); ++k) group_cols[k] = static_cast<int>(k);
    SIRIUS_ASSIGN_OR_RETURN(
        PlanPtr agg_plan, plan::MakeAggregate(pre_plan, group_cols, items));
    Rel rel;
    rel.plan = std::move(agg_plan);
    for (size_t i = 0; i < rel.plan->output_schema.num_fields(); ++i) {
      rel.names.push_back({"", rel.plan->output_schema.field(i).name});
    }
    return rel;
  }

  // ---------- SELECT body ----------

  Result<Rel> BindSelectBody(const SelectStmt& stmt) {
    SIRIUS_ASSIGN_OR_RETURN(Rel rel, BindFromList(stmt.from));

    // WHERE: plain conjuncts first (cheap filters), then subquery rewrites.
    std::vector<AstExprPtr> conjuncts;
    SplitConjuncts(stmt.where, &conjuncts);
    for (const auto& c : conjuncts) {
      if (!ContainsSubquery(*c)) {
        SIRIUS_ASSIGN_OR_RETURN(rel, ApplyConjunct(std::move(rel), c, nullptr));
      }
    }
    for (const auto& c : conjuncts) {
      if (ContainsSubquery(*c)) {
        SIRIUS_ASSIGN_OR_RETURN(rel, ApplyConjunct(std::move(rel), c, nullptr));
      }
    }

    // Aggregate detection.
    bool has_agg = !stmt.group_by.empty();
    for (const auto& item : stmt.items) {
      if (item.expr != nullptr && ContainsAggregate(*item.expr)) has_agg = true;
    }
    if (stmt.having != nullptr) has_agg = true;

    std::vector<ExprPtr> select_exprs;
    std::vector<std::string> select_names;
    Rel value_rel;  // the relation final projections are bound against
    AggCollector collector;

    if (has_agg) {
      collector.pre_rel = &rel;
      for (const auto& g : stmt.group_by) {
        ConvCtx gctx;
        gctx.binder = this;
        gctx.rel = &rel;
        SIRIUS_ASSIGN_OR_RETURN(ExprPtr ge, Convert(g, gctx));
        collector.group_rendered.push_back(ge->ToString());
        collector.group_exprs.push_back(std::move(ge));
      }
      // Convert select items (fills the collector).
      ConvCtx sctx;
      sctx.binder = this;
      sctx.rel = &rel;
      sctx.agg = &collector;
      for (size_t i = 0; i < stmt.items.size(); ++i) {
        const auto& item = stmt.items[i];
        if (item.expr == nullptr) {
          return Status::BindError("SELECT * not allowed with GROUP BY");
        }
        SIRIUS_ASSIGN_OR_RETURN(ExprPtr e, Convert(item.expr, sctx));
        select_names.push_back(!item.alias.empty()
                                   ? item.alias
                                   : DeriveName(*item.expr, i));
        select_exprs.push_back(std::move(e));
      }
      // HAVING conjuncts referencing only aggregates/keys convert in the
      // same pass (so new aggregates are registered before the Aggregate
      // node is built). Subquery conjuncts are applied after aggregation.
      std::vector<AstExprPtr> having;
      SplitConjuncts(stmt.having, &having);
      std::vector<ExprPtr> having_plain;
      std::vector<AstExprPtr> having_subs;
      for (const auto& h : having) {
        if (ContainsSubquery(*h)) {
          // Pre-register aggregates appearing outside the subquery.
          having_subs.push_back(h);
          PreRegisterAggs(*h, sctx);
        } else {
          SIRIUS_ASSIGN_OR_RETURN(ExprPtr e, Convert(h, sctx));
          having_plain.push_back(std::move(e));
        }
      }
      // ORDER BY expressions may introduce aggregates too.
      std::vector<ExprPtr> order_exprs(stmt.order_by.size());
      std::vector<int> order_alias_pos(stmt.order_by.size(), -1);
      for (size_t i = 0; i < stmt.order_by.size(); ++i) {
        int pos = FindAliasOrOrdinal(stmt, *stmt.order_by[i].expr);
        if (pos == -2) {
          return Status::BindError("ORDER BY position out of range");
        }
        if (pos >= 0) {
          order_alias_pos[i] = pos;
        } else {
          SIRIUS_ASSIGN_OR_RETURN(order_exprs[i],
                                  Convert(stmt.order_by[i].expr, sctx));
        }
      }

      SIRIUS_ASSIGN_OR_RETURN(value_rel, BuildAggregate(rel, collector));
      for (const auto& h : having_plain) {
        SIRIUS_ASSIGN_OR_RETURN(value_rel.plan,
                                plan::MakeFilter(value_rel.plan, h));
      }
      for (const auto& h : having_subs) {
        ConvCtx hctx;
        hctx.binder = this;
        hctx.rel = &value_rel;
        hctx.agg = &collector;  // already-built aggregates resolve by render
        SIRIUS_ASSIGN_OR_RETURN(value_rel,
                                ApplyConjunct(std::move(value_rel), h, &collector));
      }
      return FinishSelect(stmt, std::move(value_rel), std::move(select_exprs),
                          std::move(select_names), order_exprs, order_alias_pos);
    }

    // Non-aggregate path.
    value_rel = rel;
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      const auto& item = stmt.items[i];
      if (item.expr == nullptr) {  // '*'
        for (size_t c = 0; c < value_rel.width(); ++c) {
          select_exprs.push_back(
              ColIdx(static_cast<int>(c), value_rel.type_of(static_cast<int>(c))));
          select_names.push_back(value_rel.names[c].name);
        }
        continue;
      }
      ConvCtx ctx;
      ctx.binder = this;
      ctx.rel = &value_rel;
      SIRIUS_ASSIGN_OR_RETURN(ExprPtr e, Convert(item.expr, ctx));
      select_names.push_back(!item.alias.empty() ? item.alias
                                                 : DeriveName(*item.expr, i));
      select_exprs.push_back(std::move(e));
    }
    std::vector<ExprPtr> order_exprs(stmt.order_by.size());
    std::vector<int> order_alias_pos(stmt.order_by.size(), -1);
    for (size_t i = 0; i < stmt.order_by.size(); ++i) {
      int pos = FindAliasOrOrdinal(stmt, *stmt.order_by[i].expr);
      if (pos == -2) {
        return Status::BindError("ORDER BY position out of range");
      }
      if (pos >= 0) {
        order_alias_pos[i] = pos;
      } else {
        ConvCtx ctx;
        ctx.binder = this;
        ctx.rel = &value_rel;
        SIRIUS_ASSIGN_OR_RETURN(order_exprs[i], Convert(stmt.order_by[i].expr, ctx));
      }
    }
    return FinishSelect(stmt, std::move(value_rel), std::move(select_exprs),
                        std::move(select_names), order_exprs, order_alias_pos);
  }

  /// Registers aggregates appearing in `e` outside any subquery, so the
  /// Aggregate node includes them before HAVING-subquery rewrites run.
  void PreRegisterAggs(const AstExpr& e, ConvCtx& ctx) {
    if (e.subquery != nullptr) return;
    if (e.kind == AstKind::kFuncCall && IsAggName(e.name)) {
      auto self = std::make_shared<AstExpr>(e);
      (void)Convert(self, ctx);  // registration side effect; errors surface later
      return;
    }
    for (const auto& a : e.args) {
      if (a != nullptr) PreRegisterAggs(*a, ctx);
    }
  }

  /// ORDER BY item as a select alias or 1-based ordinal; -1 if neither.
  int FindAliasOrOrdinal(const SelectStmt& stmt, const AstExpr& e) {
    if (e.kind == AstKind::kColumn && e.name.empty()) {
      for (size_t i = 0; i < stmt.items.size(); ++i) {
        if (stmt.items[i].alias == e.text) return static_cast<int>(i);
      }
    }
    if (e.kind == AstKind::kIntLiteral) {
      if (e.ival >= 1 && e.ival <= static_cast<int64_t>(stmt.items.size())) {
        return static_cast<int>(e.ival) - 1;
      }
      return -2;  // out-of-range ordinal: an error, not an expression
    }
    return -1;
  }

  static std::string DeriveName(const AstExpr& e, size_t pos) {
    if (e.kind == AstKind::kColumn) return e.text;
    return "col" + std::to_string(pos);
  }

  /// Final projection, DISTINCT, ORDER BY (with hidden sort columns), LIMIT.
  Result<Rel> FinishSelect(const SelectStmt& stmt, Rel value_rel,
                           std::vector<ExprPtr> select_exprs,
                           std::vector<std::string> select_names,
                           const std::vector<ExprPtr>& order_exprs,
                           const std::vector<int>& order_alias_pos) {
    const size_t visible = select_exprs.size();
    // Sort keys: alias/ordinal position, matching projection, or hidden.
    std::vector<plan::SortKey> sort_keys(stmt.order_by.size());
    std::vector<ExprPtr> all_exprs = select_exprs;
    std::vector<std::string> all_names = select_names;
    for (size_t i = 0; i < stmt.order_by.size(); ++i) {
      int pos = order_alias_pos[i];
      if (pos < 0) {
        const std::string rendered = order_exprs[i]->ToString();
        for (size_t j = 0; j < select_exprs.size(); ++j) {
          if (select_exprs[j]->ToString() == rendered) {
            pos = static_cast<int>(j);
            break;
          }
        }
        if (pos < 0) {
          pos = static_cast<int>(all_exprs.size());
          all_exprs.push_back(order_exprs[i]);
          all_names.push_back("__sort" + std::to_string(i));
        }
      }
      sort_keys[i] = {pos, stmt.order_by[i].descending};
    }

    Rel rel;
    SIRIUS_ASSIGN_OR_RETURN(
        rel.plan, plan::MakeProject(value_rel.plan, all_exprs, all_names));
    for (const auto& n : all_names) rel.names.push_back({"", n});

    if (stmt.distinct) {
      SIRIUS_ASSIGN_OR_RETURN(rel.plan, plan::MakeDistinct(rel.plan));
    }
    if (!sort_keys.empty()) {
      SIRIUS_ASSIGN_OR_RETURN(rel.plan, plan::MakeSort(rel.plan, sort_keys));
    }
    if (all_exprs.size() != visible) {
      SIRIUS_ASSIGN_OR_RETURN(rel, ProjectToWidth(std::move(rel), visible));
    }
    if (stmt.limit >= 0) {
      SIRIUS_ASSIGN_OR_RETURN(rel.plan, plan::MakeLimit(rel.plan, stmt.limit));
    }
    return rel;
  }

  const CatalogInterface& catalog_;
  std::vector<std::pair<std::string, SelectPtr>> ctes_;
};

}  // namespace

// ---------------------------------------------------------------------------
// AST expression conversion
// ---------------------------------------------------------------------------

namespace {

bool ContainsColumn(const AstExpr& e) {
  if (e.kind == AstKind::kColumn) return true;
  for (const auto& a : e.args) {
    if (a != nullptr && ContainsColumn(*a)) return true;
  }
  return false;
}

/// Folds `date +/- interval` with literal operands.
Result<ExprPtr> FoldDateInterval(const expr::Expr& date_lit, const AstExpr& interval,
                                 bool add) {
  int32_t days = static_cast<int32_t>(date_lit.literal.int_value());
  int64_t n = add ? interval.ival : -interval.ival;
  if (interval.text == "day") {
    return expr::Lit(Scalar::FromDate(days + static_cast<int32_t>(n)));
  }
  int y, m, d;
  format::CivilFromDays(days, &y, &m, &d);
  int64_t months = interval.text == "year" ? n * 12 : n;
  int64_t total = (y * 12 + (m - 1)) + months;
  y = static_cast<int>(total / 12);
  m = static_cast<int>(total % 12) + 1;
  return expr::Lit(Scalar::FromDate(format::DaysFromCivil(y, m, d)));
}

int DecimalScaleOf(const std::string& text) {
  auto dot = text.find('.');
  if (dot == std::string::npos) return 0;
  return static_cast<int>(text.size() - dot - 1);
}

Result<AggFunc> AggFuncOf(const AstExpr& e) {
  if (e.name == "sum") return AggFunc::kSum;
  if (e.name == "avg") return AggFunc::kAvg;
  if (e.name == "min") return AggFunc::kMin;
  if (e.name == "max") return AggFunc::kMax;
  if (e.name == "count") {
    if (!e.args.empty() && e.args[0]->kind == AstKind::kStar) {
      return AggFunc::kCountStar;
    }
    return e.distinct ? AggFunc::kCountDistinct : AggFunc::kCount;
  }
  return Status::BindError("unknown function '" + e.name + "'");
}

}  // namespace

Result<ExprPtr> Binder::Convert(const AstExprPtr& ast, ConvCtx& ctx) {
  const AstExpr& e = *ast;
  switch (e.kind) {
    case AstKind::kColumn: {
      // In aggregate context, bare columns must be group keys.
      if (ctx.agg != nullptr) {
        ConvCtx plain = ctx.Plain();
        plain.rel = ctx.agg->pre_rel;
        SIRIUS_ASSIGN_OR_RETURN(ExprPtr c, Convert(ast, plain));
        int g = ctx.agg->FindGroup(c->ToString());
        if (g < 0) {
          return Status::BindError("column '" + e.text +
                                   "' must appear in GROUP BY");
        }
        return ColIdx(g, c->type);
      }
      SIRIUS_ASSIGN_OR_RETURN(int idx,
                              ResolveColumn(*ctx.rel, e.name, e.text,
                                            ctx.prefer_from));
      if (idx < 0) {
        return Status::BindError(
            "column '" + (e.name.empty() ? e.text : e.name + "." + e.text) +
            "' not found");
      }
      return ColIdx(idx, ctx.rel->type_of(idx));
    }
    case AstKind::kIntLiteral:
      return expr::LitInt(e.ival);
    case AstKind::kDecimalLiteral:
      return expr::LitDecimal(e.text, DecimalScaleOf(e.text));
    case AstKind::kStringLiteral:
      return expr::LitString(e.text);
    case AstKind::kDateLiteral: {
      int32_t days = format::ParseDate(e.text);
      if (days == INT32_MIN) {
        return Status::BindError("bad date literal '" + e.text + "'");
      }
      return expr::Lit(Scalar::FromDate(days));
    }
    case AstKind::kIntervalLiteral:
      return Status::BindError("interval literal outside date arithmetic");
    case AstKind::kStar:
      return Status::BindError("'*' outside count(*)");
    case AstKind::kBinary: {
      // Agg-context subtree matching: a fully-convertible subtree equal to a
      // group-by expression becomes a key reference.
      if (ctx.agg != nullptr && ContainsColumn(e) && !ContainsAggregate(e) &&
          !ContainsSubquery(e)) {
        ConvCtx plain = ctx.Plain();
        plain.rel = ctx.agg->pre_rel;
        auto attempt = Convert(ast, plain);
        if (attempt.ok()) {
          int g = ctx.agg->FindGroup(attempt.ValueOrDie()->ToString());
          if (g >= 0) {
            return ColIdx(g, attempt.ValueOrDie()->type);
          }
          // Not a group key: fall through and recurse so aggregates deeper
          // in the tree (there are none here) or keys inside it match.
        }
      }
      // Date +/- interval folding.
      if ((e.name == "+" || e.name == "-")) {
        const bool right_interval = e.args[1]->kind == AstKind::kIntervalLiteral;
        if (right_interval) {
          SIRIUS_ASSIGN_OR_RETURN(ExprPtr l, Convert(e.args[0], ctx));
          if (l->kind == expr::ExprKind::kLiteral &&
              l->type.id == TypeId::kDate32) {
            return FoldDateInterval(*l, *e.args[1], e.name == "+");
          }
          return Status::NotImplemented("interval arithmetic on non-literal date");
        }
      }
      SIRIUS_ASSIGN_OR_RETURN(ExprPtr l, Convert(e.args[0], ctx));
      SIRIUS_ASSIGN_OR_RETURN(ExprPtr r, Convert(e.args[1], ctx));
      expr::BinaryOp op;
      if (e.name == "+") {
        op = expr::BinaryOp::kAdd;
      } else if (e.name == "-") {
        op = expr::BinaryOp::kSub;
      } else if (e.name == "*") {
        op = expr::BinaryOp::kMul;
      } else if (e.name == "/") {
        op = expr::BinaryOp::kDiv;
      } else if (e.name == "=") {
        op = expr::BinaryOp::kEq;
      } else if (e.name == "<>") {
        op = expr::BinaryOp::kNe;
      } else if (e.name == "<") {
        op = expr::BinaryOp::kLt;
      } else if (e.name == "<=") {
        op = expr::BinaryOp::kLe;
      } else if (e.name == ">") {
        op = expr::BinaryOp::kGt;
      } else if (e.name == ">=") {
        op = expr::BinaryOp::kGe;
      } else if (e.name == "and") {
        op = expr::BinaryOp::kAnd;
      } else if (e.name == "or") {
        op = expr::BinaryOp::kOr;
      } else {
        return Status::BindError("unknown operator '" + e.name + "'");
      }
      return expr::Binary(op, std::move(l), std::move(r));
    }
    case AstKind::kUnaryMinus: {
      SIRIUS_ASSIGN_OR_RETURN(ExprPtr c, Convert(e.args[0], ctx));
      return expr::Negate(std::move(c));
    }
    case AstKind::kNot: {
      SIRIUS_ASSIGN_OR_RETURN(ExprPtr c, Convert(e.args[0], ctx));
      return expr::Not(std::move(c));
    }
    case AstKind::kIsNull: {
      SIRIUS_ASSIGN_OR_RETURN(ExprPtr c, Convert(e.args[0], ctx));
      return e.negated ? expr::IsNotNull(std::move(c)) : expr::IsNull(std::move(c));
    }
    case AstKind::kBetween: {
      SIRIUS_ASSIGN_OR_RETURN(ExprPtr v, Convert(e.args[0], ctx));
      SIRIUS_ASSIGN_OR_RETURN(ExprPtr lo, Convert(e.args[1], ctx));
      SIRIUS_ASSIGN_OR_RETURN(ExprPtr hi, Convert(e.args[2], ctx));
      ExprPtr v2 = v->Clone();
      ExprPtr both = expr::And(expr::Ge(std::move(v), std::move(lo)),
                               expr::Le(std::move(v2), std::move(hi)));
      return e.negated ? expr::Not(std::move(both)) : std::move(both);
    }
    case AstKind::kLike: {
      SIRIUS_ASSIGN_OR_RETURN(ExprPtr v, Convert(e.args[0], ctx));
      return e.negated ? expr::NotLike(std::move(v), e.text)
                       : expr::Like(std::move(v), e.text);
    }
    case AstKind::kInList: {
      SIRIUS_ASSIGN_OR_RETURN(ExprPtr v, Convert(e.args[0], ctx));
      std::vector<Scalar> items;
      for (size_t i = 1; i < e.args.size(); ++i) {
        SIRIUS_ASSIGN_OR_RETURN(ExprPtr item, Convert(e.args[i], ctx));
        if (item->kind != expr::ExprKind::kLiteral) {
          return Status::BindError("IN list items must be literals");
        }
        items.push_back(item->literal);
      }
      ExprPtr in = expr::InList(std::move(v), std::move(items));
      return e.negated ? expr::Not(std::move(in)) : std::move(in);
    }
    case AstKind::kSubstring: {
      SIRIUS_ASSIGN_OR_RETURN(ExprPtr v, Convert(e.args[0], ctx));
      SIRIUS_ASSIGN_OR_RETURN(ExprPtr from, Convert(e.args[1], ctx));
      SIRIUS_ASSIGN_OR_RETURN(ExprPtr len, Convert(e.args[2], ctx));
      if (from->kind != expr::ExprKind::kLiteral ||
          len->kind != expr::ExprKind::kLiteral) {
        return Status::NotImplemented("substring with non-literal bounds");
      }
      return expr::Substring(std::move(v), from->literal.int_value(),
                             len->literal.int_value());
    }
    case AstKind::kExtractYear: {
      // In agg context, extract(year from x) may itself be a group key.
      if (ctx.agg != nullptr) {
        ConvCtx plain = ctx.Plain();
        plain.rel = ctx.agg->pre_rel;
        auto attempt = Convert(ast, plain);
        if (attempt.ok()) {
          int g = ctx.agg->FindGroup(attempt.ValueOrDie()->ToString());
          if (g >= 0) return ColIdx(g, attempt.ValueOrDie()->type);
        }
      }
      SIRIUS_ASSIGN_OR_RETURN(ExprPtr v, Convert(e.args[0], ctx));
      return expr::ExtractYear(std::move(v));
    }
    case AstKind::kCase: {
      std::vector<ExprPtr> parts;
      for (const auto& a : e.args) {
        SIRIUS_ASSIGN_OR_RETURN(ExprPtr p, Convert(a, ctx));
        parts.push_back(std::move(p));
      }
      return expr::CaseWhen(std::move(parts));
    }
    case AstKind::kFuncCall: {
      if (!IsAggName(e.name)) {
        // Registered scalar UDFs bind like built-ins (§3.4).
        if (expr::UdfRegistry::Global()->Contains(e.name)) {
          std::vector<ExprPtr> args;
          for (const auto& a : e.args) {
            SIRIUS_ASSIGN_OR_RETURN(ExprPtr arg, Convert(a, ctx));
            args.push_back(std::move(arg));
          }
          return expr::Udf(e.name, std::move(args));
        }
        return Status::BindError("unknown function '" + e.name + "'");
      }
      if (ctx.agg == nullptr) {
        return Status::BindError("aggregate '" + e.name +
                                 "' not allowed in this context");
      }
      SIRIUS_ASSIGN_OR_RETURN(AggFunc func, AggFuncOf(e));
      ExprPtr arg;
      DataType arg_type = format::Int64();
      std::string rendered = std::string(plan::AggFuncName(func)) + "(";
      if (func != AggFunc::kCountStar) {
        ConvCtx plain = ctx.Plain();
        plain.rel = ctx.agg->pre_rel;
        SIRIUS_ASSIGN_OR_RETURN(arg, Convert(e.args[0], plain));
        arg_type = arg->type;
        if ((func == AggFunc::kSum || func == AggFunc::kAvg) &&
            !arg_type.is_numeric()) {
          return Status::BindError(e.name + "() requires a numeric argument, got " +
                                   arg_type.ToString());
        }
        rendered += arg->ToString();
      }
      rendered += ")";
      DataType out = plan::AggResultType(func, arg_type);
      int pos = ctx.agg->AddAgg(func, std::move(arg), rendered, out);
      return ColIdx(static_cast<int>(ctx.agg->group_exprs.size()) + pos, out);
    }
    case AstKind::kScalarSubquery: {
      if (ctx.replace_node == &e) return ctx.replacement;
      if (ctx.pending_subs != nullptr) {
        SIRIUS_ASSIGN_OR_RETURN(Rel sub, BindStatement(*e.subquery));
        if (sub.width() != 1) {
          return Status::BindError("scalar subquery must produce one column");
        }
        DataType t = sub.type_of(0);
        int idx = static_cast<int>(ctx.base_width + ctx.pending_subs->size());
        ctx.pending_subs->push_back(sub.plan);
        return ColIdx(idx, t);
      }
      return Status::NotImplemented("scalar subquery in this position");
    }
    case AstKind::kExists:
    case AstKind::kInSubquery:
      return Status::NotImplemented(
          "EXISTS/IN subquery must be a top-level WHERE conjunct");
  }
  return Status::Internal("unhandled AST node");
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

Result<PlanPtr> BindSelect(const SelectStmt& stmt, const CatalogInterface& catalog) {
  Binder binder(catalog);
  SIRIUS_ASSIGN_OR_RETURN(Rel rel, binder.BindStatement(stmt));
  return rel.plan;
}

Result<PlanPtr> SqlToPlan(const std::string& sql, const CatalogInterface& catalog) {
  SIRIUS_ASSIGN_OR_RETURN(SelectPtr stmt, ParseSql(sql));
  return BindSelect(*stmt, catalog);
}

}  // namespace sirius::sql
