#include "expr/expr.h"

#include <algorithm>
#include <initializer_list>

#include "expr/udf.h"

namespace sirius::expr {

using format::DataType;
using format::Scalar;
using format::TypeId;

int Expr::OpCount() const {
  int count = 1;
  for (const auto& c : children) count += c->OpCount();
  count += static_cast<int>(in_list.size());
  return count;
}

void Expr::CollectColumns(std::vector<int>* indices) const {
  if (kind == ExprKind::kColumnRef && column_index >= 0) {
    if (std::find(indices->begin(), indices->end(), column_index) ==
        indices->end()) {
      indices->push_back(column_index);
    }
  }
  for (const auto& c : children) c->CollectColumns(indices);
}

void Expr::CollectColumnNames(std::vector<std::string>* names) const {
  if (kind == ExprKind::kColumnRef && !column_name.empty()) {
    if (std::find(names->begin(), names->end(), column_name) == names->end()) {
      names->push_back(column_name);
    }
  }
  for (const auto& c : children) c->CollectColumnNames(names);
}

namespace {
const char* BinOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
  }
  return "?";
}
}  // namespace

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kColumnRef:
      if (!column_name.empty()) return column_name;
      return "#" + std::to_string(column_index);
    case ExprKind::kLiteral:
      return literal.ToString();
    case ExprKind::kBinary:
      return "(" + children[0]->ToString() + " " + BinOpName(bop) + " " +
             children[1]->ToString() + ")";
    case ExprKind::kUnary:
      switch (uop) {
        case UnaryOp::kNot:
          return "NOT " + children[0]->ToString();
        case UnaryOp::kNegate:
          return "-" + children[0]->ToString();
        case UnaryOp::kIsNull:
          return children[0]->ToString() + " IS NULL";
        case UnaryOp::kIsNotNull:
          return children[0]->ToString() + " IS NOT NULL";
      }
      return "?";
    case ExprKind::kFunction:
      switch (fop) {
        case FuncOp::kLike:
          return children[0]->ToString() + " LIKE " + children[1]->ToString();
        case FuncOp::kNotLike:
          return children[0]->ToString() + " NOT LIKE " + children[1]->ToString();
        case FuncOp::kSubstring:
          return "substring(" + children[0]->ToString() + "," +
                 children[1]->ToString() + "," + children[2]->ToString() + ")";
        case FuncOp::kExtractYear:
          return "extract(year from " + children[0]->ToString() + ")";
        case FuncOp::kCastDouble:
          return "cast(" + children[0]->ToString() + " as double)";
        case FuncOp::kCastInt64:
          return "cast(" + children[0]->ToString() + " as bigint)";
      }
      return "?";
    case ExprKind::kCase: {
      std::string out = "CASE";
      size_t i = 0;
      for (; i + 1 < children.size(); i += 2) {
        out += " WHEN " + children[i]->ToString() + " THEN " +
               children[i + 1]->ToString();
      }
      if (i < children.size()) out += " ELSE " + children[i]->ToString();
      return out + " END";
    }
    case ExprKind::kInList: {
      std::string out = children[0]->ToString() + " IN (";
      for (size_t i = 0; i < in_list.size(); ++i) {
        if (i > 0) out += ", ";
        out += in_list[i].ToString();
      }
      return out + ")";
    }
    case ExprKind::kUdf: {
      std::string out = udf_name + "(";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += ", ";
        out += children[i]->ToString();
      }
      return out + ")";
    }
  }
  return "?";
}

ExprPtr Expr::Clone() const {
  auto e = std::make_shared<Expr>(*this);
  for (auto& c : e->children) c = c->Clone();
  return e;
}

ExprPtr ColRef(std::string name) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->column_name = std::move(name);
  return e;
}

ExprPtr ColIdx(int index, DataType type) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->column_index = index;
  e->type = type;
  return e;
}

ExprPtr Lit(Scalar value) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kLiteral;
  e->type = value.type();
  e->literal = std::move(value);
  return e;
}

ExprPtr LitInt(int64_t v) { return Lit(Scalar::FromInt64(v)); }
ExprPtr LitDouble(double v) { return Lit(Scalar::FromDouble(v)); }
ExprPtr LitString(std::string v) { return Lit(Scalar::FromString(std::move(v))); }

ExprPtr LitDate(const std::string& iso_date) {
  return Lit(Scalar::FromDate(format::ParseDate(iso_date)));
}

ExprPtr LitDecimal(const std::string& text, int scale) {
  // Parse "[-]intpart[.fracpart]" into raw units at `scale`.
  bool negative = !text.empty() && text[0] == '-';
  size_t pos = negative ? 1 : 0;
  int64_t whole = 0;
  while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
    whole = whole * 10 + (text[pos] - '0');
    ++pos;
  }
  int64_t frac = 0;
  int frac_digits = 0;
  if (pos < text.size() && text[pos] == '.') {
    ++pos;
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9' &&
           frac_digits < scale) {
      frac = frac * 10 + (text[pos] - '0');
      ++frac_digits;
      ++pos;
    }
  }
  int64_t raw = whole * format::DecimalPow10(scale) +
                frac * format::DecimalPow10(scale - frac_digits);
  if (negative) raw = -raw;
  return Lit(Scalar::FromDecimal(raw, scale));
}

ExprPtr Binary(BinaryOp op, ExprPtr l, ExprPtr r) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kBinary;
  e->bop = op;
  e->children = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Add(ExprPtr l, ExprPtr r) { return Binary(BinaryOp::kAdd, std::move(l), std::move(r)); }
ExprPtr Sub(ExprPtr l, ExprPtr r) { return Binary(BinaryOp::kSub, std::move(l), std::move(r)); }
ExprPtr Mul(ExprPtr l, ExprPtr r) { return Binary(BinaryOp::kMul, std::move(l), std::move(r)); }
ExprPtr Div(ExprPtr l, ExprPtr r) { return Binary(BinaryOp::kDiv, std::move(l), std::move(r)); }
ExprPtr Eq(ExprPtr l, ExprPtr r) { return Binary(BinaryOp::kEq, std::move(l), std::move(r)); }
ExprPtr Ne(ExprPtr l, ExprPtr r) { return Binary(BinaryOp::kNe, std::move(l), std::move(r)); }
ExprPtr Lt(ExprPtr l, ExprPtr r) { return Binary(BinaryOp::kLt, std::move(l), std::move(r)); }
ExprPtr Le(ExprPtr l, ExprPtr r) { return Binary(BinaryOp::kLe, std::move(l), std::move(r)); }
ExprPtr Gt(ExprPtr l, ExprPtr r) { return Binary(BinaryOp::kGt, std::move(l), std::move(r)); }
ExprPtr Ge(ExprPtr l, ExprPtr r) { return Binary(BinaryOp::kGe, std::move(l), std::move(r)); }
ExprPtr And(ExprPtr l, ExprPtr r) { return Binary(BinaryOp::kAnd, std::move(l), std::move(r)); }
ExprPtr Or(ExprPtr l, ExprPtr r) { return Binary(BinaryOp::kOr, std::move(l), std::move(r)); }

ExprPtr Not(ExprPtr e) {
  auto out = std::make_shared<Expr>();
  out->kind = ExprKind::kUnary;
  out->uop = UnaryOp::kNot;
  out->children = {std::move(e)};
  return out;
}

ExprPtr Negate(ExprPtr e) {
  auto out = std::make_shared<Expr>();
  out->kind = ExprKind::kUnary;
  out->uop = UnaryOp::kNegate;
  out->children = {std::move(e)};
  return out;
}

ExprPtr IsNull(ExprPtr e) {
  auto out = std::make_shared<Expr>();
  out->kind = ExprKind::kUnary;
  out->uop = UnaryOp::kIsNull;
  out->children = {std::move(e)};
  return out;
}

ExprPtr IsNotNull(ExprPtr e) {
  auto out = std::make_shared<Expr>();
  out->kind = ExprKind::kUnary;
  out->uop = UnaryOp::kIsNotNull;
  out->children = {std::move(e)};
  return out;
}

namespace {
ExprPtr Func(FuncOp op, std::vector<ExprPtr> children) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kFunction;
  e->fop = op;
  e->children = std::move(children);
  return e;
}
}  // namespace

ExprPtr Like(ExprPtr input, std::string pattern) {
  return Func(FuncOp::kLike, {std::move(input), LitString(std::move(pattern))});
}

ExprPtr NotLike(ExprPtr input, std::string pattern) {
  return Func(FuncOp::kNotLike, {std::move(input), LitString(std::move(pattern))});
}

ExprPtr Substring(ExprPtr input, int64_t start, int64_t length) {
  return Func(FuncOp::kSubstring, {std::move(input), LitInt(start), LitInt(length)});
}

ExprPtr ExtractYear(ExprPtr input) {
  return Func(FuncOp::kExtractYear, {std::move(input)});
}

ExprPtr CastDouble(ExprPtr input) {
  return Func(FuncOp::kCastDouble, {std::move(input)});
}

ExprPtr InList(ExprPtr input, std::vector<Scalar> values) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kInList;
  e->children = {std::move(input)};
  e->in_list = std::move(values);
  return e;
}

ExprPtr CaseWhen(std::vector<ExprPtr> when_then_else) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kCase;
  e->children = std::move(when_then_else);
  return e;
}

ExprPtr Udf(std::string name, std::vector<ExprPtr> args) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kUdf;
  e->udf_name = std::move(name);
  e->children = std::move(args);
  return e;
}

ExprPtr ConjoinAll(const std::vector<ExprPtr>& preds) {
  ExprPtr out;
  for (const auto& p : preds) {
    out = out == nullptr ? p : And(out, p);
  }
  return out;
}

bool LikeMatch(std::string_view value, std::string_view pattern) {
  // Iterative matcher with backtracking on the last '%'.
  size_t v = 0, p = 0;
  size_t star_p = std::string_view::npos, star_v = 0;
  while (v < value.size()) {
    if (p < pattern.size() && (pattern[p] == '_' || pattern[p] == value[v])) {
      ++v;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_v = v;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      v = ++star_v;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

Status Bind(const ExprPtr& e, const format::Schema& input) {
  return Bind(e.get(), input);
}

namespace {

/// The operand count each operator reads, checked before anything reads
/// one; -1 when the count is not fixed (CASE, UDF) or there is none.
int Arity(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kBinary:
      return 2;
    case ExprKind::kUnary:
    case ExprKind::kInList:
      return 1;
    case ExprKind::kFunction:
      switch (e.fop) {
        case FuncOp::kLike:
        case FuncOp::kNotLike:
          return 2;
        case FuncOp::kSubstring:
          return 3;
        default:
          return 1;
      }
    default:
      return -1;
  }
}

/// True when `e` is a non-NULL literal of one of `types`.
bool IsLiteralOf(const Expr& e, std::initializer_list<TypeId> types) {
  return e.kind == ExprKind::kLiteral && !e.literal.is_null() &&
         std::find(types.begin(), types.end(), e.literal.type().id) !=
             types.end();
}

}  // namespace

Status Bind(Expr* e, const format::Schema& input) {
  const int arity = Arity(*e);
  if (arity >= 0 && e->children.size() != static_cast<size_t>(arity)) {
    return Status::BindError("operator expects " + std::to_string(arity) +
                             " operands, got " +
                             std::to_string(e->children.size()));
  }
  for (auto& c : e->children) {
    SIRIUS_RETURN_NOT_OK(Bind(c.get(), input));
  }
  switch (e->kind) {
    case ExprKind::kColumnRef: {
      if (e->column_index < 0) {
        int idx = input.IndexOf(e->column_name);
        if (idx < 0) {
          return Status::BindError("column '" + e->column_name +
                                   "' not found in schema [" + input.ToString() +
                                   "]");
        }
        e->column_index = idx;
      }
      if (static_cast<size_t>(e->column_index) >= input.num_fields()) {
        return Status::BindError("column index " +
                                 std::to_string(e->column_index) +
                                 " out of range");
      }
      e->type = input.field(e->column_index).type;
      return Status::OK();
    }
    case ExprKind::kLiteral:
      e->type = e->literal.type();
      return Status::OK();
    case ExprKind::kBinary: {
      const DataType& lt = e->children[0]->type;
      const DataType& rt = e->children[1]->type;
      switch (e->bop) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
          if (lt.id == TypeId::kFloat64 || rt.id == TypeId::kFloat64) {
            e->type = format::Float64();
          } else if (lt.is_decimal() || rt.is_decimal()) {
            e->type = format::Decimal(std::max(lt.scale, rt.scale));
          } else if (lt.id == TypeId::kDate32 || rt.id == TypeId::kDate32) {
            e->type = format::Date32();
          } else {
            e->type = format::Int64();
          }
          return Status::OK();
        case BinaryOp::kMul:
          if (lt.id == TypeId::kFloat64 || rt.id == TypeId::kFloat64) {
            e->type = format::Float64();
          } else if (lt.is_decimal() || rt.is_decimal()) {
            e->type = format::Decimal(lt.scale + rt.scale);
          } else {
            e->type = format::Int64();
          }
          return Status::OK();
        case BinaryOp::kDiv:
          e->type = format::Float64();
          return Status::OK();
        case BinaryOp::kAnd:
        case BinaryOp::kOr:
          if (lt.id != TypeId::kBool || rt.id != TypeId::kBool) {
            return Status::TypeError("AND/OR require BOOL operands: " +
                                     e->ToString());
          }
          e->type = format::Bool();
          return Status::OK();
        default:  // comparisons
          e->type = format::Bool();
          return Status::OK();
      }
    }
    case ExprKind::kUnary:
      switch (e->uop) {
        case UnaryOp::kNot:
          e->type = format::Bool();
          return Status::OK();
        case UnaryOp::kNegate:
          e->type = e->children[0]->type;
          return Status::OK();
        case UnaryOp::kIsNull:
        case UnaryOp::kIsNotNull:
          e->type = format::Bool();
          return Status::OK();
      }
      return Status::Internal("unknown unary op");
    case ExprKind::kFunction:
      switch (e->fop) {
        case FuncOp::kLike:
        case FuncOp::kNotLike:
          if (!e->children[0]->type.is_string()) {
            return Status::TypeError("LIKE requires string input");
          }
          if (!IsLiteralOf(*e->children[1], {TypeId::kString})) {
            return Status::TypeError("LIKE pattern must be a string literal");
          }
          e->type = format::Bool();
          return Status::OK();
        case FuncOp::kSubstring:
          if (!IsLiteralOf(*e->children[1], {TypeId::kInt32, TypeId::kInt64}) ||
              !IsLiteralOf(*e->children[2], {TypeId::kInt32, TypeId::kInt64})) {
            return Status::TypeError(
                "substring start and length must be integer literals");
          }
          e->type = format::String();
          return Status::OK();
        case FuncOp::kExtractYear:
          if (e->children[0]->type.id != TypeId::kDate32) {
            return Status::TypeError("extract(year) requires DATE input");
          }
          e->type = format::Int64();
          return Status::OK();
        case FuncOp::kCastDouble:
          e->type = format::Float64();
          return Status::OK();
        case FuncOp::kCastInt64:
          e->type = format::Int64();
          return Status::OK();
      }
      return Status::Internal("unknown function");
    case ExprKind::kCase: {
      if (e->children.size() < 2) {
        return Status::BindError("CASE requires at least WHEN/THEN");
      }
      // Result type: the first THEN branch's type.
      e->type = e->children[1]->type;
      return Status::OK();
    }
    case ExprKind::kInList:
      e->type = format::Bool();
      return Status::OK();
    case ExprKind::kUdf: {
      SIRIUS_ASSIGN_OR_RETURN(UdfDefinition def,
                              UdfRegistry::Global()->Lookup(e->udf_name));
      if (def.arity >= 0 && static_cast<size_t>(def.arity) != e->children.size()) {
        return Status::BindError("UDF '" + e->udf_name + "' expects " +
                                 std::to_string(def.arity) + " arguments, got " +
                                 std::to_string(e->children.size()));
      }
      e->type = def.return_type;
      return Status::OK();
    }
  }
  return Status::Internal("unknown expr kind");
}

}  // namespace sirius::expr
