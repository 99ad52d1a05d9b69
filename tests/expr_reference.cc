// The row-at-a-time expression evaluator that src/expr/eval.cc replaced,
// kept unchanged as a test oracle. It widens every operand into a copy,
// copies literals out to full columns and builds results through
// std::vector<bool>, which makes it slow but easy to trust. The property
// test in expr_test.cc checks the column-at-a-time evaluator against it
// byte for byte.

#include "expr_reference.h"

#include <cmath>
#include <cstring>

#include "expr/udf.h"
#include "format/builder.h"

namespace sirius::expr::reference {

using format::Column;
using format::ColumnPtr;
using format::DataType;
using format::DecimalPow10;
using format::Scalar;
using format::TypeId;

namespace {

/// Uniform numeric view of an evaluated column: either int64 raw values (at
/// the column's own scale) or doubles, plus validity.
struct NumVec {
  bool is_double = false;
  int scale = 0;  // for int path (0 for plain ints/dates/bools)
  std::vector<int64_t> i;
  std::vector<double> d;
  std::vector<bool> valid;

  size_t size() const { return valid.size(); }

  double AsDouble(size_t k) const {
    if (is_double) return d[k];
    return static_cast<double>(i[k]) / static_cast<double>(DecimalPow10(scale));
  }
};

Status ToNum(const ColumnPtr& col, NumVec* out) {
  const size_t n = col->length();
  out->valid.assign(n, true);
  if (col->has_nulls()) {
    for (size_t k = 0; k < n; ++k) out->valid[k] = !col->IsNull(k);
  }
  switch (col->type().id) {
    case TypeId::kFloat64:
      out->is_double = true;
      out->d.assign(col->data<double>(), col->data<double>() + n);
      return Status::OK();
    case TypeId::kInt64:
      out->i.assign(col->data<int64_t>(), col->data<int64_t>() + n);
      return Status::OK();
    case TypeId::kDecimal64:
      out->scale = col->type().scale;
      out->i.assign(col->data<int64_t>(), col->data<int64_t>() + n);
      return Status::OK();
    case TypeId::kInt32:
    case TypeId::kDate32: {
      out->i.resize(n);
      const int32_t* src = col->data<int32_t>();
      for (size_t k = 0; k < n; ++k) out->i[k] = src[k];
      return Status::OK();
    }
    case TypeId::kBool: {
      out->i.resize(n);
      const uint8_t* src = col->data<uint8_t>();
      for (size_t k = 0; k < n; ++k) out->i[k] = src[k];
      return Status::OK();
    }
    case TypeId::kString:
    case TypeId::kList:
      return Status::TypeError("numeric operation on non-numeric column");
  }
  return Status::Internal("unhandled type");
}

/// Rescales both int paths to a common scale. Returns the common scale.
int AlignScales(NumVec* a, NumVec* b) {
  int s = std::max(a->scale, b->scale);
  auto rescale = [&](NumVec* v) {
    if (v->is_double || v->scale == s) return;
    int64_t mult = DecimalPow10(s - v->scale);
    for (auto& x : v->i) x *= mult;
    v->scale = s;
  };
  rescale(a);
  rescale(b);
  return s;
}

ColumnPtr MakeBoolColumn(const std::vector<uint8_t>& vals,
                         const std::vector<bool>& valid) {
  size_t null_count = 0;
  mem::Buffer validity = format::ValidityFromBools(valid, &null_count);
  mem::Buffer data = mem::Buffer::Allocate(vals.size()).ValueOrDie();
  if (!vals.empty()) std::memcpy(data.data(), vals.data(), vals.size());
  return Column::MakeFixed(format::Bool(), std::move(data), vals.size(),
                           std::move(validity), null_count);
}

ColumnPtr MakeNumColumn(const DataType& type, const NumVec& v) {
  size_t null_count = 0;
  mem::Buffer validity = format::ValidityFromBools(v.valid, &null_count);
  const size_t n = v.size();
  if (type.id == TypeId::kFloat64) {
    mem::Buffer data = mem::Buffer::Allocate(n * 8).ValueOrDie();
    if (n > 0) std::memcpy(data.data(), v.d.data(), n * 8);
    return Column::MakeFixed(type, std::move(data), n, std::move(validity),
                             null_count);
  }
  if (type.byte_width() == 8) {
    mem::Buffer data = mem::Buffer::Allocate(n * 8).ValueOrDie();
    if (n > 0) std::memcpy(data.data(), v.i.data(), n * 8);
    return Column::MakeFixed(type, std::move(data), n, std::move(validity),
                             null_count);
  }
  // 4-byte (int32/date32)
  mem::Buffer data = mem::Buffer::Allocate(n * 4).ValueOrDie();
  auto* out = data.data_as<int32_t>();
  for (size_t k = 0; k < n; ++k) out[k] = static_cast<int32_t>(v.i[k]);
  return Column::MakeFixed(type, std::move(data), n, std::move(validity),
                           null_count);
}

bool IsStringType(const ColumnPtr& c) { return c->type().is_string(); }

Result<ColumnPtr> EvalArithmetic(const Expr& e, ColumnPtr lc, ColumnPtr rc) {
  NumVec a, b;
  SIRIUS_RETURN_NOT_OK(ToNum(lc, &a));
  SIRIUS_RETURN_NOT_OK(ToNum(rc, &b));
  const size_t n = a.size();
  NumVec out;
  out.valid.resize(n);
  for (size_t k = 0; k < n; ++k) out.valid[k] = a.valid[k] && b.valid[k];

  const bool as_double = e.type.id == TypeId::kFloat64;
  if (as_double) {
    out.is_double = true;
    out.d.resize(n);
    switch (e.bop) {
      case BinaryOp::kAdd:
        for (size_t k = 0; k < n; ++k) out.d[k] = a.AsDouble(k) + b.AsDouble(k);
        break;
      case BinaryOp::kSub:
        for (size_t k = 0; k < n; ++k) out.d[k] = a.AsDouble(k) - b.AsDouble(k);
        break;
      case BinaryOp::kMul:
        for (size_t k = 0; k < n; ++k) out.d[k] = a.AsDouble(k) * b.AsDouble(k);
        break;
      case BinaryOp::kDiv:
        for (size_t k = 0; k < n; ++k) {
          double denom = b.AsDouble(k);
          if (denom == 0) {
            out.valid[k] = false;
            out.d[k] = 0;
          } else {
            out.d[k] = a.AsDouble(k) / denom;
          }
        }
        break;
      default:
        return Status::Internal("not an arithmetic op");
    }
    return MakeNumColumn(e.type, out);
  }

  out.scale = e.type.scale;
  out.i.resize(n);
  switch (e.bop) {
    case BinaryOp::kAdd:
      AlignScales(&a, &b);
      for (size_t k = 0; k < n; ++k) out.i[k] = a.i[k] + b.i[k];
      break;
    case BinaryOp::kSub:
      AlignScales(&a, &b);
      for (size_t k = 0; k < n; ++k) out.i[k] = a.i[k] - b.i[k];
      break;
    case BinaryOp::kMul:
      // Output scale = sum of scales; raw values multiply directly.
      for (size_t k = 0; k < n; ++k) out.i[k] = a.i[k] * b.i[k];
      break;
    default:
      return Status::Internal("not an int arithmetic op");
  }
  return MakeNumColumn(e.type, out);
}

Result<ColumnPtr> EvalComparison(const Expr& e, ColumnPtr lc, ColumnPtr rc) {
  const size_t n = lc->length();
  std::vector<uint8_t> vals(n, 0);
  std::vector<bool> valid(n, true);

  auto cmp_result = [&](int c) -> bool {
    switch (e.bop) {
      case BinaryOp::kEq:
        return c == 0;
      case BinaryOp::kNe:
        return c != 0;
      case BinaryOp::kLt:
        return c < 0;
      case BinaryOp::kLe:
        return c <= 0;
      case BinaryOp::kGt:
        return c > 0;
      case BinaryOp::kGe:
        return c >= 0;
      default:
        return false;
    }
  };

  if (IsStringType(lc) || IsStringType(rc)) {
    if (!IsStringType(lc) || !IsStringType(rc)) {
      return Status::TypeError("comparison between string and non-string");
    }
    for (size_t k = 0; k < n; ++k) {
      if (lc->IsNull(k) || rc->IsNull(k)) {
        valid[k] = false;
        continue;
      }
      auto sv1 = lc->StringAt(k);
      auto sv2 = rc->StringAt(k);
      int c = sv1.compare(sv2);
      vals[k] = cmp_result(c < 0 ? -1 : (c > 0 ? 1 : 0)) ? 1 : 0;
    }
    return MakeBoolColumn(vals, valid);
  }

  NumVec a, b;
  SIRIUS_RETURN_NOT_OK(ToNum(lc, &a));
  SIRIUS_RETURN_NOT_OK(ToNum(rc, &b));
  if (!a.is_double && !b.is_double) {
    AlignScales(&a, &b);
    for (size_t k = 0; k < n; ++k) {
      if (!a.valid[k] || !b.valid[k]) {
        valid[k] = false;
        continue;
      }
      int c = a.i[k] < b.i[k] ? -1 : (a.i[k] > b.i[k] ? 1 : 0);
      vals[k] = cmp_result(c) ? 1 : 0;
    }
  } else {
    for (size_t k = 0; k < n; ++k) {
      if (!a.valid[k] || !b.valid[k]) {
        valid[k] = false;
        continue;
      }
      double x = a.AsDouble(k), y = b.AsDouble(k);
      int c = x < y ? -1 : (x > y ? 1 : 0);
      vals[k] = cmp_result(c) ? 1 : 0;
    }
  }
  return MakeBoolColumn(vals, valid);
}

Result<ColumnPtr> EvalLogical(const Expr& e, ColumnPtr lc, ColumnPtr rc) {
  const size_t n = lc->length();
  std::vector<uint8_t> vals(n, 0);
  std::vector<bool> valid(n, true);
  const uint8_t* a = lc->data<uint8_t>();
  const uint8_t* b = rc->data<uint8_t>();
  for (size_t k = 0; k < n; ++k) {
    bool an = lc->IsNull(k), bn = rc->IsNull(k);
    bool av = !an && a[k] != 0;
    bool bv = !bn && b[k] != 0;
    if (e.bop == BinaryOp::kAnd) {
      // Kleene: false AND x == false; true AND NULL == NULL.
      if ((!an && !av) || (!bn && !bv)) {
        vals[k] = 0;
      } else if (an || bn) {
        valid[k] = false;
      } else {
        vals[k] = 1;
      }
    } else {  // OR
      if ((!an && av) || (!bn && bv)) {
        vals[k] = 1;
      } else if (an || bn) {
        valid[k] = false;
      } else {
        vals[k] = 0;
      }
    }
  }
  return MakeBoolColumn(vals, valid);
}

}  // namespace

Result<ColumnPtr> Evaluate(const Expr& e, const format::Table& input) {
  const size_t n = input.num_rows();
  switch (e.kind) {
    case ExprKind::kColumnRef: {
      if (e.column_index < 0 ||
          static_cast<size_t>(e.column_index) >= input.num_columns()) {
        return Status::ExecutionError("unbound column reference " + e.ToString());
      }
      return input.column(e.column_index);
    }
    case ExprKind::kLiteral: {
      format::ColumnBuilder b(e.type);
      b.Reserve(n);
      for (size_t k = 0; k < n; ++k) {
        SIRIUS_RETURN_NOT_OK(b.AppendScalar(e.literal));
      }
      return b.Finish();
    }
    case ExprKind::kBinary: {
      SIRIUS_ASSIGN_OR_RETURN(ColumnPtr lc, reference::Evaluate(*e.children[0], input));
      SIRIUS_ASSIGN_OR_RETURN(ColumnPtr rc, reference::Evaluate(*e.children[1], input));
      switch (e.bop) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
          return EvalArithmetic(e, std::move(lc), std::move(rc));
        case BinaryOp::kAnd:
        case BinaryOp::kOr:
          return EvalLogical(e, std::move(lc), std::move(rc));
        default:
          return EvalComparison(e, std::move(lc), std::move(rc));
      }
    }
    case ExprKind::kUnary: {
      SIRIUS_ASSIGN_OR_RETURN(ColumnPtr c, reference::Evaluate(*e.children[0], input));
      std::vector<uint8_t> vals(n, 0);
      std::vector<bool> valid(n, true);
      switch (e.uop) {
        case UnaryOp::kNot: {
          const uint8_t* src = c->data<uint8_t>();
          for (size_t k = 0; k < n; ++k) {
            if (c->IsNull(k)) {
              valid[k] = false;
            } else {
              vals[k] = src[k] != 0 ? 0 : 1;
            }
          }
          return MakeBoolColumn(vals, valid);
        }
        case UnaryOp::kIsNull: {
          for (size_t k = 0; k < n; ++k) vals[k] = c->IsNull(k) ? 1 : 0;
          return MakeBoolColumn(vals, valid);
        }
        case UnaryOp::kIsNotNull: {
          for (size_t k = 0; k < n; ++k) vals[k] = c->IsNull(k) ? 0 : 1;
          return MakeBoolColumn(vals, valid);
        }
        case UnaryOp::kNegate: {
          NumVec v;
          SIRIUS_RETURN_NOT_OK(ToNum(c, &v));
          if (v.is_double) {
            for (auto& x : v.d) x = -x;
          } else {
            for (auto& x : v.i) x = -x;
          }
          return MakeNumColumn(e.type, v);
        }
      }
      return Status::Internal("unknown unary op");
    }
    case ExprKind::kFunction: {
      SIRIUS_ASSIGN_OR_RETURN(ColumnPtr c, reference::Evaluate(*e.children[0], input));
      switch (e.fop) {
        case FuncOp::kLike:
        case FuncOp::kNotLike: {
          if (!c->type().is_string()) {
            return Status::TypeError("LIKE input must be string");
          }
          const std::string& pattern = e.children[1]->literal.string_value();
          std::vector<uint8_t> vals(n, 0);
          std::vector<bool> valid(n, true);
          const bool negate = e.fop == FuncOp::kNotLike;
          for (size_t k = 0; k < n; ++k) {
            if (c->IsNull(k)) {
              valid[k] = false;
              continue;
            }
            bool m = LikeMatch(c->StringAt(k), pattern);
            vals[k] = (m != negate) ? 1 : 0;
          }
          return MakeBoolColumn(vals, valid);
        }
        case FuncOp::kSubstring: {
          if (!c->type().is_string()) {
            return Status::TypeError("substring input must be string");
          }
          int64_t start = e.children[1]->literal.int_value();
          int64_t len = e.children[2]->literal.int_value();
          format::ColumnBuilder b(format::String());
          b.Reserve(n);
          for (size_t k = 0; k < n; ++k) {
            if (c->IsNull(k)) {
              b.AppendNull();
              continue;
            }
            auto sv = c->StringAt(k);
            int64_t begin = std::max<int64_t>(0, start - 1);
            if (begin >= static_cast<int64_t>(sv.size()) || len <= 0) {
              b.AppendString("");
            } else {
              b.AppendString(sv.substr(
                  static_cast<size_t>(begin),
                  static_cast<size_t>(
                      std::min<int64_t>(len, static_cast<int64_t>(sv.size()) - begin))));
            }
          }
          return b.Finish();
        }
        case FuncOp::kExtractYear: {
          format::ColumnBuilder b(format::Int64());
          b.Reserve(n);
          const int32_t* days = c->data<int32_t>();
          for (size_t k = 0; k < n; ++k) {
            if (c->IsNull(k)) {
              b.AppendNull();
              continue;
            }
            int y, m, d;
            format::CivilFromDays(days[k], &y, &m, &d);
            b.AppendInt(y);
          }
          return b.Finish();
        }
        case FuncOp::kCastDouble: {
          NumVec v;
          SIRIUS_RETURN_NOT_OK(ToNum(c, &v));
          NumVec out;
          out.is_double = true;
          out.valid = v.valid;
          out.d.resize(n);
          for (size_t k = 0; k < n; ++k) out.d[k] = v.AsDouble(k);
          return MakeNumColumn(format::Float64(), out);
        }
        case FuncOp::kCastInt64: {
          NumVec v;
          SIRIUS_RETURN_NOT_OK(ToNum(c, &v));
          NumVec out;
          out.valid = v.valid;
          out.i.resize(n);
          for (size_t k = 0; k < n; ++k) {
            out.i[k] = v.is_double ? static_cast<int64_t>(v.d[k])
                                   : v.i[k] / DecimalPow10(v.scale);
          }
          return MakeNumColumn(format::Int64(), out);
        }
      }
      return Status::Internal("unknown function");
    }
    case ExprKind::kCase: {
      // Evaluate all conditions and branches, then select per row.
      const size_t num_pairs = e.children.size() / 2;
      const bool has_else = e.children.size() % 2 == 1;
      std::vector<ColumnPtr> conds(num_pairs), thens(num_pairs);
      for (size_t p = 0; p < num_pairs; ++p) {
        SIRIUS_ASSIGN_OR_RETURN(conds[p], reference::Evaluate(*e.children[2 * p], input));
        SIRIUS_ASSIGN_OR_RETURN(thens[p], reference::Evaluate(*e.children[2 * p + 1], input));
      }
      ColumnPtr else_col;
      if (has_else) {
        SIRIUS_ASSIGN_OR_RETURN(else_col, reference::Evaluate(*e.children.back(), input));
      }
      format::ColumnBuilder b(e.type);
      b.Reserve(n);
      for (size_t k = 0; k < n; ++k) {
        bool done = false;
        for (size_t p = 0; p < num_pairs && !done; ++p) {
          if (!conds[p]->IsNull(k) && conds[p]->data<uint8_t>()[k] != 0) {
            SIRIUS_RETURN_NOT_OK(b.AppendScalar(thens[p]->GetScalar(k)));
            done = true;
          }
        }
        if (!done) {
          if (has_else) {
            SIRIUS_RETURN_NOT_OK(b.AppendScalar(else_col->GetScalar(k)));
          } else {
            b.AppendNull();
          }
        }
      }
      return b.Finish();
    }
    case ExprKind::kUdf: {
      SIRIUS_ASSIGN_OR_RETURN(UdfDefinition def,
                              UdfRegistry::Global()->Lookup(e.udf_name));
      std::vector<ColumnPtr> args(e.children.size());
      for (size_t a = 0; a < e.children.size(); ++a) {
        SIRIUS_ASSIGN_OR_RETURN(args[a], reference::Evaluate(*e.children[a], input));
      }
      format::ColumnBuilder b(e.type);
      b.Reserve(n);
      std::vector<Scalar> row(args.size());
      for (size_t k = 0; k < n; ++k) {
        for (size_t a = 0; a < args.size(); ++a) row[a] = args[a]->GetScalar(k);
        SIRIUS_ASSIGN_OR_RETURN(Scalar out, def.fn(row));
        SIRIUS_RETURN_NOT_OK(b.AppendScalar(out));
      }
      return b.Finish();
    }
    case ExprKind::kInList: {
      SIRIUS_ASSIGN_OR_RETURN(ColumnPtr c, reference::Evaluate(*e.children[0], input));
      std::vector<uint8_t> vals(n, 0);
      std::vector<bool> valid(n, true);
      for (size_t k = 0; k < n; ++k) {
        if (c->IsNull(k)) {
          valid[k] = false;
          continue;
        }
        Scalar v = c->GetScalar(k);
        for (const auto& item : e.in_list) {
          if (v == item) {
            vals[k] = 1;
            break;
          }
        }
      }
      return MakeBoolColumn(vals, valid);
    }
  }
  return Status::Internal("unknown expr kind");
}

}  // namespace sirius::expr::reference
