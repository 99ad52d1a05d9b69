// Scalar expression AST shared by the SQL binder, the optimizer, the host
// CPU engine and the GDF compute kernels.

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "format/scalar.h"
#include "format/table.h"

namespace sirius::expr {

enum class ExprKind : uint8_t {
  kColumnRef,  ///< input column, by name before binding / by index after
  kLiteral,
  kBinary,
  kUnary,
  kFunction,
  kCase,    ///< children: when1, then1, ..., [else]
  kInList,  ///< child IN (literal list)
  kUdf,     ///< registered scalar UDF call (expr::UdfRegistry)
};

enum class BinaryOp : uint8_t {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
};

enum class UnaryOp : uint8_t { kNot, kNegate, kIsNull, kIsNotNull };

enum class FuncOp : uint8_t {
  kLike,        ///< child0 LIKE pattern-literal(child1)
  kNotLike,
  kSubstring,   ///< substring(child0, start(child1), len(child2)), 1-based
  kExtractYear, ///< extract(year from date)
  kCastDouble,
  kCastInt64,
};

struct Expr;
using ExprPtr = std::shared_ptr<Expr>;

/// \brief One node of a scalar expression tree.
///
/// `type` is valid after Bind(); `column_index` is resolved from
/// `column_name` (or set directly when plans are built programmatically).
struct Expr {
  ExprKind kind = ExprKind::kLiteral;
  format::DataType type;

  // kColumnRef
  std::string column_name;
  int column_index = -1;

  // kLiteral
  format::Scalar literal;

  // operators
  BinaryOp bop = BinaryOp::kAdd;
  UnaryOp uop = UnaryOp::kNot;
  FuncOp fop = FuncOp::kLike;

  std::vector<ExprPtr> children;

  // kInList
  std::vector<format::Scalar> in_list;

  // kUdf
  std::string udf_name;

  /// Number of simple ops one row of this expression costs (cost model).
  int OpCount() const;

  /// Distinct input column indices referenced anywhere in the tree.
  void CollectColumns(std::vector<int>* indices) const;
  /// As above for unresolved column names.
  void CollectColumnNames(std::vector<std::string>* names) const;

  std::string ToString() const;

  /// Deep copy.
  ExprPtr Clone() const;
};

/// Rewrites every column reference's index `i` in the tree to `fn(i)`, in
/// place. Callers check the indices their mapping produces.
void RemapColumns(Expr* e, const std::function<int(int)>& fn);

/// \name Factory helpers.
/// @{
ExprPtr ColRef(std::string name);
/// A pre-resolved column reference.
ExprPtr ColIdx(int index, format::DataType type);
ExprPtr Lit(format::Scalar value);
ExprPtr LitInt(int64_t v);
ExprPtr LitDouble(double v);
ExprPtr LitString(std::string v);
ExprPtr LitDate(const std::string& iso_date);
/// Decimal literal from a human value string like "0.05" with given scale.
ExprPtr LitDecimal(const std::string& text, int scale);
ExprPtr Binary(BinaryOp op, ExprPtr l, ExprPtr r);
ExprPtr Add(ExprPtr l, ExprPtr r);
ExprPtr Sub(ExprPtr l, ExprPtr r);
ExprPtr Mul(ExprPtr l, ExprPtr r);
ExprPtr Div(ExprPtr l, ExprPtr r);
ExprPtr Eq(ExprPtr l, ExprPtr r);
ExprPtr Ne(ExprPtr l, ExprPtr r);
ExprPtr Lt(ExprPtr l, ExprPtr r);
ExprPtr Le(ExprPtr l, ExprPtr r);
ExprPtr Gt(ExprPtr l, ExprPtr r);
ExprPtr Ge(ExprPtr l, ExprPtr r);
ExprPtr And(ExprPtr l, ExprPtr r);
ExprPtr Or(ExprPtr l, ExprPtr r);
ExprPtr Not(ExprPtr e);
ExprPtr Negate(ExprPtr e);
ExprPtr IsNull(ExprPtr e);
ExprPtr IsNotNull(ExprPtr e);
ExprPtr Like(ExprPtr input, std::string pattern);
ExprPtr NotLike(ExprPtr input, std::string pattern);
ExprPtr Substring(ExprPtr input, int64_t start, int64_t length);
ExprPtr ExtractYear(ExprPtr input);
ExprPtr CastDouble(ExprPtr input);
ExprPtr InList(ExprPtr input, std::vector<format::Scalar> values);
ExprPtr CaseWhen(std::vector<ExprPtr> when_then_else);
/// A call to a UDF registered in UdfRegistry::Global().
ExprPtr Udf(std::string name, std::vector<ExprPtr> args);
/// Conjunction of all expressions (nullptr when empty).
ExprPtr ConjoinAll(const std::vector<ExprPtr>& preds);
/// @}

/// \brief Resolves column names to indices against `input` and infers output
/// types bottom-up (decimal scale propagation, comparison -> BOOL, ...).
/// Mutates the tree in place.
Status Bind(Expr* e, const format::Schema& input);
Status Bind(const ExprPtr& e, const format::Schema& input);

/// SQL LIKE with % and _ wildcards.
bool LikeMatch(std::string_view value, std::string_view pattern);

}  // namespace sirius::expr
