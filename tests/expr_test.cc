// Unit tests for expressions: construction, binding/type inference,
// columnar evaluation, SQL NULL semantics, LIKE matching.

#include <gtest/gtest.h>

#include "expr/eval.h"
#include "expr/expr.h"
#include "format/builder.h"

namespace sirius::expr {
namespace {

using format::Column;
using format::ColumnPtr;
using format::Scalar;
using format::Schema;
using format::Table;
using format::TablePtr;

TablePtr TestTable() {
  return Table::Make(
             Schema({{"i", format::Int64()},
                     {"d", format::Decimal(2)},
                     {"f", format::Float64()},
                     {"s", format::String()},
                     {"dt", format::Date32()},
                     {"b", format::Bool()}}),
             {Column::FromInt64({1, 2, 3}),
              Column::FromDecimal({150, 250, 1000}, 2),  // 1.50, 2.50, 10.00
              Column::FromDouble({0.5, 1.5, 2.5}),
              Column::FromStrings({"apple pie", "banana", "cherry"}),
              Column::FromDate({format::ParseDate("1994-01-01"),
                                format::ParseDate("1995-06-17"),
                                format::ParseDate("1996-12-31")}),
              Column::FromBool({true, false, true})})
      .ValueOrDie();
}

ColumnPtr Eval(ExprPtr e, const TablePtr& t) {
  SIRIUS_CHECK_OK(Bind(e, t->schema()));
  return Evaluate(*e, *t).ValueOrDie();
}

// ---------------------------------------------------------------------------
// Binding / type inference
// ---------------------------------------------------------------------------

TEST(BindTest, ResolvesNamesToIndices) {
  auto t = TestTable();
  auto e = ColRef("d");
  SIRIUS_CHECK_OK(Bind(e, t->schema()));
  EXPECT_EQ(e->column_index, 1);
  EXPECT_EQ(e->type, format::Decimal(2));
}

TEST(BindTest, UnknownColumnFails) {
  auto t = TestTable();
  auto e = ColRef("nope");
  EXPECT_TRUE(Bind(e, t->schema()).IsInvalid() ||
              Bind(e, t->schema()).code() == StatusCode::kBindError);
}

TEST(BindTest, DecimalScalePropagation) {
  auto t = TestTable();
  auto add = Add(ColRef("d"), ColRef("d"));
  SIRIUS_CHECK_OK(Bind(add, t->schema()));
  EXPECT_EQ(add->type, format::Decimal(2));

  auto mul = Mul(ColRef("d"), ColRef("d"));
  SIRIUS_CHECK_OK(Bind(mul, t->schema()));
  EXPECT_EQ(mul->type, format::Decimal(4));  // scales add

  auto div = Div(ColRef("d"), ColRef("i"));
  SIRIUS_CHECK_OK(Bind(div, t->schema()));
  EXPECT_EQ(div->type.id, format::TypeId::kFloat64);
}

TEST(BindTest, ComparisonYieldsBool) {
  auto t = TestTable();
  auto e = Lt(ColRef("i"), LitInt(2));
  SIRIUS_CHECK_OK(Bind(e, t->schema()));
  EXPECT_EQ(e->type.id, format::TypeId::kBool);
}

TEST(BindTest, LogicalRequiresBool) {
  auto t = TestTable();
  auto bad = And(ColRef("i"), ColRef("b"));
  EXPECT_EQ(Bind(bad, t->schema()).code(), StatusCode::kTypeError);
}

TEST(BindTest, LikeRequiresString) {
  auto t = TestTable();
  auto bad = Like(ColRef("i"), "%x%");
  EXPECT_EQ(Bind(bad, t->schema()).code(), StatusCode::kTypeError);
}

TEST(BindTest, ExtractYearRequiresDate) {
  auto t = TestTable();
  auto bad = ExtractYear(ColRef("i"));
  EXPECT_EQ(Bind(bad, t->schema()).code(), StatusCode::kTypeError);
  auto ok = ExtractYear(ColRef("dt"));
  EXPECT_TRUE(Bind(ok, t->schema()).ok());
  EXPECT_EQ(ok->type.id, format::TypeId::kInt64);
}

// ---------------------------------------------------------------------------
// Evaluation: arithmetic
// ---------------------------------------------------------------------------

TEST(EvalTest, IntegerArithmetic) {
  auto t = TestTable();
  auto c = Eval(Add(Mul(ColRef("i"), LitInt(10)), LitInt(5)), t);
  EXPECT_EQ(c->data<int64_t>()[0], 15);
  EXPECT_EQ(c->data<int64_t>()[2], 35);
  // Zero rows (an expression over an empty selection) copy no values.
  auto none = Table::Make(Schema({{"i", format::Int64()}}),
                          {Column::FromInt64(std::vector<int64_t>{})})
                  .ValueOrDie();
  EXPECT_EQ(Eval(Mul(ColRef("i"), LitInt(10)), none)->length(), 0u);
}

TEST(EvalTest, DecimalArithmeticExact) {
  auto t = TestTable();
  // d * (1 - 0.10): scale 2 * scale 2 -> scale 4 raw values.
  auto e = Mul(ColRef("d"), Sub(LitDecimal("1", 2), LitDecimal("0.10", 2)));
  auto c = Eval(e, t);
  EXPECT_EQ(c->type(), format::Decimal(4));
  EXPECT_EQ(c->data<int64_t>()[0], 13500);   // 1.50 * 0.90 = 1.3500
  EXPECT_EQ(c->data<int64_t>()[2], 90000);   // 10.00 * 0.90
}

TEST(EvalTest, MixedDecimalIntComparison) {
  auto t = TestTable();
  auto c = Eval(Ge(ColRef("d"), LitInt(2)), t);  // 1.50, 2.50, 10.00 >= 2
  EXPECT_EQ(c->data<uint8_t>()[0], 0);
  EXPECT_EQ(c->data<uint8_t>()[1], 1);
  EXPECT_EQ(c->data<uint8_t>()[2], 1);
}

TEST(EvalTest, DivisionByZeroIsNull) {
  auto t = TestTable();
  auto c = Eval(Div(ColRef("i"), Sub(ColRef("i"), ColRef("i"))), t);
  EXPECT_TRUE(c->IsNull(0));
  EXPECT_EQ(c->null_count(), 3u);
}

TEST(EvalTest, DoubleArithmetic) {
  auto t = TestTable();
  auto c = Eval(Mul(ColRef("f"), LitDouble(2.0)), t);
  EXPECT_DOUBLE_EQ(c->data<double>()[1], 3.0);
  auto none = Table::Make(Schema({{"f", format::Float64()}}),
                          {Column::FromDouble(std::vector<double>{})})
                  .ValueOrDie();
  EXPECT_EQ(Eval(Mul(ColRef("f"), LitDouble(2.0)), none)->length(), 0u);
}

TEST(EvalTest, NegateAndUnary) {
  auto t = TestTable();
  auto c = Eval(Negate(ColRef("i")), t);
  EXPECT_EQ(c->data<int64_t>()[2], -3);
}

// ---------------------------------------------------------------------------
// Evaluation: NULL semantics
// ---------------------------------------------------------------------------

TablePtr NullTable() {
  return Table::Make(Schema({{"x", format::Int64()}, {"y", format::Int64()}}),
                     {Column::FromInt64({1, 2, 3}, {true, false, true}),
                      Column::FromInt64({10, 20, 30}, {true, true, false})})
      .ValueOrDie();
}

TEST(EvalTest, ArithmeticPropagatesNulls) {
  auto t = NullTable();
  auto c = Eval(Add(ColRef("x"), ColRef("y")), t);
  EXPECT_FALSE(c->IsNull(0));
  EXPECT_TRUE(c->IsNull(1));
  EXPECT_TRUE(c->IsNull(2));
  EXPECT_EQ(c->data<int64_t>()[0], 11);
}

TEST(EvalTest, ComparisonPropagatesNulls) {
  auto t = NullTable();
  auto c = Eval(Lt(ColRef("x"), ColRef("y")), t);
  EXPECT_FALSE(c->IsNull(0));
  EXPECT_TRUE(c->IsNull(1));
}

TEST(EvalTest, KleeneAndOr) {
  // x: 1, NULL, 3 ; conditions crafted to exercise three-valued logic.
  auto t = NullTable();
  // (x > 0) AND (x > 2): row1 true&&NULL -> NULL; row2 NULL&&NULL -> NULL.
  auto c = Eval(And(Gt(ColRef("x"), LitInt(0)), Gt(ColRef("x"), LitInt(2))), t);
  EXPECT_EQ(c->data<uint8_t>()[0], 0);  // 1 > 2 false => false AND
  EXPECT_TRUE(c->IsNull(1));
  EXPECT_EQ(c->data<uint8_t>()[2], 1);

  // Row 0: FALSE AND TRUE -> FALSE (never NULL).
  auto f = Eval(And(Lt(ColRef("x"), LitInt(-5)), Gt(ColRef("x"), LitInt(0))),
                NullTable());
  EXPECT_EQ(f->data<uint8_t>()[0], 0);
  EXPECT_FALSE(f->IsNull(0));

  // TRUE OR NULL == TRUE; NULL OR TRUE == TRUE.
  auto o = Eval(Or(Gt(ColRef("y"), LitInt(0)), Gt(ColRef("x"), LitInt(0))),
                NullTable());
  EXPECT_EQ(o->data<uint8_t>()[1], 1);  // y=20 TRUE OR (x NULL)
  EXPECT_FALSE(o->IsNull(1));
  EXPECT_EQ(o->data<uint8_t>()[2], 1);  // (y NULL) OR x=3>0 TRUE
  EXPECT_FALSE(o->IsNull(2));
}

TEST(EvalTest, KleeneTruthTableExact) {
  // Explicit 3x3 truth table via builders.
  format::ColumnBuilder ab(format::Bool()), bb(format::Bool());
  const int kTrue = 1, kFalse = 0, kNull = -1;
  std::vector<std::pair<int, int>> rows;
  for (int a : {kTrue, kFalse, kNull}) {
    for (int b : {kTrue, kFalse, kNull}) rows.push_back({a, b});
  }
  for (auto [a, b] : rows) {
    if (a == kNull) {
      ab.AppendNull();
    } else {
      ab.AppendBool(a == kTrue);
    }
    if (b == kNull) {
      bb.AppendNull();
    } else {
      bb.AppendBool(b == kTrue);
    }
  }
  auto t = Table::Make(Schema({{"a", format::Bool()}, {"b", format::Bool()}}),
                       {ab.Finish(), bb.Finish()})
               .ValueOrDie();
  auto andc = Eval(And(ColRef("a"), ColRef("b")), t);
  auto orc = Eval(Or(ColRef("a"), ColRef("b")), t);
  auto expect = [&](const ColumnPtr& c, size_t row, int want) {
    if (want == kNull) {
      EXPECT_TRUE(c->IsNull(row)) << row;
    } else {
      ASSERT_FALSE(c->IsNull(row)) << row;
      EXPECT_EQ(c->data<uint8_t>()[row], want == kTrue ? 1 : 0) << row;
    }
  };
  // rows: TT TF TN FT FF FN NT NF NN
  expect(andc, 0, kTrue);
  expect(andc, 1, kFalse);
  expect(andc, 2, kNull);
  expect(andc, 3, kFalse);
  expect(andc, 4, kFalse);
  expect(andc, 5, kFalse);
  expect(andc, 6, kNull);
  expect(andc, 7, kFalse);
  expect(andc, 8, kNull);
  expect(orc, 0, kTrue);
  expect(orc, 1, kTrue);
  expect(orc, 2, kTrue);
  expect(orc, 3, kTrue);
  expect(orc, 4, kFalse);
  expect(orc, 5, kNull);
  expect(orc, 6, kTrue);
  expect(orc, 7, kNull);
  expect(orc, 8, kNull);
}

TEST(EvalTest, IsNullNeverReturnsNull) {
  auto t = NullTable();
  auto c = Eval(IsNull(ColRef("x")), t);
  EXPECT_EQ(c->null_count(), 0u);
  EXPECT_EQ(c->data<uint8_t>()[1], 1);
  auto n = Eval(IsNotNull(ColRef("x")), t);
  EXPECT_EQ(n->data<uint8_t>()[1], 0);
}

TEST(EvalTest, NotPropagatesNull) {
  auto t = NullTable();
  auto c = Eval(Not(Gt(ColRef("x"), LitInt(1))), t);
  EXPECT_EQ(c->data<uint8_t>()[0], 1);
  EXPECT_TRUE(c->IsNull(1));
}

// ---------------------------------------------------------------------------
// Evaluation: strings, dates, CASE, IN
// ---------------------------------------------------------------------------

TEST(EvalTest, StringComparison) {
  auto t = TestTable();
  auto c = Eval(Eq(ColRef("s"), LitString("banana")), t);
  EXPECT_EQ(c->data<uint8_t>()[0], 0);
  EXPECT_EQ(c->data<uint8_t>()[1], 1);
  auto lt = Eval(Lt(ColRef("s"), LitString("b")), t);
  EXPECT_EQ(lt->data<uint8_t>()[0], 1);  // "apple pie" < "b"
}

TEST(EvalTest, LikeAndNotLike) {
  auto t = TestTable();
  auto c = Eval(Like(ColRef("s"), "%an%"), t);
  EXPECT_EQ(c->data<uint8_t>()[0], 0);
  EXPECT_EQ(c->data<uint8_t>()[1], 1);
  auto n = Eval(NotLike(ColRef("s"), "%an%"), t);
  EXPECT_EQ(n->data<uint8_t>()[1], 0);
  EXPECT_EQ(n->data<uint8_t>()[2], 1);
}

TEST(EvalTest, SubstringOneBased) {
  auto t = TestTable();
  auto c = Eval(Substring(ColRef("s"), 1, 2), t);
  EXPECT_EQ(c->StringAt(0), "ap");
  EXPECT_EQ(c->StringAt(1), "ba");
  auto mid = Eval(Substring(ColRef("s"), 3, 3), t);
  EXPECT_EQ(mid->StringAt(2), "err");
  auto past = Eval(Substring(ColRef("s"), 100, 5), t);
  EXPECT_EQ(past->StringAt(0), "");
}

TEST(EvalTest, ExtractYearValues) {
  auto t = TestTable();
  auto c = Eval(ExtractYear(ColRef("dt")), t);
  EXPECT_EQ(c->data<int64_t>()[0], 1994);
  EXPECT_EQ(c->data<int64_t>()[2], 1996);
}

TEST(EvalTest, DateComparisons) {
  auto t = TestTable();
  auto c = Eval(Lt(ColRef("dt"), LitDate("1995-01-01")), t);
  EXPECT_EQ(c->data<uint8_t>()[0], 1);
  EXPECT_EQ(c->data<uint8_t>()[1], 0);
}

TEST(EvalTest, CaseWhenElse) {
  auto t = TestTable();
  auto e = CaseWhen({Gt(ColRef("i"), LitInt(2)), LitString("big"),
                     Gt(ColRef("i"), LitInt(1)), LitString("mid"),
                     LitString("small")});
  auto c = Eval(e, t);
  EXPECT_EQ(c->StringAt(0), "small");
  EXPECT_EQ(c->StringAt(1), "mid");
  EXPECT_EQ(c->StringAt(2), "big");
}

TEST(EvalTest, CaseWithoutElseYieldsNull) {
  auto t = TestTable();
  auto e = CaseWhen({Gt(ColRef("i"), LitInt(2)), LitInt(1)});
  auto c = Eval(e, t);
  EXPECT_TRUE(c->IsNull(0));
  EXPECT_EQ(c->data<int64_t>()[2], 1);
}

TEST(EvalTest, InList) {
  auto t = TestTable();
  auto c = Eval(InList(ColRef("i"), {Scalar::FromInt64(1), Scalar::FromInt64(3)}),
                t);
  EXPECT_EQ(c->data<uint8_t>()[0], 1);
  EXPECT_EQ(c->data<uint8_t>()[1], 0);
  EXPECT_EQ(c->data<uint8_t>()[2], 1);
  auto s = Eval(InList(ColRef("s"), {Scalar::FromString("banana")}), t);
  EXPECT_EQ(s->data<uint8_t>()[1], 1);
}

TEST(EvalTest, CastDouble) {
  auto t = TestTable();
  auto c = Eval(CastDouble(ColRef("d")), t);
  EXPECT_DOUBLE_EQ(c->data<double>()[0], 1.5);
}

TEST(EvalTest, LiteralBroadcast) {
  auto t = TestTable();
  auto c = Eval(LitInt(42), t);
  EXPECT_EQ(c->length(), 3u);
  EXPECT_EQ(c->data<int64_t>()[2], 42);
}

// ---------------------------------------------------------------------------
// LIKE matcher (property-ish sweep)
// ---------------------------------------------------------------------------

TEST(LikeMatchTest, Exact) {
  EXPECT_TRUE(LikeMatch("abc", "abc"));
  EXPECT_FALSE(LikeMatch("abc", "abd"));
  EXPECT_FALSE(LikeMatch("abc", "ab"));
  EXPECT_FALSE(LikeMatch("ab", "abc"));
}

TEST(LikeMatchTest, Percent) {
  EXPECT_TRUE(LikeMatch("abc", "%"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_TRUE(LikeMatch("abcdef", "abc%"));
  EXPECT_TRUE(LikeMatch("abcdef", "%def"));
  EXPECT_TRUE(LikeMatch("abcdef", "%cd%"));
  EXPECT_TRUE(LikeMatch("abcdef", "a%f"));
  EXPECT_FALSE(LikeMatch("abcdef", "a%g"));
  EXPECT_TRUE(LikeMatch("special packages requests", "%special%requests%"));
  EXPECT_FALSE(LikeMatch("special packages", "%special%requests%"));
}

TEST(LikeMatchTest, Underscore) {
  EXPECT_TRUE(LikeMatch("abc", "a_c"));
  EXPECT_FALSE(LikeMatch("abc", "a_d"));
  EXPECT_TRUE(LikeMatch("abc", "___"));
  EXPECT_FALSE(LikeMatch("abc", "____"));
  EXPECT_TRUE(LikeMatch("abc", "_%"));
  EXPECT_FALSE(LikeMatch("", "_"));
}

TEST(LikeMatchTest, Backtracking) {
  EXPECT_TRUE(LikeMatch("aaab", "%ab"));
  EXPECT_TRUE(LikeMatch("abababab", "%ab%ab"));
  EXPECT_TRUE(LikeMatch("mississippi", "%iss%ppi"));
  EXPECT_FALSE(LikeMatch("mississippi", "%iss%ppq"));
}

// ---------------------------------------------------------------------------
// Misc: clone / rendering / op count
// ---------------------------------------------------------------------------

TEST(ExprTest, CloneIsDeep) {
  auto e = Add(ColRef("a"), LitInt(1));
  auto c = e->Clone();
  c->children[1]->literal = Scalar::FromInt64(99);
  EXPECT_EQ(e->children[1]->literal.int_value(), 1);
}

TEST(ExprTest, ToStringRendersStructure) {
  auto e = And(Gt(ColRef("x"), LitInt(1)), Like(ColRef("s"), "%a%"));
  EXPECT_EQ(e->ToString(), "((x > 1) AND s LIKE '%a%')");
}

TEST(ExprTest, CollectColumnsDeduplicates) {
  auto e = Add(ColIdx(3, format::Int64()),
               Mul(ColIdx(3, format::Int64()), ColIdx(5, format::Int64())));
  std::vector<int> cols;
  e->CollectColumns(&cols);
  EXPECT_EQ(cols, (std::vector<int>{3, 5}));
}

TEST(ExprTest, ConjoinAll) {
  EXPECT_EQ(ConjoinAll({}), nullptr);
  auto one = ConjoinAll({LitInt(1)});
  EXPECT_EQ(one->kind, ExprKind::kLiteral);
  auto two = ConjoinAll({Gt(ColRef("a"), LitInt(1)), Lt(ColRef("a"), LitInt(5))});
  EXPECT_EQ(two->bop, BinaryOp::kAnd);
}

}  // namespace
}  // namespace sirius::expr
