// Unit tests for expressions: construction, binding/type inference,
// columnar evaluation, SQL NULL semantics, LIKE matching, and a seeded
// property test against the row-at-a-time reference evaluator.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <random>

#include "expr/eval.h"
#include "expr/expr.h"
#include "expr/udf.h"
#include "expr_reference.h"
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
// Property: the column-at-a-time evaluator produces the same bytes as the
// row-at-a-time reference evaluator (tests/expr_reference.cc) on random bound
// expressions over random tables.
// ---------------------------------------------------------------------------

using Rng = std::mt19937_64;

size_t Pick(Rng& rng, size_t n) { return static_cast<size_t>(rng() % n); }
bool Chance(Rng& rng, int percent) { return static_cast<int>(rng() % 100) < percent; }

const std::vector<std::string>& Words() {
  static const std::vector<std::string> words = {
      "",    "abc",   "xabc",  "abcx",  "xabcx", "ac",    "a_c",  "aXc",
      "e",   "en",    "green", "seven", "ABC",   "abcabc", "%",   "abc%"};
  return words;
}

// Columns: one per physical type the evaluator dispatches on.
Schema PropertySchema() {
  return Schema({{"b", format::Bool()},
                 {"i32", format::Int32()},
                 {"i64", format::Int64()},
                 {"f", format::Float64()},
                 {"d2", format::Decimal(2)},
                 {"d4", format::Decimal(4)},
                 {"dt", format::Date32()},
                 {"s", format::String()}});
}

// Largest |raw value| of each column (the magnitude guard below uses them).
const double kColumnBound[] = {1, 100, 100, 50, 10000, 1000000, 40000, 0};

TablePtr RandomTable(Rng& rng, size_t rows, bool nulls) {
  Schema schema = PropertySchema();
  format::TableBuilder tb(schema);
  const int32_t base_day = format::ParseDate("1992-01-01");
  auto sym = [&](int64_t bound) {
    return static_cast<int64_t>(rng() % (2 * bound + 1)) - bound;
  };
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    format::ColumnBuilder& b = tb.column(c);
    for (size_t r = 0; r < rows; ++r) {
      if (nulls && Chance(rng, 20)) {
        b.AppendNull();
        continue;
      }
      switch (c) {
        case 0: b.AppendBool(Chance(rng, 50)); break;
        case 1: b.AppendInt(Chance(rng, 15) ? 0 : sym(100)); break;
        case 2: b.AppendInt(Chance(rng, 15) ? 0 : sym(100)); break;
        case 3: b.AppendDouble(static_cast<double>(sym(200)) / 4.0); break;
        case 4: b.AppendInt(Chance(rng, 15) ? 0 : sym(10000)); break;
        case 5: b.AppendInt(sym(1000000)); break;
        case 6: b.AppendInt(base_day + static_cast<int64_t>(rng() % 3000)); break;
        default: b.AppendString(Words()[Pick(rng, Words().size())]);
      }
    }
  }
  return tb.Finish().ValueOrDie();
}

enum class Want { kBool, kNumeric, kString, kDate };

ExprPtr NullLiteral(Rng& rng) {
  const format::DataType types[] = {format::Bool(),       format::Int32(),
                                    format::Int64(),      format::Float64(),
                                    format::Decimal(2),   format::Date32(),
                                    format::String()};
  return Lit(Scalar::Null(types[Pick(rng, 7)]));
}

ExprPtr Leaf(Rng& rng, Want want) {
  if (Chance(rng, 8)) return NullLiteral(rng);
  const bool literal = Chance(rng, 40);
  switch (want) {
    case Want::kBool:
      return literal ? Lit(Scalar::FromBool(Chance(rng, 50))) : ColRef("b");
    case Want::kString:
      return literal ? LitString(Words()[Pick(rng, Words().size())]) : ColRef("s");
    case Want::kDate:
      return literal ? LitDate("1994-03-01") : ColRef("dt");
    case Want::kNumeric:
      break;
  }
  if (!literal) {
    const char* cols[] = {"i32", "i64", "f", "d2", "d4", "b"};
    return ColRef(cols[Pick(rng, 6)]);
  }
  switch (Pick(rng, 6)) {
    case 0: return LitInt(static_cast<int64_t>(Pick(rng, 7)) - 3);  // zero too
    case 1: return Lit(Scalar::FromInt32(static_cast<int32_t>(Pick(rng, 50))));
    case 2: return LitDouble(Chance(rng, 30) ? 0.0 : 1.5);
    case 3: return LitDecimal(Chance(rng, 30) ? "0" : "0.05", 2);
    case 4: return LitDecimal("1.2500", 4);
    default: return LitInt(2);
  }
}

std::vector<Scalar> InItems(Rng& rng) {
  const std::vector<Scalar> pool = {
      Scalar::Null(format::Int64()), Scalar::FromInt64(0),
      Scalar::FromInt64(-3),         Scalar::FromInt64(1),
      Scalar::FromInt32(7),          Scalar::FromDecimal(150, 2),
      Scalar::FromDecimal(25000, 4), Scalar::FromDecimal(300, 2),
      Scalar::FromDouble(1.5),       Scalar::FromString("abc"),
      Scalar::FromString("green"),   Scalar::FromString(""),
      Scalar::FromBool(true),        Scalar::FromDate(format::ParseDate("1994-03-01")),
      Scalar::Null(format::String())};
  std::vector<Scalar> items;
  const size_t count = 1 + Pick(rng, 4);
  for (size_t i = 0; i < count; ++i) items.push_back(pool[Pick(rng, pool.size())]);
  return items;
}

const char* const kLikePatterns[] = {"abc", "abc%", "%abc", "%abc%", "%",
                                     "%%",  "",     "a_c",  "%e%n"};

Want AnyWant(Rng& rng) { return static_cast<Want>(Pick(rng, 4)); }

// A random expression producing `want`, at most `depth` levels deep. It is
// type-directed but not type-checked: some trees fail to bind or to
// evaluate, and both evaluators must then fail with the same code.
ExprPtr Gen(Rng& rng, Want want, int depth) {
  if (depth == 0 || Chance(rng, 25)) return Leaf(rng, want);
  const int d = depth - 1;
  if (Chance(rng, 5)) {  // CASE of any shape
    std::vector<ExprPtr> kids;
    const size_t pairs = 1 + Pick(rng, 2);
    for (size_t p = 0; p < pairs; ++p) {
      kids.push_back(Gen(rng, Chance(rng, 90) ? Want::kBool : AnyWant(rng), d));
      kids.push_back(Gen(rng, want, d));
    }
    if (Chance(rng, 60)) kids.push_back(Gen(rng, Chance(rng, 90) ? want : AnyWant(rng), d));
    return CaseWhen(std::move(kids));
  }
  switch (want) {
    case Want::kBool:
      switch (Pick(rng, 7)) {
        case 0: {  // comparison, mostly between compatible types
          const Want side = Chance(rng, 90) ? AnyWant(rng) : Want::kNumeric;
          const auto op = static_cast<BinaryOp>(
              static_cast<int>(BinaryOp::kEq) + static_cast<int>(Pick(rng, 6)));
          return Binary(op, Gen(rng, side, d),
                        Gen(rng, Chance(rng, 90) ? side : AnyWant(rng), d));
        }
        case 1:
          return Binary(Chance(rng, 50) ? BinaryOp::kAnd : BinaryOp::kOr,
                        Gen(rng, Want::kBool, d), Gen(rng, Want::kBool, d));
        case 2:
          return Not(Gen(rng, Chance(rng, 85) ? Want::kBool : AnyWant(rng), d));
        case 3:
          return Chance(rng, 50) ? IsNull(Gen(rng, AnyWant(rng), d))
                                 : IsNotNull(Gen(rng, AnyWant(rng), d));
        case 4: {
          const char* pattern = kLikePatterns[Pick(rng, 9)];
          return Chance(rng, 50) ? Like(Gen(rng, Want::kString, d), pattern)
                                 : NotLike(Gen(rng, Want::kString, d), pattern);
        }
        case 5:
          return InList(Gen(rng, AnyWant(rng), d), InItems(rng));
        default:
          return Leaf(rng, want);
      }
    case Want::kNumeric:
      switch (Pick(rng, 7)) {
        case 0:
        case 1:
        case 2: {
          const BinaryOp ops[] = {BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul,
                                  BinaryOp::kDiv};
          return Binary(ops[Pick(rng, 4)], Gen(rng, Want::kNumeric, d),
                        Gen(rng, Chance(rng, 95) ? Want::kNumeric : AnyWant(rng), d));
        }
        case 3:
          return Negate(Gen(rng, Chance(rng, 90) ? Want::kNumeric : AnyWant(rng), d));
        case 4:
          return CastDouble(Gen(rng, Chance(rng, 90) ? Want::kNumeric : AnyWant(rng), d));
        case 5: {
          auto e = std::make_shared<Expr>();
          e->kind = ExprKind::kFunction;
          e->fop = Chance(rng, 50) ? FuncOp::kCastInt64 : FuncOp::kExtractYear;
          e->children = {Gen(rng, e->fop == FuncOp::kExtractYear ? Want::kDate
                                                                 : Want::kNumeric,
                             d)};
          return e;
        }
        default:
          return Udf("prop_sign", {Gen(rng, AnyWant(rng), d)});
      }
    case Want::kString:
      if (Chance(rng, 60)) {
        const int64_t starts[] = {-1, 0, 1, 2, 5};
        const int64_t lens[] = {-1, 0, 1, 3, 10};
        return Substring(Gen(rng, Want::kString, d), starts[Pick(rng, 5)],
                         lens[Pick(rng, 5)]);
      }
      return Leaf(rng, want);
    case Want::kDate:
      if (Chance(rng, 50)) {
        return Binary(Chance(rng, 50) ? BinaryOp::kAdd : BinaryOp::kSub,
                      Gen(rng, Want::kDate, d), LitInt(static_cast<int64_t>(Pick(rng, 60))));
      }
      return Leaf(rng, want);
  }
  return Leaf(rng, want);
}

int ScaleOf(const format::DataType& t) { return t.is_decimal() ? t.scale : 0; }

// An upper bound on the |raw value| of a bound expression, folding every
// integer intermediate (scale alignment included) into *max_seen. Trees
// whose bound stays far from 2^63 cannot overflow, so neither evaluator
// trips UBSan's signed-overflow check.
double Magnitude(const Expr& e, double* max_seen) {
  auto note = [&](double v) {
    *max_seen = std::max(*max_seen, v);
    return v;
  };
  auto lifted = [&](const Expr& a, const Expr& b, double* ma, double* mb) {
    const int s = std::max(ScaleOf(a.type), ScaleOf(b.type));
    *ma = note(Magnitude(a, max_seen) * std::pow(10.0, s - ScaleOf(a.type)));
    *mb = note(Magnitude(b, max_seen) * std::pow(10.0, s - ScaleOf(b.type)));
  };
  switch (e.kind) {
    case ExprKind::kColumnRef:
      return kColumnBound[e.column_index];
    case ExprKind::kLiteral:
      if (e.literal.is_null() || e.literal.type().is_string()) return 0;
      if (e.literal.type().id == format::TypeId::kFloat64) {
        return std::fabs(e.literal.double_value());
      }
      return std::fabs(static_cast<double>(e.literal.int_value()));
    case ExprKind::kBinary: {
      double a = 0, b = 0;
      switch (e.bop) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
          lifted(*e.children[0], *e.children[1], &a, &b);
          return note(a + b);
        case BinaryOp::kMul:
          return note(Magnitude(*e.children[0], max_seen) *
                      Magnitude(*e.children[1], max_seen));
        case BinaryOp::kDiv:  // nonzero denominators are at least 1e-4
          Magnitude(*e.children[1], max_seen);
          return note(Magnitude(*e.children[0], max_seen) * 1e4);
        default:
          lifted(*e.children[0], *e.children[1], &a, &b);
          return 1;
      }
    }
    case ExprKind::kUnary:
      return e.uop == UnaryOp::kNegate ? Magnitude(*e.children[0], max_seen)
                                       : (Magnitude(*e.children[0], max_seen), 1);
    case ExprKind::kFunction: {
      const double m = Magnitude(*e.children[0], max_seen);
      if (e.fop == FuncOp::kCastDouble || e.fop == FuncOp::kCastInt64) return m;
      return e.fop == FuncOp::kExtractYear ? 10000 : 1;
    }
    case ExprKind::kInList: {
      const double m = Magnitude(*e.children[0], max_seen);
      for (const Scalar& item : e.in_list) {
        if (item.is_null() || item.type().is_string()) continue;
        const int s = std::max(ScaleOf(e.children[0]->type), ScaleOf(item.type()));
        note(m * std::pow(10.0, s - ScaleOf(e.children[0]->type)));
      }
      return 1;
    }
    case ExprKind::kCase:
    case ExprKind::kUdf: {
      double m = 1;
      for (const auto& c : e.children) m = std::max(m, Magnitude(*c, max_seen));
      return m;
    }
  }
  return 0;
}

void ExpectSameBytes(const Column& got, const Column& want, const std::string& what) {
  ASSERT_EQ(got.type(), want.type()) << what;
  ASSERT_EQ(got.length(), want.length()) << what;
  ASSERT_EQ(got.null_count(), want.null_count()) << what;
  ASSERT_EQ(got.MemoryUsage(), want.MemoryUsage()) << what;
  ASSERT_EQ(got.data_size(), want.data_size()) << what;
  const size_t n = want.length();
  ASSERT_EQ(got.validity() == nullptr, want.validity() == nullptr) << what;
  if (want.validity() != nullptr) {
    ASSERT_EQ(std::memcmp(got.validity(), want.validity(), bit::BytesForBits(n)), 0)
        << what;
  }
  if (want.type().is_string()) {
    ASSERT_EQ(std::memcmp(got.offsets(), want.offsets(), (n + 1) * sizeof(int64_t)), 0)
        << what;
    ASSERT_EQ(got.chars_size(), want.chars_size()) << what;
    if (want.chars_size() > 0) {
      ASSERT_EQ(std::memcmp(got.chars(), want.chars(), want.chars_size()), 0) << what;
    }
    return;
  }
  if (n == 0) return;
  const size_t width = want.data_size() / n;
  for (size_t k = 0; k < n; ++k) {
    if (want.IsNull(k)) continue;
    ASSERT_EQ(std::memcmp(got.data<uint8_t>() + k * width,
                          want.data<uint8_t>() + k * width, width),
              0)
        << what << " row " << k;
  }
}

// Operator names, for the coverage check.
std::string OpName(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kBinary:
      return "bin" + std::to_string(static_cast<int>(e.bop));
    case ExprKind::kUnary:
      return "un" + std::to_string(static_cast<int>(e.uop));
    case ExprKind::kFunction:
      return "fn" + std::to_string(static_cast<int>(e.fop));
    case ExprKind::kCase:
      return "case";
    case ExprKind::kInList:
      return "in";
    case ExprKind::kUdf:
      return "udf";
    default:
      return "";
  }
}

void CountOps(const Expr& e, std::map<std::string, int>* seen) {
  const std::string name = OpName(e);
  if (!name.empty()) ++(*seen)[name];
  for (const auto& c : e.children) CountOps(*c, seen);
}

TEST(EvalPropertyTest, MatchesRowAtATimeReference) {
  UdfDefinition sign;
  sign.name = "prop_sign";
  sign.arity = 1;
  sign.return_type = format::Int64();
  sign.fn = [](const std::vector<Scalar>& args) -> Result<Scalar> {
    if (args[0].is_null()) return Scalar::Null(format::Int64());
    const double v = args[0].AsDouble();
    return Scalar::FromInt64(v > 0 ? 1 : (v < 0 ? -1 : 0));
  };
  SIRIUS_CHECK_OK(UdfRegistry::Global()->Register(sign));

  const size_t kLengths[] = {0, 1, 2, 7, 8, 9, 15, 16, 17, 33, 63, 64, 65, 70};
  std::map<std::string, int> evaluated;  // operator -> trees that evaluated OK
  int compared = 0, errors = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const size_t rows = seed % 3 == 0 ? Pick(rng, 71) : kLengths[seed % 14];
    const TablePtr t = RandomTable(rng, rows, /*nulls=*/seed % 2 == 0);
    for (int trial = 0; trial < 150; ++trial) {
      ExprPtr e = Gen(rng, AnyWant(rng), 3);
      if (!Bind(e, t->schema()).ok()) continue;
      double max_seen = 0;
      Magnitude(*e, &max_seen);
      if (max_seen > 1e15) continue;
      const std::string what = "seed " + std::to_string(seed) + " rows " +
                               std::to_string(rows) + ": " + e->ToString();
      auto got = Evaluate(*e, *t);
      auto want = reference::Evaluate(*e, *t);
      ASSERT_EQ(got.ok(), want.ok()) << what;
      ++compared;
      if (!want.ok()) {
        EXPECT_EQ(got.status().code(), want.status().code()) << what;
        ++errors;
        continue;
      }
      ExpectSameBytes(*got.ValueOrDie(), *want.ValueOrDie(), what);
      if (::testing::Test::HasFatalFailure()) return;
      CountOps(*e, &evaluated);
    }
  }
  SIRIUS_CHECK_OK(UdfRegistry::Global()->Unregister("prop_sign"));

  // The sweep is only as good as its coverage: every operator must have
  // evaluated successfully, and some trees must have failed on purpose.
  EXPECT_GT(compared, 2000);
  EXPECT_GT(errors, 0);
  for (int op = 0; op <= static_cast<int>(BinaryOp::kOr); ++op) {
    EXPECT_GT(evaluated["bin" + std::to_string(op)], 0) << "BinaryOp " << op;
  }
  for (int op = 0; op <= static_cast<int>(UnaryOp::kIsNotNull); ++op) {
    EXPECT_GT(evaluated["un" + std::to_string(op)], 0) << "UnaryOp " << op;
  }
  for (int op = 0; op <= static_cast<int>(FuncOp::kCastInt64); ++op) {
    EXPECT_GT(evaluated["fn" + std::to_string(op)], 0) << "FuncOp " << op;
  }
  EXPECT_GT(evaluated["case"], 0);
  EXPECT_GT(evaluated["in"], 0);
  EXPECT_GT(evaluated["udf"], 0);
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
