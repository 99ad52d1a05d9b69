// Unit tests for the columnar format: types, scalars, columns, tables,
// builders, date/decimal behaviour.

#include <gtest/gtest.h>

#include "format/builder.h"
#include "format/column.h"
#include "format/table.h"
#include "format/types.h"

namespace sirius::format {
namespace {

TEST(TypesTest, ByteWidths) {
  EXPECT_EQ(Bool().byte_width(), 1);
  EXPECT_EQ(Int32().byte_width(), 4);
  EXPECT_EQ(Date32().byte_width(), 4);
  EXPECT_EQ(Int64().byte_width(), 8);
  EXPECT_EQ(Float64().byte_width(), 8);
  EXPECT_EQ(Decimal(2).byte_width(), 8);
  EXPECT_EQ(String().byte_width(), 8);
}

TEST(TypesTest, Equality) {
  EXPECT_EQ(Decimal(2), Decimal(2));
  EXPECT_NE(Decimal(2), Decimal(4));
  EXPECT_NE(Int64(), Int32());
}

TEST(TypesTest, DecimalPow10) {
  EXPECT_EQ(DecimalPow10(0), 1);
  EXPECT_EQ(DecimalPow10(2), 100);
  EXPECT_EQ(DecimalPow10(18), 1000000000000000000LL);
}

TEST(DateTest, CivilRoundTrip) {
  for (int32_t days : {0, 1, -1, 8035, 9298, 10000, -30000}) {
    int y, m, d;
    CivilFromDays(days, &y, &m, &d);
    EXPECT_EQ(DaysFromCivil(y, m, d), days);
  }
}

TEST(DateTest, KnownDates) {
  EXPECT_EQ(DaysFromCivil(1970, 1, 1), 0);
  EXPECT_EQ(DaysFromCivil(1992, 1, 1), 8035);
  EXPECT_EQ(DaysFromCivil(1995, 6, 17), 9298);
  EXPECT_EQ(ParseDate("1995-03-15"), DaysFromCivil(1995, 3, 15));
  EXPECT_EQ(FormatDate(DaysFromCivil(1998, 12, 1)), "1998-12-01");
}

TEST(DateTest, ParseRejectsMalformed) {
  EXPECT_EQ(ParseDate("not-a-date"), INT32_MIN);
  EXPECT_EQ(ParseDate("1995-13-01"), INT32_MIN);
  EXPECT_EQ(ParseDate("1995-00-10"), INT32_MIN);
}

TEST(ScalarTest, NullBehaviour) {
  Scalar s = Scalar::Null(Decimal(2));
  EXPECT_TRUE(s.is_null());
  EXPECT_EQ(s.ToString(), "NULL");
  EXPECT_TRUE(s == Scalar::Null(Decimal(2)));
  EXPECT_FALSE(s == Scalar::FromInt64(0));
}

TEST(ScalarTest, DecimalRendering) {
  EXPECT_EQ(Scalar::FromDecimal(12345, 2).ToString(), "123.45");
  EXPECT_EQ(Scalar::FromDecimal(5, 2).ToString(), "0.05");
  EXPECT_EQ(Scalar::FromDecimal(-12345, 2).ToString(), "-123.45");
  EXPECT_EQ(Scalar::FromDecimal(7, 0).ToString(), "7");
}

TEST(ScalarTest, DecimalCrossScaleEquality) {
  EXPECT_TRUE(Scalar::FromDecimal(100, 2) == Scalar::FromDecimal(1000, 3));
  EXPECT_FALSE(Scalar::FromDecimal(100, 2) == Scalar::FromDecimal(101, 2));
  EXPECT_TRUE(Scalar::FromDecimal(500, 2) == Scalar::FromInt64(5));
}

TEST(ScalarTest, AsDouble) {
  EXPECT_DOUBLE_EQ(Scalar::FromDecimal(150, 2).AsDouble(), 1.5);
  EXPECT_DOUBLE_EQ(Scalar::FromInt64(3).AsDouble(), 3.0);
  EXPECT_DOUBLE_EQ(Scalar::FromDouble(2.5).AsDouble(), 2.5);
}

TEST(ColumnTest, FixedWidthConstruction) {
  ColumnPtr c = Column::FromInt64({1, 2, 3});
  EXPECT_EQ(c->length(), 3u);
  EXPECT_EQ(c->null_count(), 0u);
  EXPECT_EQ(c->data<int64_t>()[1], 2);
  EXPECT_EQ(c->GetScalar(2), Scalar::FromInt64(3));
}

TEST(ColumnTest, NullHandling) {
  ColumnPtr c = Column::FromInt64({1, 2, 3}, {true, false, true});
  EXPECT_EQ(c->null_count(), 1u);
  EXPECT_FALSE(c->IsNull(0));
  EXPECT_TRUE(c->IsNull(1));
  EXPECT_TRUE(c->GetScalar(1).is_null());
}

TEST(ColumnTest, StringLayout) {
  ColumnPtr c = Column::FromStrings({"foo", "", "barbaz"});
  EXPECT_EQ(c->length(), 3u);
  EXPECT_EQ(c->StringAt(0), "foo");
  EXPECT_EQ(c->StringAt(1), "");
  EXPECT_EQ(c->StringAt(2), "barbaz");
  EXPECT_EQ(c->chars_size(), 9u);
  EXPECT_EQ(c->offsets()[3], 9);
}

TEST(ColumnTest, Equality) {
  EXPECT_TRUE(Column::FromInt64({1, 2})->Equals(*Column::FromInt64({1, 2})));
  EXPECT_FALSE(Column::FromInt64({1, 2})->Equals(*Column::FromInt64({1, 3})));
  EXPECT_FALSE(Column::FromInt64({1})->Equals(*Column::FromInt64({1, 2})));
  EXPECT_TRUE(Column::FromStrings({"a"})->Equals(*Column::FromStrings({"a"})));
  EXPECT_FALSE(Column::FromInt64({1})->Equals(*Column::FromInt32({1})));
}

TEST(ColumnTest, MemoryUsageCountsBuffers) {
  ColumnPtr c = Column::FromInt64({1, 2, 3, 4});
  EXPECT_EQ(c->MemoryUsage(), 32u);
  ColumnPtr s = Column::FromStrings({"ab", "cd"});
  EXPECT_EQ(s->MemoryUsage(), 3 * 8 + 4u);
}

TEST(TableTest, MakeValidatesShape) {
  Schema schema({{"a", Int64()}, {"b", String()}});
  auto ok = Table::Make(schema, {Column::FromInt64({1}), Column::FromStrings({"x"})});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.ValueOrDie()->num_rows(), 1u);

  auto bad_count = Table::Make(schema, {Column::FromInt64({1})});
  EXPECT_FALSE(bad_count.ok());

  auto bad_len = Table::Make(
      schema, {Column::FromInt64({1, 2}), Column::FromStrings({"x"})});
  EXPECT_FALSE(bad_len.ok());

  auto bad_type = Table::Make(
      schema, {Column::FromStrings({"x"}), Column::FromStrings({"y"})});
  EXPECT_FALSE(bad_type.ok());
}

TEST(TableTest, ColumnByNameAndSelect) {
  Schema schema({{"a", Int64()}, {"b", Int64()}});
  auto t = Table::Make(schema, {Column::FromInt64({1}), Column::FromInt64({2})})
               .ValueOrDie();
  EXPECT_EQ(t->ColumnByName("b")->data<int64_t>()[0], 2);
  EXPECT_EQ(t->ColumnByName("zzz"), nullptr);
  auto sel = t->SelectColumns({1}).ValueOrDie();
  EXPECT_EQ(sel->num_columns(), 1u);
  EXPECT_EQ(sel->schema().field(0).name, "b");
  EXPECT_FALSE(t->SelectColumns({5}).ok());
}

TEST(TableTest, EqualsUnorderedIgnoresRowOrder) {
  Schema schema({{"a", Int64()}, {"b", String()}});
  auto t1 = Table::Make(schema, {Column::FromInt64({1, 2}),
                                 Column::FromStrings({"x", "y"})})
                .ValueOrDie();
  auto t2 = Table::Make(schema, {Column::FromInt64({2, 1}),
                                 Column::FromStrings({"y", "x"})})
                .ValueOrDie();
  EXPECT_FALSE(t1->Equals(*t2));
  EXPECT_TRUE(t1->EqualsUnordered(*t2));
  auto t3 = Table::Make(schema, {Column::FromInt64({2, 1}),
                                 Column::FromStrings({"x", "y"})})
                .ValueOrDie();
  EXPECT_FALSE(t1->EqualsUnordered(*t3));
}

TEST(BuilderTest, AllTypes) {
  ColumnBuilder ints(Int64());
  ints.AppendInt(7);
  ints.AppendNull();
  ColumnPtr ic = ints.Finish();
  EXPECT_EQ(ic->length(), 2u);
  EXPECT_EQ(ic->null_count(), 1u);
  EXPECT_EQ(ic->data<int64_t>()[0], 7);

  ColumnBuilder strs(String());
  strs.AppendString("hello");
  strs.AppendNull();
  strs.AppendString("world");
  ColumnPtr sc = strs.Finish();
  EXPECT_EQ(sc->StringAt(0), "hello");
  EXPECT_TRUE(sc->IsNull(1));
  EXPECT_EQ(sc->StringAt(2), "world");

  ColumnBuilder dates(Date32());
  dates.AppendInt(ParseDate("1994-01-01"));
  ColumnPtr dc = dates.Finish();
  EXPECT_EQ(dc->type().id, TypeId::kDate32);
  EXPECT_EQ(dc->GetScalar(0).ToString(), "1994-01-01");
}

TEST(BuilderTest, AppendScalarRescalesDecimals) {
  ColumnBuilder b(Decimal(4));
  ASSERT_TRUE(b.AppendScalar(Scalar::FromDecimal(150, 2)).ok());  // 1.50
  ASSERT_TRUE(b.AppendScalar(Scalar::FromInt64(2)).ok());         // 2
  ColumnPtr c = b.Finish();
  EXPECT_EQ(c->data<int64_t>()[0], 15000);
  EXPECT_EQ(c->data<int64_t>()[1], 20000);
}

TEST(BuilderTest, AppendScalarTypeChecks) {
  ColumnBuilder b(String());
  EXPECT_FALSE(b.AppendScalar(Scalar::FromInt64(1)).ok());
  ColumnBuilder n(Int64());
  EXPECT_FALSE(n.AppendScalar(Scalar::FromString("x")).ok());
}

TEST(BuilderTest, FinishResetsState) {
  ColumnBuilder b(Int64());
  b.AppendInt(1);
  EXPECT_EQ(b.Finish()->length(), 1u);
  b.AppendInt(2);
  ColumnPtr second = b.Finish();
  EXPECT_EQ(second->length(), 1u);
  EXPECT_EQ(second->data<int64_t>()[0], 2);
}

TEST(BuilderTest, FinishesEmptyFixedWidthColumns) {
  // Nothing appended: no values to copy (an expression over an empty view
  // finishes columns like these).
  ColumnBuilder ints(Int64());
  ColumnPtr i = ints.Finish();
  EXPECT_EQ(i->length(), 0u);
  EXPECT_EQ(i->type().id, TypeId::kInt64);
  ColumnBuilder doubles(Float64());
  ColumnPtr d = doubles.Finish();
  EXPECT_EQ(d->length(), 0u);
  EXPECT_EQ(d->type().id, TypeId::kFloat64);
}

TEST(TableBuilderTest, BuildsAgainstSchema) {
  Schema schema({{"k", Int64()}, {"v", String()}});
  TableBuilder tb(schema);
  tb.column(0).AppendInt(1);
  tb.column(1).AppendString("one");
  auto t = tb.Finish().ValueOrDie();
  EXPECT_EQ(t->num_rows(), 1u);
  EXPECT_EQ(t->schema().field(1).name, "v");
}

}  // namespace
}  // namespace sirius::format
