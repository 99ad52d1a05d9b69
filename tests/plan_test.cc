// Unit tests for the plan IR: builders, validation, JSON, and the
// Substrait-equivalent serialization round trip (including all 22 TPC-H
// plans).

#include <gtest/gtest.h>

#include "engine/sirius.h"
#include "host/database.h"
#include "plan/json.h"
#include "plan/plan.h"
#include "plan/substrait.h"
#include "tpch/queries.h"

namespace sirius::plan {
namespace {

using expr::ColIdx;
using format::Schema;

Schema TestSchema() {
  return Schema({{"a", format::Int64()},
                 {"b", format::Decimal(2)},
                 {"s", format::String()}});
}

PlanPtr Scan() { return MakeScan("t", TestSchema(), {}).ValueOrDie(); }

// ---------------------------------------------------------------------------
// Builders & validation
// ---------------------------------------------------------------------------

TEST(PlanBuilderTest, ScanProjectsColumns) {
  auto s = MakeScan("t", TestSchema(), {2, 0}).ValueOrDie();
  EXPECT_EQ(s->output_schema.num_fields(), 2u);
  EXPECT_EQ(s->output_schema.field(0).name, "s");
  EXPECT_EQ(s->output_schema.field(1).name, "a");
  EXPECT_FALSE(MakeScan("t", TestSchema(), {5}).ok());
}

TEST(PlanBuilderTest, FilterBindsPredicate) {
  auto f = MakeFilter(Scan(), expr::Gt(expr::ColRef("a"), expr::LitInt(1)));
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f.ValueOrDie()->predicate->children[0]->column_index, 0);
  // Non-bool predicates are rejected by Validate.
  auto bad = MakeFilter(Scan(), expr::Add(expr::ColRef("a"), expr::LitInt(1)));
  ASSERT_TRUE(bad.ok());  // binding succeeds...
  EXPECT_FALSE(bad.ValueOrDie()->Validate().ok());  // ...validation catches it
}

TEST(PlanBuilderTest, ProjectComputesSchema) {
  auto p = MakeProject(Scan(),
                       {expr::Mul(expr::ColRef("b"), expr::ColRef("b")),
                        expr::ColRef("a")},
                       {"b2", "a"})
               .ValueOrDie();
  EXPECT_EQ(p->output_schema.field(0).type, format::Decimal(4));
  EXPECT_EQ(p->output_schema.field(1).type, format::Int64());
}

TEST(PlanBuilderTest, JoinSchemasByType) {
  auto inner = MakeJoin(Scan(), Scan(), JoinType::kInner, {0}, {0}).ValueOrDie();
  EXPECT_EQ(inner->output_schema.num_fields(), 6u);
  auto semi = MakeJoin(Scan(), Scan(), JoinType::kSemi, {0}, {0}).ValueOrDie();
  EXPECT_EQ(semi->output_schema.num_fields(), 3u);
  auto anti = MakeJoin(Scan(), Scan(), JoinType::kAnti, {0}, {0}).ValueOrDie();
  EXPECT_EQ(anti->output_schema.num_fields(), 3u);
  EXPECT_FALSE(MakeJoin(Scan(), Scan(), JoinType::kInner, {0}, {0, 1}).ok());
  EXPECT_FALSE(MakeJoin(Scan(), Scan(), JoinType::kInner, {9}, {0}).ok());
}

TEST(PlanBuilderTest, AggregateOutputTypes) {
  std::vector<AggItem> aggs{{AggFunc::kSum, 1, "s"},
                            {AggFunc::kAvg, 1, "a"},
                            {AggFunc::kCountStar, -1, "c"},
                            {AggFunc::kMin, 2, "m"}};
  auto agg = MakeAggregate(Scan(), {0}, aggs).ValueOrDie();
  EXPECT_EQ(agg->output_schema.field(1).type, format::Decimal(2));  // sum
  EXPECT_EQ(agg->output_schema.field(2).type.id, format::TypeId::kFloat64);
  EXPECT_EQ(agg->output_schema.field(3).type, format::Int64());
  EXPECT_EQ(agg->output_schema.field(4).type, format::String());  // min(s)
}

TEST(PlanBuilderTest, ValidateRecursesAndCountsChildren) {
  auto plan = MakeLimit(MakeSort(Scan(), {{0, true}}).ValueOrDie(), 5).ValueOrDie();
  EXPECT_TRUE(plan->Validate().ok());
  // Corrupt: drop a child.
  auto broken = std::make_shared<PlanNode>(*plan);
  broken->children.clear();
  EXPECT_FALSE(broken->Validate().ok());
}

TEST(PlanBuilderTest, ClonePlanIsDeep) {
  auto f = MakeFilter(Scan(), expr::Gt(expr::ColRef("a"), expr::LitInt(1)))
               .ValueOrDie();
  auto copy = ClonePlan(f);
  copy->predicate->children[1]->literal = format::Scalar::FromInt64(99);
  EXPECT_EQ(f->predicate->children[1]->literal.int_value(), 1);
}

TEST(PlanBuilderTest, ToStringShowsTree) {
  auto f = MakeFilter(Scan(), expr::Gt(expr::ColRef("a"), expr::LitInt(1)))
               .ValueOrDie();
  std::string s = f->ToString();
  EXPECT_NE(s.find("Filter"), std::string::npos);
  EXPECT_NE(s.find("TableScan t"), std::string::npos);
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

TEST(JsonTest, ScalarRoundTrip) {
  Json obj = Json::Object();
  obj.Set("i", Json::Int(-123456789012345LL));
  obj.Set("d", Json::Double(3.25));
  obj.Set("s", Json::Str("he\"llo\n"));
  obj.Set("b", Json::Bool(true));
  obj.Set("n", Json::Null());
  Json arr = Json::Array();
  arr.Append(Json::Int(1));
  arr.Append(Json::Str("two"));
  obj.Set("a", std::move(arr));

  auto parsed = Json::Parse(obj.Dump()).ValueOrDie();
  EXPECT_EQ(parsed["i"].AsInt(), -123456789012345LL);
  EXPECT_DOUBLE_EQ(parsed["d"].AsDouble(), 3.25);
  EXPECT_EQ(parsed["s"].AsString(), "he\"llo\n");
  EXPECT_TRUE(parsed["b"].AsBool());
  EXPECT_TRUE(parsed["n"].is_null());
  EXPECT_EQ(parsed["a"].size(), 2u);
  EXPECT_EQ(parsed["a"].at(1).AsString(), "two");
}

TEST(JsonTest, ParseErrors) {
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(Json::Parse("tru").ok());
  EXPECT_FALSE(Json::Parse("1 2").ok());
  EXPECT_TRUE(Json::Parse("  [ ]  ").ok());
  EXPECT_TRUE(Json::Parse("{}").ok());
}

TEST(JsonTest, MissingKeyIsNull) {
  auto j = Json::Parse("{\"x\": 1}").ValueOrDie();
  EXPECT_TRUE(j["y"].is_null());
  EXPECT_FALSE(j.Has("y"));
  EXPECT_TRUE(j.Has("x"));
}

// ---------------------------------------------------------------------------
// Substrait round trip
// ---------------------------------------------------------------------------

SchemaResolver TestResolver() {
  return [](const std::string& name) -> Result<format::Schema> {
    if (name == "t") return TestSchema();
    return Status::KeyError("no table " + name);
  };
}

TEST(SubstraitTest, ExprRoundTrip) {
  auto e = expr::And(
      expr::Like(expr::ColIdx(2, format::String()), "%x%"),
      expr::InList(expr::ColIdx(0, format::Int64()),
                   {format::Scalar::FromInt64(1), format::Scalar::FromInt64(2)}));
  SIRIUS_CHECK_OK(expr::Bind(e, TestSchema()));
  Json j = SerializeExpr(*e);
  auto back = DeserializeExpr(j).ValueOrDie();
  SIRIUS_CHECK_OK(expr::Bind(back, TestSchema()));
  EXPECT_EQ(back->ToString(), e->ToString());
}

TEST(SubstraitTest, ScalarTypesSurvive) {
  auto lit = expr::Lit(format::Scalar::FromDecimal(-12345, 4));
  auto back = DeserializeExpr(SerializeExpr(*lit)).ValueOrDie();
  EXPECT_TRUE(back->literal == lit->literal);
  auto date = expr::LitDate("1995-06-17");
  auto dback = DeserializeExpr(SerializeExpr(*date)).ValueOrDie();
  EXPECT_TRUE(dback->literal == date->literal);
}

TEST(SubstraitTest, PlanRoundTripPreservesStructure) {
  auto plan =
      MakeLimit(
          MakeSort(
              MakeAggregate(
                  MakeFilter(Scan(), expr::Gt(expr::ColRef("a"), expr::LitInt(1)))
                      .ValueOrDie(),
                  {0}, {{AggFunc::kSum, 1, "s"}})
                  .ValueOrDie(),
              {{1, true}})
              .ValueOrDie(),
          10)
          .ValueOrDie();
  std::string wire = SerializePlan(plan);
  auto back = DeserializePlan(wire, TestResolver()).ValueOrDie();
  EXPECT_EQ(back->ToString(), plan->ToString());
  EXPECT_TRUE(back->output_schema.Equals(plan->output_schema));
}

TEST(SubstraitTest, UnknownVersionRejected) {
  EXPECT_FALSE(DeserializePlan("{\"version\":\"bogus\",\"root\":{}}",
                               TestResolver())
                   .ok());
}

TEST(SubstraitTest, UnknownTableSurfacesResolverError) {
  auto plan = MakeScan("t", TestSchema(), {}).ValueOrDie();
  auto broken = std::make_shared<PlanNode>(*plan);
  broken->table_name = "missing";
  EXPECT_FALSE(DeserializePlan(SerializePlan(broken), TestResolver()).ok());
}

TEST(SubstraitTest, All22TpchPlansRoundTrip) {
  host::Database db;
  SIRIUS_CHECK_OK(tpch::LoadTpch(&db, 0.001));
  auto resolver = [&](const std::string& name) {
    return db.catalog().GetTableSchema(name);
  };
  for (int q = 1; q <= 22; ++q) {
    auto plan = db.PlanSql(tpch::Query(q));
    ASSERT_TRUE(plan.ok()) << "Q" << q;
    std::string wire = SerializePlan(plan.ValueOrDie());
    auto back = DeserializePlan(wire, resolver);
    ASSERT_TRUE(back.ok()) << "Q" << q << ": " << back.status().ToString();
    EXPECT_EQ(back.ValueOrDie()->ToString(), plan.ValueOrDie()->ToString())
        << "Q" << q;
    EXPECT_TRUE(back.ValueOrDie()->output_schema.Equals(
        plan.ValueOrDie()->output_schema))
        << "Q" << q;
  }
}

TEST(PlanTest, MalformedExpressionsAreErrors) {
  // Each predicate parses as plan text but is malformed in a way only
  // expr::Bind sees. Every plan constructor binds its expressions, so both
  // the deserializer and the engine's Substrait entry point must refuse them
  // with an error instead of crashing.
  const std::string col_s = R"({"k":"col","i":2})";
  const std::string col_a = R"({"k":"col","i":0})";
  const std::string lit_int = R"({"k":"lit","v":{"type":{"id":2},"i":5}})";
  const std::string lit_str = R"({"k":"lit","v":{"type":{"id":6},"s":"ab"}})";
  const std::string null_str = R"({"k":"lit","v":{"type":{"id":6},"null":true}})";
  auto eq = [](const std::string& l, const std::string& r) {
    return R"({"k":"bin","op":4,"args":[)" + l + "," + r + "]}";
  };
  const std::vector<std::string> predicates = {
      // LIKE whose pattern is an integer literal.
      R"({"k":"fn","op":0,"args":[)" + col_s + "," + lit_int + "]}",
      // LIKE with one argument.
      R"({"k":"fn","op":0,"args":[)" + col_s + "]}",
      // A binary operator without operands.
      R"({"k":"bin","op":4})",
      // A binary operator with one operand.
      R"({"k":"bin","op":4,"args":[)" + col_a + "]}",
      // NOT LIKE whose pattern is NULL, or a column.
      R"({"k":"fn","op":1,"args":[)" + col_s + "," + null_str + "]}",
      R"({"k":"fn","op":1,"args":[)" + col_s + "," + col_s + "]}",
      // SUBSTRING with a string start, and with two arguments.
      eq(R"({"k":"fn","op":2,"args":[)" + col_s + "," + lit_str + "," +
             lit_int + "]}",
         lit_str),
      eq(R"({"k":"fn","op":2,"args":[)" + col_s + "," + lit_int + "]}", lit_str),
      // NOT without an operand; IN with two.
      R"({"k":"un","op":0})",
      R"({"k":"in","args":[)" + col_a + "," + col_a +
          R"(],"list":[{"type":{"id":2},"i":1}]})",
      // CAST with no operand.
      eq(R"({"k":"fn","op":4})", lit_int),
  };

  host::Database db;
  SIRIUS_CHECK_OK(db.CreateTable(
      "t", format::Table::Make(TestSchema(),
                               {format::Column::FromInt64({1, 2}),
                                format::Column::FromDecimal({100, 250}, 2),
                                format::Column::FromStrings({"abc", "xy"})})
               .ValueOrDie()));
  engine::SiriusEngine eng(&db, {});
  auto plan_text = [](const std::string& predicate) {
    return R"({"version":"sirius-substrait-1","root":{"op":"Filter","inputs":[)"
           R"({"op":"TableScan","table":"t","columns":[0,1,2]}],"predicate":)" +
           predicate + "}}";
  };
  // The same text with well-formed predicates runs.
  for (const std::string& good :
       {eq(col_a, lit_int),
        R"({"k":"fn","op":0,"args":[)" + col_s + "," + lit_str + "]}"}) {
    ASSERT_TRUE(DeserializePlan(plan_text(good), TestResolver()).ok()) << good;
    ASSERT_TRUE(eng.ExecuteSubstrait(plan_text(good)).ok()) << good;
  }
  for (const std::string& predicate : predicates) {
    EXPECT_FALSE(DeserializePlan(plan_text(predicate), TestResolver()).ok())
        << predicate;
    EXPECT_FALSE(eng.ExecuteSubstrait(plan_text(predicate)).ok()) << predicate;
  }
}

TEST(PlanTest, MismatchedJoinKeyTypesAreErrors) {
  // The join kernels read both sides of a key pair with one type, so a key
  // pair of different types must be refused where plans are built, not
  // answered wrongly. Equalities over expressions stay filters.
  host::Database db;
  std::vector<int64_t> big(1000);
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<int64_t>(i);
  std::vector<int32_t> small(200);
  for (size_t i = 0; i < small.size(); ++i) small[i] = static_cast<int32_t>(i * 2);
  std::vector<int64_t> cents(100), basis_points(100);
  for (size_t i = 0; i < cents.size(); ++i) {
    cents[i] = static_cast<int64_t>(i) * 100;          // i.00 at scale 2
    basis_points[i] = static_cast<int64_t>(i) * 10000;  // i.0000 at scale 4
  }
  auto table = [](const std::string& col, format::ColumnPtr c) {
    return format::Table::Make(Schema({{col, c->type()}}), {c}).ValueOrDie();
  };
  SIRIUS_CHECK_OK(db.CreateTable("big64", table("a", format::Column::FromInt64(big))));
  SIRIUS_CHECK_OK(
      db.CreateTable("small32", table("b", format::Column::FromInt32(small))));
  SIRIUS_CHECK_OK(
      db.CreateTable("dec2", table("x", format::Column::FromDecimal(cents, 2))));
  SIRIUS_CHECK_OK(
      db.CreateTable("dec4", table("y", format::Column::FromDecimal(basis_points, 4))));
  std::vector<int32_t> days(100);
  std::vector<int64_t> units(100);
  for (size_t i = 0; i < days.size(); ++i) {
    days[i] = static_cast<int32_t>(i);
    units[i] = static_cast<int64_t>(i);
  }
  SIRIUS_CHECK_OK(db.CreateTable("days", table("d", format::Column::FromDate(days))));
  SIRIUS_CHECK_OK(
      db.CreateTable("dec0", table("z", format::Column::FromDecimal(units, 0))));
  SIRIUS_CHECK_OK(db.CreateTable(
      "trades",
      format::Table::Make(Schema({{"symbol", format::String()},
                                  {"t_time", format::Int64()}}),
                          {format::Column::FromStrings({"A", "A", "B"}),
                           format::Column::FromInt64({3, 10, 4})})
          .ValueOrDie()));
  SIRIUS_CHECK_OK(db.CreateTable(
      "quotes",
      format::Table::Make(Schema({{"q_symbol", format::String()},
                                  {"q_time", format::Int32()}}),
                          {format::Column::FromStrings({"A", "B"}),
                           format::Column::FromInt32({2, 3})})
          .ValueOrDie()));

  const std::vector<std::string> mismatched = {
      "SELECT count(*) FROM big64, small32 WHERE a = b",
      "SELECT count(*) FROM big64 JOIN small32 ON a = b",
      "SELECT count(*) FROM small32 JOIN big64 ON b = a",
      "SELECT count(*) FROM dec2, dec4 WHERE x = y",
      "SELECT symbol, t_time FROM trades ASOF JOIN quotes "
      "ON symbol = q_symbol AND t_time >= q_time",
  };
  engine::SiriusEngine eng(&db, {});
  for (host::Accelerator* accelerator : {static_cast<host::Accelerator*>(nullptr),
                                         static_cast<host::Accelerator*>(&eng)}) {
    db.SetAccelerator(accelerator);
    const std::string engine_name = accelerator == nullptr ? "cpu" : "sirius";
    for (const std::string& sql : mismatched) {
      auto r = db.Query(sql);
      ASSERT_FALSE(r.ok()) << engine_name << ": " << sql;
      EXPECT_EQ(r.status().code(), StatusCode::kTypeError) << engine_name << ": " << sql;
    }
    // The message names both types.
    const std::string msg =
        db.Query("SELECT count(*) FROM big64 JOIN small32 ON a = b").status().message();
    EXPECT_NE(msg.find("INT64"), std::string::npos) << msg;
    EXPECT_NE(msg.find("INT32"), std::string::npos) << msg;

    // Equalities over expressions are filters, and answer correctly.
    auto count = [&](const std::string& sql) {
      auto r = db.Query(sql);
      SIRIUS_CHECK_OK(r.status());
      return r.ValueOrDie().table->column(0)->GetScalar(0).int_value();
    };
    EXPECT_EQ(count("SELECT count(*) FROM big64, small32 WHERE a + 0 = b"), 200)
        << engine_name;
    EXPECT_EQ(count("SELECT count(*) FROM dec2, dec4 WHERE x + 0 = y"), 100)
        << engine_name;
    // Keys stored alike are not mismatched: DATE32 is stored as INT32 and
    // DECIMAL64(0) as INT64, so both pairs join.
    EXPECT_EQ(count("SELECT count(*) FROM small32, days WHERE b = d"), 50)
        << engine_name;
    EXPECT_EQ(count("SELECT count(*) FROM big64 JOIN dec0 ON a = z"), 100)
        << engine_name;
  }
  db.SetAccelerator(nullptr);

  // A hand-built or deserialized join node is checked the same way.
  auto join = MakeJoin(Scan(), Scan(), JoinType::kInner, {0}, {0}).ValueOrDie();
  auto bad = std::make_shared<PlanNode>(*join);
  bad->right_keys = {1};  // INT64 against DECIMAL64(2)
  EXPECT_EQ(bad->Validate().code(), StatusCode::kTypeError);
  EXPECT_EQ(MakeJoin(Scan(), Scan(), JoinType::kInner, {0}, {1}).status().code(),
            StatusCode::kTypeError);
  const std::string wire = SerializePlan(join);
  const std::string bad_wire = SerializePlan(bad);
  ASSERT_NE(wire, bad_wire);
  EXPECT_TRUE(DeserializePlan(wire, TestResolver()).ok());
  EXPECT_EQ(DeserializePlan(bad_wire, TestResolver()).status().code(),
            StatusCode::kTypeError);
  host::Database tdb;
  SIRIUS_CHECK_OK(tdb.CreateTable(
      "t", format::Table::Make(TestSchema(),
                               {format::Column::FromInt64({1, 2}),
                                format::Column::FromDecimal({100, 250}, 2),
                                format::Column::FromStrings({"abc", "xy"})})
               .ValueOrDie()));
  engine::SiriusEngine teng(&tdb, {});
  ASSERT_TRUE(teng.ExecuteSubstrait(wire).ok());
  EXPECT_EQ(teng.ExecuteSubstrait(bad_wire).status().code(), StatusCode::kTypeError);
}

}  // namespace
}  // namespace sirius::plan
