// Tests for scalar UDFs (§3.4): registry, binding, evaluation, SQL
// integration, and graceful CPU fallback of the plans that call them.

#include <gtest/gtest.h>

#include "engine/sirius.h"
#include "expr/eval.h"
#include "expr/udf.h"
#include "format/builder.h"
#include "host/database.h"
#include "scoped_udf.h"

namespace sirius {
namespace {

using expr::UdfDefinition;
using expr::UdfRegistry;
using format::Column;

TEST(UdfRegistryTest, RegisterLookupUnregister) {
  ScopedUdf udf(ClampUdf());
  EXPECT_TRUE(UdfRegistry::Global()->Contains("clamp100"));
  auto def = UdfRegistry::Global()->Lookup("clamp100").ValueOrDie();
  EXPECT_EQ(def.arity, 1);
  EXPECT_FALSE(UdfRegistry::Global()->Lookup("nope").ok());
  EXPECT_FALSE(UdfRegistry::Global()->Unregister("nope").ok());
}

TEST(UdfRegistryTest, RegistrationValidation) {
  UdfDefinition bad;
  EXPECT_FALSE(UdfRegistry::Global()->Register(bad).ok());
}

TEST(UdfRegistryTest, NamesAreLowerCased) {
  UdfDefinition def = ClampUdf();
  def.name = "CLAMP100";
  ScopedUdf udf(std::move(def));
  EXPECT_TRUE(UdfRegistry::Global()->Contains("clamp100"));
}

TEST(UdfEvalTest, EvaluatesPerRowWithNulls) {
  ScopedUdf udf(ClampUdf());
  auto t = format::Table::Make(format::Schema({{"v", format::Int64()}}),
                               {Column::FromInt64({50, 500, 0},
                                                  {true, true, false})})
               .ValueOrDie();
  auto e = expr::Udf("clamp100", {expr::ColRef("v")});
  SIRIUS_CHECK_OK(expr::Bind(e, t->schema()));
  EXPECT_EQ(e->type, format::Int64());
  auto c = expr::Evaluate(*e, *t).ValueOrDie();
  EXPECT_EQ(c->data<int64_t>()[0], 50);
  EXPECT_EQ(c->data<int64_t>()[1], 100);
  EXPECT_TRUE(c->IsNull(2));
}

TEST(UdfEvalTest, ArityChecked) {
  ScopedUdf udf(ClampUdf());
  auto t = format::Table::Make(format::Schema({{"v", format::Int64()}}),
                               {Column::FromInt64({1})})
               .ValueOrDie();
  auto e = expr::Udf("clamp100", {expr::ColRef("v"), expr::ColRef("v")});
  EXPECT_EQ(expr::Bind(e, t->schema()).code(), StatusCode::kBindError);
}

TEST(UdfSqlTest, CallableFromSql) {
  ScopedUdf udf(ClampUdf());
  host::Database db;
  SIRIUS_CHECK_OK(db.CreateTable(
      "t", format::Table::Make(format::Schema({{"v", format::Int64()}}),
                               {Column::FromInt64({10, 2000, 70})})
               .ValueOrDie()));
  auto r = db.Query("select clamp100(v) as c from t order by c").ValueOrDie();
  ASSERT_EQ(r.table->num_rows(), 3u);
  EXPECT_EQ(r.table->column(0)->data<int64_t>()[0], 10);
  EXPECT_EQ(r.table->column(0)->data<int64_t>()[2], 100);
}

TEST(UdfSqlTest, UnknownFunctionStillErrors) {
  host::Database db;
  SIRIUS_CHECK_OK(db.CreateTable(
      "t", format::Table::Make(format::Schema({{"v", format::Int64()}}),
                               {Column::FromInt64({1})})
               .ValueOrDie()));
  auto r = db.Query("select no_such_fn(v) from t");
  EXPECT_EQ(r.status().code(), StatusCode::kBindError);
}

TEST(UdfSqlTest, UsableInWherePredicates) {
  ScopedUdf udf(ClampUdf());
  host::Database db;
  SIRIUS_CHECK_OK(db.CreateTable(
      "t", format::Table::Make(format::Schema({{"v", format::Int64()}}),
                               {Column::FromInt64({10, 2000, 70})})
               .ValueOrDie()));
  auto r = db.Query("select v from t where clamp100(v) = 100").ValueOrDie();
  EXPECT_EQ(r.table->num_rows(), 1u);
  EXPECT_EQ(r.table->column(0)->data<int64_t>()[0], 2000);
}

TEST(UdfEngineTest, FallsBackToHostByDefault) {
  // Paper §3.4: device-side UDFs are future work; plans containing UDFs
  // must route back to the CPU engine without user-visible changes.
  ScopedUdf udf(ClampUdf());
  host::Database db;
  SIRIUS_CHECK_OK(db.CreateTable(
      "t", format::Table::Make(format::Schema({{"v", format::Int64()}}),
                               {Column::FromInt64({10, 2000, 70})})
               .ValueOrDie()));
  engine::SiriusEngine eng(&db, {});
  db.SetAccelerator(&eng);
  auto r = db.Query("select clamp100(v) as c from t order by c").ValueOrDie();
  db.SetAccelerator(nullptr);
  EXPECT_TRUE(r.fell_back);
  EXPECT_FALSE(r.accelerated);
  EXPECT_EQ(r.table->column(0)->data<int64_t>()[2], 100);
}

TEST(UdfEngineTest, SurvivesSubstraitRoundTrip) {
  ScopedUdf udf(ClampUdf());
  host::Database db;
  SIRIUS_CHECK_OK(db.CreateTable(
      "t", format::Table::Make(format::Schema({{"v", format::Int64()}}),
                               {Column::FromInt64({10, 2000})})
               .ValueOrDie()));
  auto wire = db.ExportSubstrait("select clamp100(v) as c from t").ValueOrDie();
  EXPECT_NE(wire.find("udf"), std::string::npos);
  EXPECT_NE(wire.find("clamp100"), std::string::npos);
}

}  // namespace
}  // namespace sirius
