// Tests for the DataFrame front-end (§3.4's Ibis/DataFusion-style host):
// verbs, schema propagation, SQL equivalence, and accelerator routing.

#include <gtest/gtest.h>

#include "engine/sirius.h"
#include "host/dataframe.h"
#include "tpch/queries.h"

namespace sirius::host {
namespace {

using format::Column;

/// Registers `sales` (5 rows) and `items` (2 rows) in `db`.
void AddSalesAndItems(Database* db) {
  auto sales =
      format::Table::Make(
          format::Schema({{"region", format::String()},
                          {"item", format::Int64()},
                          {"amount", format::Decimal(2)}}),
          {Column::FromStrings({"east", "west", "east", "west", "east"}),
           Column::FromInt64({1, 1, 2, 2, 1}),
           Column::FromDecimal({1000, 2000, 1500, 500, 3000}, 2)})
          .ValueOrDie();
  auto items = format::Table::Make(
                   format::Schema({{"item_id", format::Int64()},
                                   {"label", format::String()}}),
                   {Column::FromInt64({1, 2}),
                    Column::FromStrings({"widget", "gadget"})})
                   .ValueOrDie();
  SIRIUS_CHECK_OK(db->CreateTable("sales", sales));
  SIRIUS_CHECK_OK(db->CreateTable("items", items));
}

class DataFrameTest : public ::testing::Test {
 protected:
  void SetUp() override { AddSalesAndItems(&db_); }

  host::Database db_;
};

TEST_F(DataFrameTest, ScanSchemaAndCollect) {
  auto df = DataFrame::Scan(&db_, "sales").ValueOrDie();
  EXPECT_EQ(df.schema().num_fields(), 3u);
  auto r = df.Collect().ValueOrDie();
  EXPECT_EQ(r.table->num_rows(), 5u);
  EXPECT_FALSE(DataFrame::Scan(&db_, "nope").ok());
}

TEST_F(DataFrameTest, FilterSelect) {
  auto df = DataFrame::Scan(&db_, "sales")
                .ValueOrDie()
                .Filter(expr::Eq(expr::ColRef("region"), expr::LitString("east")))
                .ValueOrDie()
                .Select({{"doubled", expr::Mul(expr::ColRef("amount"),
                                               expr::LitInt(2))}})
                .ValueOrDie();
  auto r = df.Collect().ValueOrDie();
  ASSERT_EQ(r.table->num_rows(), 3u);
  EXPECT_EQ(r.table->schema().field(0).name, "doubled");
  EXPECT_EQ(r.table->column(0)->GetScalar(0).ToString(), "20.00");
}

TEST_F(DataFrameTest, JoinAggregateSort) {
  auto sales = DataFrame::Scan(&db_, "sales").ValueOrDie();
  auto items = DataFrame::Scan(&db_, "items").ValueOrDie();
  auto out = sales.Join(items, {"item"}, {"item_id"})
                 .ValueOrDie()
                 .Aggregate({"label"}, {{plan::AggFunc::kSum, "amount", "total"},
                                        {plan::AggFunc::kCountStar, "", "n"}})
                 .ValueOrDie()
                 .Sort({{"total", true}})
                 .ValueOrDie()
                 .Collect()
                 .ValueOrDie();
  ASSERT_EQ(out.table->num_rows(), 2u);
  EXPECT_EQ(out.table->column(0)->StringAt(0), "widget");  // 60.00 total
  EXPECT_EQ(out.table->ColumnByName("total")->GetScalar(0).ToString(), "60.00");
  EXPECT_EQ(out.table->ColumnByName("n")->data<int64_t>()[1], 2);
}

TEST_F(DataFrameTest, MatchesEquivalentSql) {
  auto df_result = DataFrame::Scan(&db_, "sales")
                       .ValueOrDie()
                       .Aggregate({"region"},
                                  {{plan::AggFunc::kSum, "amount", "total"}})
                       .ValueOrDie()
                       .Sort({{"region", false}})
                       .ValueOrDie()
                       .Collect()
                       .ValueOrDie();
  auto sql_result =
      db_.Query(
             "select region, sum(amount) as total from sales "
             "group by region order by region")
          .ValueOrDie();
  EXPECT_TRUE(df_result.table->Equals(*sql_result.table));
}

TEST_F(DataFrameTest, DistinctAndLimit) {
  auto out = DataFrame::Scan(&db_, "sales")
                 .ValueOrDie()
                 .Select({{"region", expr::ColRef("region")}})
                 .ValueOrDie()
                 .Distinct()
                 .ValueOrDie()
                 .Sort({{"region", false}})
                 .ValueOrDie()
                 .Limit(1)
                 .ValueOrDie()
                 .Collect()
                 .ValueOrDie();
  ASSERT_EQ(out.table->num_rows(), 1u);
  EXPECT_EQ(out.table->column(0)->StringAt(0), "east");
}

TEST_F(DataFrameTest, UnknownColumnErrors) {
  auto df = DataFrame::Scan(&db_, "sales").ValueOrDie();
  EXPECT_FALSE(df.Sort({{"zzz", false}}).ok());
  EXPECT_FALSE(df.Aggregate({"zzz"}, {}).ok());
}

TEST_F(DataFrameTest, RunsOnAcceleratorWithFallbackSemantics) {
  engine::SiriusEngine eng(&db_, {});
  db_.SetAccelerator(&eng);
  auto r = DataFrame::Scan(&db_, "sales")
               .ValueOrDie()
               .Aggregate({"region"}, {{plan::AggFunc::kSum, "amount", "t"}})
               .ValueOrDie()
               .Collect()
               .ValueOrDie();
  db_.SetAccelerator(nullptr);
  EXPECT_TRUE(r.accelerated);
  EXPECT_EQ(r.table->num_rows(), 2u);
}

TEST_F(DataFrameTest, ExplainAndSubstrait) {
  auto df = DataFrame::Scan(&db_, "sales")
                .ValueOrDie()
                .Filter(expr::Gt(expr::ColRef("amount"), expr::LitInt(10)))
                .ValueOrDie();
  auto explained = df.Explain().ValueOrDie();
  EXPECT_NE(explained.find("TableScan sales"), std::string::npos);
  auto wire = df.ToSubstrait().ValueOrDie();
  EXPECT_NE(wire.find("sirius-substrait-1"), std::string::npos);
}

TEST(DataFrameProfileTest, ExplainAndSubstraitShowThePlanCollectRuns) {
  // ClickHouse keeps the syntactic join order (reorder_joins = false), so
  // this join builds on its larger right input; the cost-based order would
  // build on the smaller left one.
  Database::Options options;
  options.engine = sim::ClickHouseProfile();
  Database db(options);
  AddSalesAndItems(&db);
  auto items = DataFrame::Scan(&db, "items").ValueOrDie();
  auto sales = DataFrame::Scan(&db, "sales").ValueOrDie();
  auto joined = items.Join(sales, {"item_id"}, {"item"}).ValueOrDie();

  auto collected = joined.Collect().ValueOrDie();
  EXPECT_EQ(collected.table->num_rows(), 5u);
  EXPECT_EQ(joined.Explain().ValueOrDie(),
            collected.optimized_plan->ToString());
  EXPECT_EQ(joined.ToSubstrait().ValueOrDie(),
            plan::SerializePlan(collected.optimized_plan));
}

TEST_F(DataFrameTest, AsofJoinVerb) {
  auto trades = format::Table::Make(
                    format::Schema({{"t", format::Int64()}}),
                    {Column::FromInt64({10, 20})})
                    .ValueOrDie();
  auto quotes = format::Table::Make(
                    format::Schema({{"q", format::Int64()},
                                    {"px", format::Int64()}}),
                    {Column::FromInt64({5, 15}), Column::FromInt64({100, 200})})
                    .ValueOrDie();
  SIRIUS_CHECK_OK(db_.CreateTable("tr", trades));
  SIRIUS_CHECK_OK(db_.CreateTable("qu", quotes));
  auto out = DataFrame::Scan(&db_, "tr")
                 .ValueOrDie()
                 .AsofJoin(DataFrame::Scan(&db_, "qu").ValueOrDie(), "t", "q")
                 .ValueOrDie()
                 .Collect()
                 .ValueOrDie();
  ASSERT_EQ(out.table->num_rows(), 2u);
  EXPECT_EQ(out.table->ColumnByName("px")->data<int64_t>()[0], 100);
  EXPECT_EQ(out.table->ColumnByName("px")->data<int64_t>()[1], 200);
}

TEST_F(DataFrameTest, TpchQ6AsDataFrame) {
  host::Database tpch_db;
  SIRIUS_CHECK_OK(tpch::LoadTpch(&tpch_db, 0.005));
  auto df =
      DataFrame::Scan(&tpch_db, "lineitem")
          .ValueOrDie()
          .Filter(expr::And(
              expr::And(expr::Ge(expr::ColRef("l_shipdate"),
                                 expr::LitDate("1994-01-01")),
                        expr::Lt(expr::ColRef("l_shipdate"),
                                 expr::LitDate("1995-01-01"))),
              expr::And(
                  expr::And(expr::Ge(expr::ColRef("l_discount"),
                                     expr::LitDecimal("0.05", 2)),
                            expr::Le(expr::ColRef("l_discount"),
                                     expr::LitDecimal("0.07", 2))),
                  expr::Lt(expr::ColRef("l_quantity"), expr::LitInt(24)))))
          .ValueOrDie()
          .Select({{"rev", expr::Mul(expr::ColRef("l_extendedprice"),
                                     expr::ColRef("l_discount"))}})
          .ValueOrDie()
          .Aggregate({}, {{plan::AggFunc::kSum, "rev", "revenue"}})
          .ValueOrDie();
  auto df_result = df.Collect().ValueOrDie();
  auto sql_result = tpch_db.Query(tpch::Query(6)).ValueOrDie();
  // Same value, modulo the decimal scale produced by the two pipelines.
  EXPECT_TRUE(df_result.table->column(0)->GetScalar(0) ==
              sql_result.table->column(0)->GetScalar(0));
}

}  // namespace
}  // namespace sirius::host
