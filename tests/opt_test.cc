// Unit tests for the optimizer: selectivity/cardinality/NDV estimation,
// filter pushdown, cross-join elimination, join ordering, column pruning,
// the ClickHouse-mode planning policy, and the annotation walk's estimates.

#include <gtest/gtest.h>

#include <functional>

#include "common/hash.h"
#include "host/database.h"
#include "opt/optimizer.h"
#include "plan/substrait.h"
#include "ssb/queries.h"
#include "tpch/queries.h"

namespace sirius::opt {
namespace {

using plan::PlanKind;
using plan::PlanNode;
using plan::PlanPtr;

int CountNodes(const PlanNode& n, PlanKind kind) {
  int count = n.kind == kind ? 1 : 0;
  for (const auto& c : n.children) count += CountNodes(*c, kind);
  return count;
}

int CountCrossJoins(const PlanNode& n) {
  int count =
      n.kind == PlanKind::kJoin && n.join_type == plan::JoinType::kCross ? 1 : 0;
  for (const auto& c : n.children) count += CountCrossJoins(*c);
  return count;
}

void Walk(const PlanNode& n, const std::function<void(const PlanNode&)>& fn) {
  fn(n);
  for (const auto& c : n.children) Walk(*c, fn);
}

// ---------------------------------------------------------------------------
// Selectivity / cardinality
// ---------------------------------------------------------------------------

TEST(SelectivityTest, Heuristics) {
  auto schema = format::Schema({{"a", format::Int64()}, {"s", format::String()}});
  auto bind = [&](expr::ExprPtr e) {
    SIRIUS_CHECK_OK(expr::Bind(e, schema));
    return e;
  };
  auto eq = bind(expr::Eq(expr::ColRef("a"), expr::LitInt(1)));
  auto range = bind(expr::Lt(expr::ColRef("a"), expr::LitInt(1)));
  EXPECT_LT(EstimateSelectivity(*eq), EstimateSelectivity(*range));
  auto conj = bind(expr::And(expr::Eq(expr::ColRef("a"), expr::LitInt(1)),
                             expr::Lt(expr::ColRef("a"), expr::LitInt(9))));
  EXPECT_DOUBLE_EQ(EstimateSelectivity(*conj),
                   EstimateSelectivity(*eq) * EstimateSelectivity(*range));
  auto like = bind(expr::Like(expr::ColRef("s"), "%x%"));
  auto notlike = bind(expr::NotLike(expr::ColRef("s"), "%x%"));
  EXPECT_LT(EstimateSelectivity(*like), EstimateSelectivity(*notlike));
  EXPECT_LE(EstimateSelectivity(*conj), 1.0);
}

TEST(CardinalityTest, ScanFilterJoin) {
  MapStats stats({{"big", 100000}, {"small", 100}});
  auto schema = format::Schema({{"k", format::Int64()}});
  auto big = plan::MakeScan("big", schema, {}).ValueOrDie();
  auto small = plan::MakeScan("small", schema, {}).ValueOrDie();
  EXPECT_DOUBLE_EQ(EstimateRows(*big, stats), 100000);

  auto filtered =
      plan::MakeFilter(big, expr::Eq(expr::ColRef("k"), expr::LitInt(1)))
          .ValueOrDie();
  EXPECT_LT(EstimateRows(*filtered, stats), 100000);

  auto join =
      plan::MakeJoin(big, small, plan::JoinType::kInner, {0}, {0}).ValueOrDie();
  double est = EstimateRows(*join, stats);
  // Without NDV stats the formula degrades to |L||R|/max(|L|,|R|).
  EXPECT_GE(est, 100.0);
  EXPECT_LE(est, 100000.0 * 1.01);

  auto cross =
      plan::MakeJoin(big, small, plan::JoinType::kCross, {}, {}).ValueOrDie();
  EXPECT_DOUBLE_EQ(EstimateRows(*cross, stats), 100000.0 * 100);
}

TEST(CardinalityTest, NdvFromCatalog) {
  host::Database db;
  auto t = format::Table::Make(
               format::Schema({{"k", format::Int64()}, {"v", format::Int64()}}),
               {format::Column::FromInt64({1, 1, 2, 2, 3}),
                format::Column::FromInt64({1, 2, 3, 4, 5})})
               .ValueOrDie();
  SIRIUS_CHECK_OK(db.CreateTable("t", t));
  EXPECT_DOUBLE_EQ(db.catalog().ColumnDistinct("t", "k"), 3);
  EXPECT_DOUBLE_EQ(db.catalog().ColumnDistinct("t", "v"), 5);
  EXPECT_LT(db.catalog().ColumnDistinct("t", "zzz"), 0);

  auto scan = plan::MakeScan("t", t->schema(), {}).ValueOrDie();
  EXPECT_DOUBLE_EQ(EstimateDistinct(*scan, 0, db.catalog()), 3);
  EXPECT_DOUBLE_EQ(EstimateDistinct(*scan, 1, db.catalog()), 5);
}

// ---------------------------------------------------------------------------
// Optimizer behaviour on TPC-H
// ---------------------------------------------------------------------------

class TpchOptTest : public ::testing::Test {
 protected:
  static host::Database* db() {
    static host::Database* instance = [] {
      auto* d = new host::Database();  // sirius-lint: allow(raw-new-delete): leaked singleton
      SIRIUS_CHECK_OK(tpch::LoadTpch(d, 0.002));
      return d;
    }();
    return instance;
  }
};

TEST_F(TpchOptTest, NoCrossJoinsSurviveOnConnectedQueries) {
  // Every TPC-H query's join graph is connected once equality conjuncts are
  // extracted (Q19 requires OR common-factor extraction); the only cross
  // joins left should be single-row scalar-subquery broadcasts.
  for (int q = 1; q <= 22; ++q) {
    auto plan = db()->PlanSql(tpch::Query(q)).ValueOrDie();
    int crosses = 0;
    Walk(*plan, [&](const PlanNode& n) {
      if (n.kind == PlanKind::kJoin && n.join_type == plan::JoinType::kCross) {
        // Allowed: scalar-subquery sides estimated at one row.
        double r = EstimateRows(*n.children[1], db()->catalog());
        if (r > 2.0) ++crosses;
      }
    });
    EXPECT_EQ(crosses, 0) << "Q" << q << "\n" << plan->ToString();
  }
}

TEST_F(TpchOptTest, FiltersArePushedBelowJoins) {
  auto plan = db()->PlanSql(tpch::Query(3)).ValueOrDie();
  // The c_mktsegment filter must sit directly above the customer scan.
  bool found = false;
  Walk(*plan, [&](const PlanNode& n) {
    if (n.kind == PlanKind::kFilter &&
        n.children[0]->kind == PlanKind::kTableScan &&
        n.children[0]->table_name == "customer") {
      found = true;
    }
  });
  EXPECT_TRUE(found) << plan->ToString();
}

TEST_F(TpchOptTest, ScansArePruned) {
  auto plan = db()->PlanSql(tpch::Query(6)).ValueOrDie();
  Walk(*plan, [&](const PlanNode& n) {
    if (n.kind == PlanKind::kTableScan && n.table_name == "lineitem") {
      // Q6 touches quantity, extendedprice, discount, shipdate only.
      EXPECT_EQ(n.scan_columns.size(), 4u) << plan->ToString();
    }
  });
}

TEST_F(TpchOptTest, OptimizedPlanKeepsSchemaAndResults) {
  for (int q : {1, 3, 5, 10, 19}) {
    auto bound = sql::SqlToPlan(tpch::Query(q), db()->catalog()).ValueOrDie();
    OptimizerOptions no_opt;
    no_opt.push_filters = false;
    no_opt.reorder_joins = false;
    no_opt.prune_columns = false;
    auto raw = Optimize(bound, db()->catalog(), no_opt).ValueOrDie();
    auto optimized = Optimize(bound, db()->catalog(), {}).ValueOrDie();
    EXPECT_TRUE(
        optimized->output_schema.Equals(bound->output_schema)) << "Q" << q;

    auto a = db()->ExecutePlanCpu(raw).ValueOrDie();
    auto b = db()->ExecutePlanCpu(optimized).ValueOrDie();
    EXPECT_TRUE(a.table->Equals(*b.table) || a.table->EqualsUnordered(*b.table))
        << "Q" << q;
  }
}

TEST_F(TpchOptTest, PruningAloneKeepsResults) {
  for (int q : {4, 12, 14}) {
    auto bound = sql::SqlToPlan(tpch::Query(q), db()->catalog()).ValueOrDie();
    auto pruned = PruneColumns(bound).ValueOrDie();
    EXPECT_TRUE(pruned->output_schema.Equals(bound->output_schema));
    auto a = db()->ExecutePlanCpu(bound).ValueOrDie();
    auto b = db()->ExecutePlanCpu(pruned).ValueOrDie();
    EXPECT_TRUE(a.table->Equals(*b.table)) << "Q" << q;
  }
}

TEST_F(TpchOptTest, ClickHouseModeKeepsSyntacticOrderButSameResults) {
  host::Database::Options ch_options;
  ch_options.engine = sim::ClickHouseProfile();
  host::Database ch(ch_options);
  SIRIUS_CHECK_OK(tpch::LoadTpch(&ch, 0.002));

  for (int q : {3, 5, 10}) {
    auto duck = db()->Query(tpch::Query(q)).ValueOrDie();
    auto click = ch.Query(tpch::Query(q)).ValueOrDie();
    EXPECT_TRUE(duck.table->Equals(*click.table) ||
                duck.table->EqualsUnordered(*click.table))
        << "Q" << q;
    // Join-policy handicap: ClickHouse-mode should be slower on join-heavy
    // queries at the same modeled hardware.
    EXPECT_GT(click.timeline.total_seconds(), duck.timeline.total_seconds())
        << "Q" << q;
  }
}

TEST_F(TpchOptTest, EstimatesAnnotated) {
  auto plan = db()->PlanSql(tpch::Query(5)).ValueOrDie();
  Walk(*plan, [&](const PlanNode& n) { EXPECT_GE(n.estimated_rows, 0.0); });
}

host::Database* SsbDb() {
  static host::Database* instance = [] {
    auto* d = new host::Database();  // sirius-lint: allow(raw-new-delete): leaked singleton
    ssb::SsbOptions options;
    options.sf = 0.002;
    SIRIUS_CHECK_OK(ssb::LoadSsb(d, options));
    return d;
  }();
  return instance;
}

TEST_F(TpchOptTest, AnnotatedEstimatesEqualFreshDerivations) {
  // The annotation walk derives each subtree's estimate once; every node
  // must still hold exactly what a fresh EstimateRows derives for it.
  auto check = [](host::Database* d, const std::string& sql, const std::string& label) {
    auto plan = d->PlanSql(sql).ValueOrDie();
    Walk(*plan, [&](const PlanNode& n) {
      EXPECT_EQ(n.estimated_rows, EstimateRows(n, d->catalog())) << label << "\n"
                                                                 << n.ToString();
    });
  };
  for (int q = 1; q <= tpch::NumQueries(); ++q) {
    check(db(), tpch::Query(q), "Q" + std::to_string(q));
  }
  for (int q = 1; q <= ssb::NumQueries(); ++q) {
    check(SsbDb(), ssb::Query(q), ssb::QueryName(q));
  }
}

TEST_F(TpchOptTest, SerializedPlansArePinned) {
  // SerializePlan carries every node's `rows` estimate (%.17g) besides the
  // join order, so this pins both for the 22 TPC-H and 13 SSB plans.
  uint64_t h = 0;
  for (int q = 1; q <= tpch::NumQueries(); ++q) {
    h = HashCombine(h, HashString(plan::SerializePlan(
                           db()->PlanSql(tpch::Query(q)).ValueOrDie())));
  }
  for (int q = 1; q <= ssb::NumQueries(); ++q) {
    h = HashCombine(h, HashString(plan::SerializePlan(
                           SsbDb()->PlanSql(ssb::Query(q)).ValueOrDie())));
  }
  EXPECT_EQ(h, 0xff95b831ef64ff45ull) << std::hex << h;
}

TEST(OptimizerUnitTest, OrCommonFactorExtraction) {
  // Q19 shape: (k = j AND p1) OR (k = j AND p2) must produce a join edge.
  host::Database db;
  auto t1 = format::Table::Make(
                format::Schema({{"k", format::Int64()}, {"a", format::Int64()}}),
                {format::Column::FromInt64({1, 2, 3}),
                 format::Column::FromInt64({1, 2, 3})})
                .ValueOrDie();
  auto t2 = format::Table::Make(
                format::Schema({{"j", format::Int64()}, {"b", format::Int64()}}),
                {format::Column::FromInt64({1, 2, 3}),
                 format::Column::FromInt64({10, 20, 30})})
                .ValueOrDie();
  SIRIUS_CHECK_OK(db.CreateTable("t1", t1));
  SIRIUS_CHECK_OK(db.CreateTable("t2", t2));
  auto plan = db.PlanSql(
                    "select a, b from t1, t2 where "
                    "(k = j and a > 1) or (k = j and b < 15)")
                  .ValueOrDie();
  EXPECT_EQ(CountCrossJoins(*plan), 0) << plan->ToString();
  auto result = db.Query(
                      "select a, b from t1, t2 where "
                      "(k = j and a > 1) or (k = j and b < 15)")
                    .ValueOrDie();
  EXPECT_EQ(result.table->num_rows(), 3u);  // (1,10) via b<15; (2,20),(3,30) a>1
}

TEST(OptimizerUnitTest, DisabledPushdownStillCorrect) {
  host::Database db;
  auto t = format::Table::Make(format::Schema({{"k", format::Int64()}}),
                               {format::Column::FromInt64({1, 2, 3, 4})})
               .ValueOrDie();
  SIRIUS_CHECK_OK(db.CreateTable("t", t));
  auto bound = sql::SqlToPlan("select k from t where k > 2", db.catalog())
                   .ValueOrDie();
  OptimizerOptions options;
  options.push_filters = false;
  auto plan = Optimize(bound, db.catalog(), options).ValueOrDie();
  auto r = db.ExecutePlanCpu(plan).ValueOrDie();
  EXPECT_EQ(r.table->num_rows(), 2u);
}

}  // namespace
}  // namespace sirius::opt
