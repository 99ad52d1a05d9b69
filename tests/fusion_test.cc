// Fused pipeline execution tests: selection-vector flow through each fused
// operator kind against gathered references, engine-level fused-vs-
// materialized equivalence and speedup, the fused-stage trace span, the
// happens-before contract under the race checker, and the graceful fallback
// at the "engine.fuse.compile" fault site.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include "engine/pipeline.h"
#include "engine/sirius.h"
#include "expr/expr.h"
#include "fault/fault_injector.h"
#include "gdf/bloom.h"
#include "gdf/compute.h"
#include "gdf/copying.h"
#include "gdf/filter.h"
#include "gdf/groupby.h"
#include "gdf/join.h"
#include "gdf/selection.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace sirius {
namespace {

using format::Column;
using format::ColumnPtr;
using format::Schema;
using format::Table;
using format::TablePtr;

gdf::Context Ctx() {
  gdf::Context ctx;
  ctx.mr = mem::DefaultResource();
  return ctx;
}

/// Register-residency set of one fused pass.
using Resident = std::unordered_set<const format::Column*>;

/// A context inside the fused pass that owns `resident`.
gdf::Context FusedCtx(Resident* resident) {
  gdf::Context ctx = Ctx();
  ctx.fused_reads = resident;
  return ctx;
}

TablePtr MakeTable(std::vector<format::Field> fields,
                   std::vector<ColumnPtr> cols) {
  return Table::Make(Schema(std::move(fields)), std::move(cols)).ValueOrDie();
}

TablePtr TestTable() {
  return MakeTable({{"a", format::Int64()}, {"b", format::Int64()}},
                   {Column::FromInt64({10, 20, 30, 40, 50}),
                    Column::FromInt64({1, 2, 3, 4, 5})});
}

// ---------------------------------------------------------------------------
// Selection-vector flow per fused operator kind, vs gathered references
// ---------------------------------------------------------------------------

TEST(SelectionViewTest, FromTableIsIdentity) {
  auto view = gdf::SelectionView::FromTable(TestTable());
  EXPECT_EQ(view.num_rows(), 5u);
  EXPECT_EQ(view.num_columns(), 2u);
  EXPECT_TRUE(view.IsIdentity());
}

TEST(SelectionViewTest, RefineComposesLikeChainedGathers) {
  Resident resident;
  auto ctx = FusedCtx(&resident);
  auto t = TestTable();
  auto view = gdf::SelectionView::FromTable(t);
  ASSERT_TRUE(gdf::RefineView(ctx, &view, {0, 2, 4}, sim::OpCategory::kFilter).ok());
  ASSERT_TRUE(gdf::RefineView(ctx, &view, {2, 0}, sim::OpCategory::kFilter).ok());

  // Reference: the same two selections applied as materializing gathers.
  auto g1 = gdf::GatherTable(ctx, t, {0, 2, 4}, sim::OpCategory::kFilter)
                .ValueOrDie();
  auto g2 =
      gdf::GatherTable(ctx, g1, {2, 0}, sim::OpCategory::kFilter).ValueOrDie();

  auto m = gdf::MaterializeView(ctx, view, t->schema(), sim::OpCategory::kFilter)
               .ValueOrDie();
  EXPECT_TRUE(m->Equals(*g2));
  EXPECT_FALSE(view.IsIdentity());
}

TEST(SelectionViewTest, RefineRejectsOutOfBounds) {
  auto view = gdf::SelectionView::FromTable(TestTable());
  EXPECT_FALSE(view.Refine({0, 5}).ok());
  EXPECT_FALSE(view.Refine({-1}).ok());
}

TEST(SelectionViewTest, GatherViewColumnMatchesGatheredColumn) {
  Resident resident;
  auto ctx = FusedCtx(&resident);
  auto t = TestTable();
  auto view = gdf::SelectionView::FromTable(t);
  // Identity views resolve zero-copy.
  auto c0 = gdf::GatherViewColumn(ctx, view, 0, sim::OpCategory::kFilter)
                .ValueOrDie();
  EXPECT_EQ(c0.get(), t->column(0).get());

  ASSERT_TRUE(view.Refine({4, 1, 3}).ok());
  auto c1 = gdf::GatherViewColumn(ctx, view, 0, sim::OpCategory::kFilter)
                .ValueOrDie();
  auto ref =
      gdf::GatherColumnUncharged(ctx, t->column(0), {4, 1, 3}).ValueOrDie();
  EXPECT_TRUE(c1->Equals(*ref));
}

TEST(SelectionViewTest, MaskToIndicesSelectsTheSameRowsInAFusedPass) {
  Resident resident;
  auto mask = Column::FromBool({true, false, true, true, false});
  auto fused = gdf::MaskToIndices(FusedCtx(&resident), mask).ValueOrDie();
  auto standalone = gdf::MaskToIndices(Ctx(), mask).ValueOrDie();
  EXPECT_EQ(fused, standalone);
  EXPECT_EQ(fused, (std::vector<gdf::index_t>{0, 2, 3}));
}

TEST(SelectionViewTest, ComputeColumnViewMatchesComputeOnGathered) {
  Resident resident;
  auto ctx = FusedCtx(&resident);
  auto t = TestTable();
  auto view = gdf::SelectionView::FromTable(t);
  ASSERT_TRUE(view.Refine({1, 3, 4}).ok());

  auto e = expr::Add(expr::ColIdx(0, format::Int64()),
                     expr::ColIdx(1, format::Int64()));
  auto fused =
      gdf::ComputeColumnView(ctx, *e, view, sim::OpCategory::kProject)
          .ValueOrDie();

  auto gathered =
      gdf::GatherTable(ctx, t, {1, 3, 4}, sim::OpCategory::kFilter).ValueOrDie();
  auto ref = gdf::ComputeColumn(ctx, *e, gathered, sim::OpCategory::kProject)
                 .ValueOrDie();
  EXPECT_TRUE(fused->Equals(*ref));
}

TEST(SelectionViewTest, ApplyJoinToViewMatchesGatheredJoinOutput) {
  Resident resident;
  auto ctx = FusedCtx(&resident);
  auto probe = TestTable();  // keys 1..5 in column b
  auto build = MakeTable({{"k", format::Int64()}, {"v", format::Int64()}},
                         {Column::FromInt64({2, 4}),
                          Column::FromInt64({200, 400})});
  Schema out_schema({{"a", format::Int64()},
                     {"b", format::Int64()},
                     {"k", format::Int64()},
                     {"v", format::Int64()}});

  auto view = gdf::SelectionView::FromTable(probe);
  gdf::JoinResult pairs =
      gdf::HashJoin(ctx, {probe->column(1)}, {build->column(0)}, {})
          .ValueOrDie();
  ASSERT_TRUE(gdf::ApplyJoinToView(ctx, &view, pairs, build, out_schema,
                                   /*emits_right=*/true,
                                   /*nullable_right=*/false,
                                   sim::OpCategory::kJoin)
                  .ok());
  EXPECT_EQ(view.num_columns(), 4u);  // probe cols ++ build cols

  // Reference: the materialized path's two-sided gather.
  auto lg = gdf::GatherTable(ctx, probe, pairs.left_indices,
                             sim::OpCategory::kJoin)
                .ValueOrDie();
  auto rg = gdf::GatherTable(ctx, build, pairs.right_indices,
                             sim::OpCategory::kJoin)
                .ValueOrDie();
  std::vector<ColumnPtr> cols = lg->columns();
  for (const auto& c : rg->columns()) cols.push_back(c);
  auto ref = Table::Make(out_schema, std::move(cols)).ValueOrDie();

  auto m = gdf::MaterializeView(ctx, view, out_schema, sim::OpCategory::kJoin)
               .ValueOrDie();
  EXPECT_TRUE(m->Equals(*ref));

  // Outside a fused pass the same call gathers that reference directly.
  auto dense = gdf::SelectionView::FromTable(probe);
  ASSERT_TRUE(gdf::ApplyJoinToView(Ctx(), &dense, pairs, build, out_schema,
                                   /*emits_right=*/true,
                                   /*nullable_right=*/false,
                                   sim::OpCategory::kJoin)
                  .ok());
  ASSERT_TRUE(dense.IsIdentity());
  EXPECT_TRUE(dense.dense()->Equals(*ref));
}

TEST(SelectionViewTest, GroupByAggregateViewMatchesGatheredGroupBy) {
  auto ctx = Ctx();
  auto t = MakeTable({{"g", format::Int64()}, {"v", format::Int64()}},
                     {Column::FromInt64({1, 2, 1, 2, 1, 3}),
                      Column::FromInt64({10, 20, 30, 40, 50, 60})});
  auto view = gdf::SelectionView::FromTable(t);
  ASSERT_TRUE(view.Refine({0, 1, 2, 3, 4}).ok());  // drop the last row

  std::vector<gdf::AggRequest> aggs;
  aggs.push_back({gdf::AggKind::kSum, 1, "s"});
  aggs.push_back({gdf::AggKind::kCountStar, -1, "n"});
  auto fused =
      gdf::GroupByAggregateView(ctx, view, {0}, {"g"}, aggs).ValueOrDie();

  auto gathered = gdf::GatherTable(ctx, t, {0, 1, 2, 3, 4},
                                   sim::OpCategory::kFilter)
                      .ValueOrDie();
  auto ref = gdf::GroupByAggregate(ctx, {gathered->column(0)}, {"g"}, gathered,
                                   aggs)
                 .ValueOrDie();
  EXPECT_TRUE(fused->Equals(*ref));
}

TEST(SelectionViewTest, CountStarOnlyAggregateSeesViewRowCount) {
  auto ctx = Ctx();
  auto t = TestTable();
  auto view = gdf::SelectionView::FromTable(t);
  ASSERT_TRUE(view.Refine({0, 2}).ok());
  std::vector<gdf::AggRequest> aggs;
  aggs.push_back({gdf::AggKind::kCountStar, -1, "n"});
  auto out = gdf::GroupByAggregateView(ctx, view, {}, {}, aggs).ValueOrDie();
  ASSERT_EQ(out->num_rows(), 1u);
  EXPECT_EQ(out->column(0)->data<int64_t>()[0], 2);
}

TEST(SelectionViewTest, BloomPrefilterSelectionKeepsAllMatches) {
  Resident resident;
  auto probe_key = Column::FromInt64({1, 7, 2, 9, 3, 11});
  auto build_key = Column::FromInt64({2, 3});
  auto keep = gdf::BloomPrefilter(FusedCtx(&resident), probe_key, build_key)
                  .ValueOrDie();
  // No false negatives: rows with keys 2 and 3 must survive.
  EXPECT_NE(std::find(keep.begin(), keep.end(), 2), keep.end());
  EXPECT_NE(std::find(keep.begin(), keep.end(), 4), keep.end());
  EXPECT_LE(keep.size(), probe_key->length());
}

TEST(SelectionViewTest, SelectionBytesTracksRowMaps) {
  auto view = gdf::SelectionView::FromTable(TestTable());
  EXPECT_EQ(view.SelectionBytes(), 0u);  // identity: no live index state
  ASSERT_TRUE(view.Refine({0, 1, 2}).ok());
  EXPECT_EQ(view.SelectionBytes(), 3 * sizeof(gdf::index_t));
}

// ---------------------------------------------------------------------------
// One kernel per step: each view kernel prices itself by the context
// ---------------------------------------------------------------------------

/// What one kernel call charged: launches and HBM traffic from
/// sim::KernelStats, seconds from the timeline.
struct Charged {
  sim::KernelStats kernels;
  double seconds = 0;
};

/// Runs `call` on a metered context (inside the fused pass owning
/// `resident`, or standalone when it is null) and returns its charge.
template <typename Call>
Charged Meter(Resident* resident, Call&& call) {
  sim::Timeline timeline;
  Charged out;
  gdf::Context ctx = resident != nullptr ? FusedCtx(resident) : Ctx();
  ctx.sim.timeline = &timeline;
  ctx.sim.kernel_stats = &out.kernels;
  call(ctx);
  out.seconds = timeline.total_seconds();
  return out;
}

void ExpectSameCharge(const Charged& got, const Charged& want) {
  EXPECT_EQ(got.kernels.launches, want.kernels.launches);
  EXPECT_EQ(got.kernels.seq_bytes, want.kernels.seq_bytes);
  EXPECT_EQ(got.kernels.rand_bytes, want.kernels.rand_bytes);
  EXPECT_EQ(got.seconds, want.seconds);
}

TEST(SelectionViewTest, MergedKernelsPriceByContext) {
  const TablePtr t = TestTable();
  const TablePtr build =
      MakeTable({{"k", format::Int64()}, {"v", format::Int64()}},
                {Column::FromInt64({2, 4}), Column::FromInt64({200, 400})});
  const Schema join_schema({{"a", format::Int64()},
                            {"b", format::Int64()},
                            {"k", format::Int64()},
                            {"v", format::Int64()}});
  const gdf::JoinResult pairs =
      gdf::HashJoin(Ctx(), {t->column(1)}, {build->column(0)}, {})
          .ValueOrDie();
  const std::vector<gdf::index_t> sel = {0, 2, 4};
  const auto e = expr::Add(expr::ColIdx(0, format::Int64()),
                           expr::ColIdx(1, format::Int64()));
  const ColumnPtr mask = Column::FromBool({true, false, true, true, false});
  const ColumnPtr build_key = Column::FromInt64({2, 3});

  // Outside a fused pass each kernel charges what the standalone call it
  // replaces charges, and leaves a dense view.
  auto view = gdf::SelectionView::FromTable(t);
  ExpectSameCharge(Meter(nullptr,
                         [&](const gdf::Context& ctx) {
                           ASSERT_TRUE(gdf::ComputeColumnView(
                                           ctx, *e, view,
                                           sim::OpCategory::kProject)
                                           .ok());
                         }),
                   Meter(nullptr, [&](const gdf::Context& ctx) {
                     ASSERT_TRUE(gdf::ComputeColumn(ctx, *e, t,
                                                    sim::OpCategory::kProject)
                                     .ok());
                   }));
  ExpectSameCharge(Meter(nullptr,
                         [&](const gdf::Context& ctx) {
                           ASSERT_TRUE(gdf::RefineView(ctx, &view, sel,
                                                       sim::OpCategory::kFilter)
                                           .ok());
                         }),
                   Meter(nullptr, [&](const gdf::Context& ctx) {
                     ASSERT_TRUE(gdf::GatherTable(ctx, t, sel,
                                                  sim::OpCategory::kFilter)
                                     .ok());
                   }));
  EXPECT_TRUE(view.IsIdentity());
  EXPECT_EQ(view.num_rows(), sel.size());

  auto probe = gdf::SelectionView::FromTable(t);
  ExpectSameCharge(
      Meter(nullptr,
            [&](const gdf::Context& ctx) {
              ASSERT_TRUE(gdf::ApplyJoinToView(ctx, &probe, pairs, build,
                                               join_schema, true, false,
                                               sim::OpCategory::kJoin)
                              .ok());
            }),
      Meter(nullptr, [&](const gdf::Context& ctx) {
        ASSERT_TRUE(gdf::GatherTable(ctx, t, pairs.left_indices,
                                     sim::OpCategory::kJoin)
                        .ok());
        ASSERT_TRUE(gdf::GatherTable(ctx, build, pairs.right_indices,
                                     sim::OpCategory::kJoin)
                        .ok());
      }));
  EXPECT_TRUE(probe.IsIdentity());
  EXPECT_EQ(probe.num_columns(), 4u);

  const Charged mask_alone = Meter(nullptr, [&](const gdf::Context& ctx) {
    ASSERT_TRUE(gdf::MaskToIndices(ctx, mask).ok());
  });
  EXPECT_EQ(mask_alone.kernels.launches, 1u);
  const Charged bloom_alone = Meter(nullptr, [&](const gdf::Context& ctx) {
    ASSERT_TRUE(gdf::BloomPrefilter(ctx, t->column(1), build_key).ok());
  });
  EXPECT_EQ(bloom_alone.kernels.launches, 2u);

  // Inside a fused pass none of them launches: the stage owns its launch.
  Resident resident;
  auto fused_view = gdf::SelectionView::FromTable(t);
  const Charged refine = Meter(&resident, [&](const gdf::Context& ctx) {
    ASSERT_TRUE(
        gdf::RefineView(ctx, &fused_view, sel, sim::OpCategory::kFilter).ok());
  });
  EXPECT_EQ(refine.kernels.launches, 0u);
  // Row-map writes only: the selection plus one composed map per segment.
  EXPECT_EQ(refine.kernels.seq_bytes, sel.size() * sizeof(gdf::index_t) * 2);
  EXPECT_EQ(refine.kernels.rand_bytes, 0u);
  EXPECT_FALSE(fused_view.IsIdentity());

  const Charged compute = Meter(&resident, [&](const gdf::Context& ctx) {
    ASSERT_TRUE(gdf::ComputeColumnView(ctx, *e, fused_view,
                                       sim::OpCategory::kProject)
                    .ok());
  });
  EXPECT_EQ(compute.kernels.launches, 0u);

  auto fused_probe = gdf::SelectionView::FromTable(t);
  const Charged apply = Meter(&resident, [&](const gdf::Context& ctx) {
    ASSERT_TRUE(gdf::ApplyJoinToView(ctx, &fused_probe, pairs, build,
                                     join_schema, true, false,
                                     sim::OpCategory::kJoin)
                    .ok());
  });
  EXPECT_EQ(apply.kernels.launches, 0u);
  EXPECT_EQ(fused_probe.segments().size(), 2u);

  const Charged mask_fused = Meter(&resident, [&](const gdf::Context& ctx) {
    ASSERT_TRUE(gdf::MaskToIndices(ctx, mask).ok());
  });
  EXPECT_EQ(mask_fused.kernels.launches, 0u);
  EXPECT_EQ(mask_fused.kernels.seq_bytes, mask_alone.kernels.seq_bytes);

  size_t kept = 0;
  const Charged bloom_fused = Meter(&resident, [&](const gdf::Context& ctx) {
    auto keep = gdf::BloomPrefilter(ctx, t->column(1), build_key);
    ASSERT_TRUE(keep.ok());
    kept = keep.ValueOrDie().size();
  });
  EXPECT_EQ(bloom_fused.kernels.launches, 0u);
  // The compute above left the probe key resident: it is not re-read, and
  // the selection write is charged instead.
  EXPECT_EQ(bloom_fused.kernels.seq_bytes,
            bloom_alone.kernels.seq_bytes - t->column(1)->MemoryUsage() +
                kept * sizeof(gdf::index_t));
  EXPECT_EQ(bloom_fused.kernels.rand_bytes, bloom_alone.kernels.rand_bytes);
}

// ---------------------------------------------------------------------------
// Fused-stage compiler
// ---------------------------------------------------------------------------

class FusionEngineTest : public ::testing::Test {
 protected:
  static host::Database* db() {
    static host::Database* instance = [] {
      auto* d = new host::Database();  // sirius-lint: allow(raw-new-delete): leaked singleton
      SIRIUS_CHECK_OK(tpch::LoadTpch(d, 0.01));
      return d;
    }();
    return instance;
  }

  static engine::SiriusEngine::Options BaseOptions() {
    engine::SiriusEngine::Options o;
    o.data_scale = 1000;  // model SF10 from the loaded SF0.01
    return o;
  }
};

TEST_F(FusionEngineTest, CompilerFusesStreamingChains) {
  // Fusion is a rule: every non-empty chain without a cross join, an ASOF
  // join or a residual join predicate fuses.
  for (int q : {3, 17, 21}) {
    auto query = db()->PlanSql(tpch::Query(q)).ValueOrDie();
    std::vector<engine::Pipeline> pipelines;
    ASSERT_TRUE(engine::PipelineCompiler::Compile(query, &pipelines).ok());
    auto stages =
        engine::FusedStageCompiler::Compile(pipelines, /*fusion_enabled=*/true);
    ASSERT_EQ(stages.size(), pipelines.size());
    int fused = 0;
    for (size_t i = 0; i < stages.size(); ++i) {
      bool fusable = !pipelines[i].steps.empty();
      for (const auto& s : pipelines[i].steps) {
        fusable = fusable && (s.kind != engine::StepKind::kJoin ||
                              (s.node->join_type != plan::JoinType::kCross &&
                               s.node->join_type != plan::JoinType::kAsof &&
                               s.node->residual == nullptr));
      }
      EXPECT_EQ(stages[i].exec == engine::StageExec::kFused, fusable)
          << "Q" << q << " pipeline " << i;
      EXPECT_EQ(stages[i].reason.empty(), fusable);
      fused += fusable ? 1 : 0;
    }
    EXPECT_GT(fused, 0) << "Q" << q << " has streaming chains that must fuse";
  }
}

TEST_F(FusionEngineTest, CompilerDisabledMarksEverythingMaterialized) {
  auto plan = db()->PlanSql(tpch::Query(6)).ValueOrDie();
  std::vector<engine::Pipeline> pipelines;
  ASSERT_TRUE(engine::PipelineCompiler::Compile(plan, &pipelines).ok());
  auto stages =
      engine::FusedStageCompiler::Compile(pipelines, /*fusion_enabled=*/false);
  for (const auto& s : stages) {
    EXPECT_EQ(s.exec, engine::StageExec::kMaterialized);
    EXPECT_EQ(s.reason, "fusion disabled");
  }
}

TEST_F(FusionEngineTest, ExplainPipelinesAnnotatesStages) {
  engine::SiriusEngine eng(db(), BaseOptions());
  auto plan = db()->PlanSql(tpch::Query(6)).ValueOrDie();
  auto text = eng.ExplainPipelines(plan).ValueOrDie();
  EXPECT_NE(text.find("[fused ops="), std::string::npos) << text;

  auto opts = BaseOptions();
  opts.fusion = false;
  engine::SiriusEngine off(db(), opts);
  auto text_off = off.ExplainPipelines(plan).ValueOrDie();
  EXPECT_NE(text_off.find("[materialized: fusion disabled]"),
            std::string::npos)
      << text_off;
}

// ---------------------------------------------------------------------------
// Engine: fused equals materialized, runs fewer launches, and is faster
// ---------------------------------------------------------------------------

TEST_F(FusionEngineTest, FusedMatchesMaterializedAndIsFaster) {
  auto on_opts = BaseOptions();
  auto off_opts = BaseOptions();
  off_opts.fusion = false;
  engine::SiriusEngine fused(db(), on_opts);
  engine::SiriusEngine mat(db(), off_opts);

  for (int q : {1, 3, 6, 19}) {
    auto plan = db()->PlanSql(tpch::Query(q)).ValueOrDie();
    // Warm both caches so the comparison is pure execution.
    ASSERT_TRUE(fused.ExecutePlan(plan).ok()) << "Q" << q;
    ASSERT_TRUE(mat.ExecutePlan(plan).ok()) << "Q" << q;
    auto f = fused.ExecutePlan(plan).ValueOrDie();
    auto m = mat.ExecutePlan(plan).ValueOrDie();

    EXPECT_TRUE(f.table->Equals(*m.table)) << "Q" << q;
    EXPECT_LT(f.timeline.total_seconds(), m.timeline.total_seconds())
        << "Q" << q << ": fused must beat materialized";
    EXPECT_LT(f.kernels.launches, m.kernels.launches) << "Q" << q;
    // Join pipelines skip both full-width gathers, so HBM traffic drops
    // outright. Dense scan->aggregate chains (Q1) instead trade gather
    // writes for selection re-reads — launches and time still win, but
    // raw traffic is not guaranteed lower, so only assert it for Q3.
    if (q == 3) {
      EXPECT_LT(f.kernels.hbm_bytes(), m.kernels.hbm_bytes()) << "Q" << q;
    }
  }
  EXPECT_GT(fused.stats().fused_stages, 0u);
  EXPECT_EQ(mat.stats().fused_stages, 0u);
}

TEST_F(FusionEngineTest, FusedStageSpanReplacesPerKernelSpans) {
  engine::SiriusEngine eng(db(), BaseOptions());
  auto plan = db()->PlanSql(tpch::Query(6)).ValueOrDie();
  auto result = eng.ExecutePlan(plan).ValueOrDie();
  ASSERT_NE(result.profile, nullptr);
  auto spans = result.profile->SpansNamed("fused-stage");
  ASSERT_FALSE(spans.empty());
  EXPECT_GE(spans[0]->Attr("fused_ops"), 1.0);
  EXPECT_GT(spans[0]->Attr("charged_s"), 0.0);

  auto opts = BaseOptions();
  opts.fusion = false;
  engine::SiriusEngine off(db(), opts);
  auto unfused = off.ExecutePlan(plan).ValueOrDie();
  ASSERT_NE(unfused.profile, nullptr);
  EXPECT_EQ(unfused.profile->CountNamed("fused-stage"), 0u);
  // The collapse is real: the fused profile carries fewer kernel spans.
  EXPECT_LT(result.profile->CountCategory("kernel"),
            unfused.profile->CountCategory("kernel"));
}

TEST_F(FusionEngineTest, PredicateTransferStaysFusedAndCorrect) {
  auto on_opts = BaseOptions();
  on_opts.predicate_transfer = true;
  auto off_opts = BaseOptions();
  off_opts.fusion = false;
  off_opts.predicate_transfer = true;
  engine::SiriusEngine fused(db(), on_opts);
  engine::SiriusEngine mat(db(), off_opts);
  for (int q : {3, 19}) {
    auto plan = db()->PlanSql(tpch::Query(q)).ValueOrDie();
    auto f = fused.ExecutePlan(plan).ValueOrDie();
    auto m = mat.ExecutePlan(plan).ValueOrDie();
    EXPECT_TRUE(f.table->Equals(*m.table)) << "Q" << q;
  }
  EXPECT_GT(fused.stats().fused_stages, 0u);
}

// ---------------------------------------------------------------------------
// Cross joins: join steps that only run materialized, inside fused queries
// ---------------------------------------------------------------------------

TEST_F(FusionEngineTest, CrossJoinStageRunsMaterializedBesideFusedStages) {
  auto plan = db()->PlanSql(
                      "select n_name, r_name from nation, region "
                      "where n_regionkey > 2 and r_regionkey < 2 "
                      "order by n_name, r_name")
                  .ValueOrDie();
  engine::SiriusEngine fused(db(), BaseOptions());
  auto text = fused.ExplainPipelines(plan).ValueOrDie();
  EXPECT_NE(text.find("probe(p1, cross)"), std::string::npos) << text;
  EXPECT_NE(text.find("[materialized: cross join]"), std::string::npos)
      << text;
  EXPECT_NE(text.find("[fused ops=1"), std::string::npos) << text;

  auto off_opts = BaseOptions();
  off_opts.fusion = false;
  engine::SiriusEngine mat(db(), off_opts);
  auto f = fused.ExecutePlan(plan).ValueOrDie();
  auto m = mat.ExecutePlan(plan).ValueOrDie();
  auto cpu = db()->ExecutePlanCpu(plan).ValueOrDie();
  EXPECT_TRUE(f.table->Equals(*m.table));
  EXPECT_TRUE(f.table->Equals(*cpu.table));
  EXPECT_GT(f.table->num_rows(), 0u);
  EXPECT_EQ(fused.stats().fused_stages, 1u);  // the region filter only
  EXPECT_EQ(mat.stats().fused_stages, 0u);
}

// ---------------------------------------------------------------------------
// Happens-before: fused stages keep the pipeline DAG's ordering edges
// ---------------------------------------------------------------------------

TEST_F(FusionEngineTest, RaceCheckSeesNoViolationsInFusedRuns) {
  auto opts = BaseOptions();
  opts.race_check = true;  // a violation aborts
  engine::SiriusEngine eng(db(), opts);
  // Join-heavy plans: build sides materialize on one stream and are probed
  // from another, through the fused probe's NoteRead.
  for (int q : {3, 5, 19}) {
    auto plan = db()->PlanSql(tpch::Query(q)).ValueOrDie();
    ASSERT_TRUE(eng.ExecutePlan(plan).ok()) << "Q" << q;
  }
  EXPECT_GT(eng.stats().fused_stages, 0u);
}

// ---------------------------------------------------------------------------
// Fault site: engine.fuse.compile degrades to materialized, never fails
// ---------------------------------------------------------------------------

TEST_F(FusionEngineTest, FuseCompileFaultFallsBackToMaterialized) {
  fault::FaultInjector inj;
  auto opts = BaseOptions();
  opts.injector = &inj;
  engine::SiriusEngine eng(db(), opts);
  auto plan = db()->PlanSql(tpch::Query(6)).ValueOrDie();
  auto reference = eng.ExecutePlan(plan).ValueOrDie();
  ASSERT_GT(eng.stats().fused_stages, 0u);
  const engine::SiriusEngine::Stats before = eng.stats();

  fault::FaultSpec spec;
  spec.max_triggers = 1;  // transient compile fault
  inj.Arm("engine.fuse.compile", spec);
  auto degraded = eng.ExecutePlan(plan).ValueOrDie();
  EXPECT_TRUE(degraded.table->Equals(*reference.table));
  // The whole run fell back.
  EXPECT_EQ(eng.stats().fused_stages - before.fused_stages, 0u);
  EXPECT_EQ(eng.stats().fusion_fallbacks - before.fusion_fallbacks, 1u);

  // The fault healed: the next query fuses again.
  auto healed = eng.ExecutePlan(plan).ValueOrDie();
  EXPECT_TRUE(healed.table->Equals(*reference.table));
  EXPECT_GT(eng.stats().fused_stages, 0u);
}

TEST_F(FusionEngineTest, FusionOffOptionDisablesFusedStages) {
  auto opts = BaseOptions();
  opts.fusion = false;
  engine::SiriusEngine eng(db(), opts);
  auto plan = db()->PlanSql(tpch::Query(1)).ValueOrDie();
  ASSERT_TRUE(eng.ExecutePlan(plan).ok());
  EXPECT_EQ(eng.stats().fused_stages, 0u);
  EXPECT_EQ(eng.stats().fusion_fallbacks, 0u);
}

// ---------------------------------------------------------------------------
// Out-of-core: fused passes per batch, morsel boundary materializes
// ---------------------------------------------------------------------------

TEST_F(FusionEngineTest, OutOfCoreFusedMatchesInCore) {
  auto reference_opts = BaseOptions();
  engine::SiriusEngine reference(db(), reference_opts);

  auto ooc_opts = BaseOptions();
  ooc_opts.out_of_core = true;
  // Shrink the device so lineitem cannot fit and must stream in batches.
  ooc_opts.device.mem_capacity_gib = 0.0005;
  engine::SiriusEngine small(db(), ooc_opts);

  for (int q : {1, 6}) {
    auto plan = db()->PlanSql(tpch::Query(q)).ValueOrDie();
    auto want = reference.ExecutePlan(plan).ValueOrDie();
    auto got = small.ExecutePlan(plan).ValueOrDie();
    EXPECT_TRUE(got.table->Equals(*want.table)) << "Q" << q;
  }
  EXPECT_GT(small.stats().fused_stages, 0u);
}

}  // namespace
}  // namespace sirius
