// Differential correctness: every GPU-supported TPC-H query runs through
// both the SiriusEngine device path and the host CPU executor on the same
// optimized plan, and the result tables must agree cell-by-cell (type-aware
// epsilon for FLOAT64, exact for everything else).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <tuple>

#include "cell_compare.h"
#include "engine/sirius.h"
#include "host/database.h"
#include "ssb/dbgen.h"
#include "ssb/queries.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace sirius {
namespace {

using format::Table;

host::Database* Db() {
  static host::Database* db = [] {
    auto* d = new host::Database();  // sirius-lint: allow(raw-new-delete): leaked singleton
    SIRIUS_CHECK_OK(tpch::LoadTpch(d, 0.01));
    return d;
  }();
  return db;
}

engine::SiriusEngine* Gpu() {
  static engine::SiriusEngine* engine =
      new engine::SiriusEngine(Db(), {});  // sirius-lint: allow(raw-new-delete): leaked singleton
  return engine;
}

class DifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialTest, GpuMatchesCpuCellByCell) {
  const int q = GetParam();
  auto plan = Db()->PlanSql(tpch::Query(q)).ValueOrDie();

  auto gpu = Gpu()->ExecutePlan(plan);
  if (!gpu.ok() && gpu.status().IsUnsupportedOnDevice()) {
    GTEST_SKIP() << "Q" << q << " not GPU-supported: "
                 << gpu.status().ToString();
  }
  ASSERT_TRUE(gpu.ok()) << "Q" << q << ": " << gpu.status().ToString();
  auto cpu = Db()->ExecutePlanCpu(plan);
  ASSERT_TRUE(cpu.ok()) << "Q" << q << ": " << cpu.status().ToString();

  const Table& g = *gpu.ValueOrDie().table;
  const Table& c = *cpu.ValueOrDie().table;
  ASSERT_EQ(g.num_columns(), c.num_columns()) << "Q" << q;
  ASSERT_EQ(g.num_rows(), c.num_rows()) << "Q" << q;
  for (size_t col = 0; col < g.num_columns(); ++col) {
    ASSERT_EQ(g.schema().field(col).type, c.schema().field(col).type)
        << "Q" << q << " column " << col << " type mismatch";
  }

  cells::ExpectSameCells(g, c, "Q" + std::to_string(q), "gpu", "cpu");
}

INSTANTIATE_TEST_SUITE_P(AllQueries, DifferentialTest, ::testing::Range(1, 23),
                         [](const auto& info) {
                           return "Q" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// SSB sweep: all 13 queries x generator variants (uniform, Zipf skew 1 and 2
// on the fact-table foreign keys, string-heavy dimension strings). The skewed
// variants concentrate the join build sides onto a few hot keys and the
// string-heavy variant makes string sort-based group-bys dominate — the
// paper's §4.2 hard cases, held cell-for-cell exact GPU vs CPU.
// ---------------------------------------------------------------------------

struct SsbVariant {
  const char* name;
  double skew;
  bool string_heavy;
};

constexpr SsbVariant kSsbVariants[] = {{"Skew0", 0.0, false},
                                       {"Skew1", 1.0, false},
                                       {"Skew2", 2.0, false},
                                       {"StringHeavy", 0.0, true}};
constexpr int kNumSsbVariants = 4;

ssb::SsbOptions SsbOptionsFor(int v) {
  ssb::SsbOptions options;
  options.sf = 0.005;
  options.skew = kSsbVariants[v].skew;
  options.string_heavy = kSsbVariants[v].string_heavy;
  return options;
}

host::Database* SsbDb(int v) {
  static std::array<host::Database*, kNumSsbVariants> dbs{};
  if (dbs[static_cast<size_t>(v)] == nullptr) {
    auto* d = new host::Database();  // sirius-lint: allow(raw-new-delete): leaked singleton
    SIRIUS_CHECK_OK(ssb::LoadSsb(d, SsbOptionsFor(v)));
    dbs[static_cast<size_t>(v)] = d;
  }
  return dbs[static_cast<size_t>(v)];
}

engine::SiriusEngine* SsbGpu(int v) {
  static std::array<engine::SiriusEngine*, kNumSsbVariants> engines{};
  if (engines[static_cast<size_t>(v)] == nullptr) {
    engines[static_cast<size_t>(v)] =
        new engine::SiriusEngine(SsbDb(v), {});  // sirius-lint: allow(raw-new-delete): leaked singleton
  }
  return engines[static_cast<size_t>(v)];
}

class SsbDifferentialTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SsbDifferentialTest, GpuMatchesCpuCellByCell) {
  const int v = std::get<0>(GetParam());
  const int q = std::get<1>(GetParam());
  const std::string label =
      std::string(kSsbVariants[v].name) + "/" + ssb::QueryName(q);
  auto plan = SsbDb(v)->PlanSql(ssb::Query(q)).ValueOrDie();

  auto gpu = SsbGpu(v)->ExecutePlan(plan);
  ASSERT_TRUE(gpu.ok()) << label << ": " << gpu.status().ToString();
  auto cpu = SsbDb(v)->ExecutePlanCpu(plan);
  ASSERT_TRUE(cpu.ok()) << label << ": " << cpu.status().ToString();

  const Table& g = *gpu.ValueOrDie().table;
  const Table& c = *cpu.ValueOrDie().table;
  ASSERT_EQ(g.num_columns(), c.num_columns()) << label;
  ASSERT_EQ(g.num_rows(), c.num_rows()) << label;
  for (size_t col = 0; col < g.num_columns(); ++col) {
    ASSERT_EQ(g.schema().field(col).type, c.schema().field(col).type)
        << label << " column " << col << " type mismatch";
  }

  // SSB money columns are Int64, so every cell comparison here is exact.
  cells::ExpectSameCells(g, c, label, "gpu", "cpu");
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, SsbDifferentialTest,
    ::testing::Combine(::testing::Range(0, kNumSsbVariants),
                       ::testing::Range(1, ssb::NumQueries() + 1)),
    [](const auto& info) {
      std::string name = ssb::QueryName(std::get<1>(info.param));
      std::replace(name.begin(), name.end(), '.', '_');
      name[0] = 'Q';
      return std::string(kSsbVariants[std::get<0>(info.param)].name) + "_" +
             name;
    });

// The sweep must not pass vacuously: the flight-2/3/4 group-bys have to
// produce real groups at the test scale factor on every variant.
TEST(SsbDifferentialSanity, GroupByQueriesProduceRows) {
  for (int v = 0; v < kNumSsbVariants; ++v) {
    for (int q : {4, 7, 11}) {  // q2.1, q3.1, q4.1
      auto plan = SsbDb(v)->PlanSql(ssb::Query(q)).ValueOrDie();
      auto cpu = SsbDb(v)->ExecutePlanCpu(plan);
      ASSERT_TRUE(cpu.ok()) << cpu.status().ToString();
      EXPECT_GT(cpu.ValueOrDie().table->num_rows(), 0u)
          << kSsbVariants[v].name << "/" << ssb::QueryName(q);
    }
  }
}

// ---------------------------------------------------------------------------
// Fusion sweep: fused (default) vs materialized (fusion=false) execution of
// the same plan on the same engine state must agree cell-for-cell across all
// 22 TPC-H queries and all 13 SSB queries. The fused path replaces gathered
// intermediates with selection-vector flow; any divergence in row mapping,
// null handling, or sink materialization shows up here.
// ---------------------------------------------------------------------------

engine::SiriusEngine* GpuUnfused() {
  static engine::SiriusEngine* engine = [] {
    engine::SiriusEngine::Options options;
    options.fusion = false;
    return new engine::SiriusEngine(Db(), options);  // sirius-lint: allow(raw-new-delete): leaked singleton
  }();
  return engine;
}

class FusionDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(FusionDifferentialTest, FusedMatchesMaterializedCellByCell) {
  const int q = GetParam();
  auto plan = Db()->PlanSql(tpch::Query(q)).ValueOrDie();

  auto fused = Gpu()->ExecutePlan(plan);
  if (!fused.ok() && fused.status().IsUnsupportedOnDevice()) {
    GTEST_SKIP() << "Q" << q << " not GPU-supported: "
                 << fused.status().ToString();
  }
  ASSERT_TRUE(fused.ok()) << "Q" << q << ": " << fused.status().ToString();
  auto mat = GpuUnfused()->ExecutePlan(plan);
  ASSERT_TRUE(mat.ok()) << "Q" << q << ": " << mat.status().ToString();

  cells::ExpectSameCells(*fused.ValueOrDie().table, *mat.ValueOrDie().table,
                         "Q" + std::to_string(q), "fused", "materialized");
}

INSTANTIATE_TEST_SUITE_P(AllQueries, FusionDifferentialTest,
                         ::testing::Range(1, 23), [](const auto& info) {
                           return "Q" + std::to_string(info.param);
                         });

engine::SiriusEngine* SsbGpuUnfused() {
  static engine::SiriusEngine* engine = [] {
    engine::SiriusEngine::Options options;
    options.fusion = false;
    return new engine::SiriusEngine(SsbDb(0), options);  // sirius-lint: allow(raw-new-delete): leaked singleton
  }();
  return engine;
}

class SsbFusionDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(SsbFusionDifferentialTest, FusedMatchesMaterializedCellByCell) {
  const int q = GetParam();
  auto plan = SsbDb(0)->PlanSql(ssb::Query(q)).ValueOrDie();

  auto fused = SsbGpu(0)->ExecutePlan(plan);
  ASSERT_TRUE(fused.ok()) << ssb::QueryName(q) << ": "
                          << fused.status().ToString();
  auto mat = SsbGpuUnfused()->ExecutePlan(plan);
  ASSERT_TRUE(mat.ok()) << ssb::QueryName(q) << ": "
                        << mat.status().ToString();

  cells::ExpectSameCells(*fused.ValueOrDie().table, *mat.ValueOrDie().table,
                         ssb::QueryName(q), "fused", "materialized");
}

INSTANTIATE_TEST_SUITE_P(AllQueries, SsbFusionDifferentialTest,
                         ::testing::Range(1, ssb::NumQueries() + 1),
                         [](const auto& info) {
                           std::string name = ssb::QueryName(info.param);
                           std::replace(name.begin(), name.end(), '.', '_');
                           name[0] = 'Q';
                           return name;
                         });

}  // namespace
}  // namespace sirius
