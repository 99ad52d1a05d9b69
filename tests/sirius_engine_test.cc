// Integration tests for the Sirius GPU engine: drop-in acceleration via the
// Substrait boundary, cross-engine result agreement on all 22 TPC-H
// queries, graceful fallback, buffer-manager behaviour, pipelines.

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <numeric>

#include "engine/device_support.h"
#include "engine/sirius.h"
#include "scoped_udf.h"
#include "ssb/queries.h"
#include "tpch/queries.h"

namespace sirius {
namespace {

constexpr double kSf = 0.01;
// Model SF100 on SF0.01 data (the paper's evaluation scale, §4.1).
constexpr double kDataScale = 100.0 / kSf;

host::Database* SharedDb() {
  static host::Database* db = [] {
    host::Database::Options options;
    options.data_scale = kDataScale;
    auto* d = new host::Database(options);  // sirius-lint: allow(raw-new-delete): leaked singleton
    SIRIUS_CHECK_OK(tpch::LoadTpch(d, kSf));
    return d;
  }();
  return db;
}

engine::SiriusEngine* SharedEngine() {
  static engine::SiriusEngine* eng = [] {
    engine::SiriusEngine::Options options;
    options.data_scale = kDataScale;
    return new engine::SiriusEngine(SharedDb(), options);  // sirius-lint: allow(raw-new-delete): leaked singleton
  }();
  return eng;
}

class CrossEngineTest : public ::testing::TestWithParam<int> {};

TEST_P(CrossEngineTest, SiriusMatchesCpuEngine) {
  const int q = GetParam();
  host::Database* db = SharedDb();

  // CPU path.
  db->SetAccelerator(nullptr);
  auto cpu = db->Query(tpch::Query(q));
  ASSERT_TRUE(cpu.ok()) << "Q" << q << " cpu: " << cpu.status().ToString();

  // GPU path through the Substrait drop-in boundary.
  db->SetAccelerator(SharedEngine());
  auto gpu = db->Query(tpch::Query(q));
  db->SetAccelerator(nullptr);
  ASSERT_TRUE(gpu.ok()) << "Q" << q << " gpu: " << gpu.status().ToString();
  EXPECT_TRUE(gpu.ValueOrDie().accelerated) << "Q" << q;
  EXPECT_FALSE(gpu.ValueOrDie().fell_back) << "Q" << q;

  const auto& ct = *cpu.ValueOrDie().table;
  const auto& gt = *gpu.ValueOrDie().table;
  EXPECT_TRUE(ct.Equals(gt) || ct.EqualsUnordered(gt))
      << "Q" << q << " results differ.\nCPU:\n"
      << ct.ToString(8) << "\nGPU:\n"
      << gt.ToString(8);
}

INSTANTIATE_TEST_SUITE_P(AllQueries, CrossEngineTest, ::testing::Range(1, 23),
                         [](const auto& info) {
                           return "Q" + std::to_string(info.param);
                         });

TEST(SiriusEngineTest, GpuIsFasterThanCpuOnModeledTime) {
  host::Database* db = SharedDb();
  db->SetAccelerator(nullptr);
  auto cpu = db->Query(tpch::Query(1)).ValueOrDie();
  db->SetAccelerator(SharedEngine());
  (void)db->Query(tpch::Query(1));  // cold run populates the cache
  auto gpu = db->Query(tpch::Query(1)).ValueOrDie();
  db->SetAccelerator(nullptr);
  // Hot-run GPU execution should beat the CPU engine in simulated time.
  EXPECT_LT(gpu.timeline.total_seconds(), cpu.timeline.total_seconds());
}

TEST(SiriusEngineTest, GracefulFallbackOnUnsupportedFeature) {
  // No device-side UDF exists (§3.4), so the device declines the plan.
  ScopedUdf clamp(ClampUdf());
  const std::string sql =
      "select l_returnflag, sum(clamp100(l_linenumber * 30)) as capped "
      "from lineitem group by l_returnflag order by l_returnflag";
  host::Database* db = SharedDb();
  db->SetAccelerator(SharedEngine());
  auto r = db->Query(sql);
  db->SetAccelerator(nullptr);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.ValueOrDie().fell_back);
  EXPECT_FALSE(r.ValueOrDie().accelerated);
  // The fallback result still matches the CPU engine.
  auto cpu = db->Query(sql).ValueOrDie();
  EXPECT_TRUE(cpu.table->Equals(*r.ValueOrDie().table));
}

TEST(SiriusEngineTest, FallbackNotTriggeredWhenSupported) {
  host::Database* db = SharedDb();
  db->SetAccelerator(SharedEngine());
  auto r = db->Query(tpch::Query(6)).ValueOrDie();
  db->SetAccelerator(nullptr);
  EXPECT_TRUE(r.accelerated);
  EXPECT_FALSE(r.fell_back);
}

TEST(SiriusEngineTest, HotRunIsCheaperThanColdRun) {
  host::Database* db = SharedDb();
  engine::SiriusEngine::Options options;
  engine::SiriusEngine eng(db, options);
  db->SetAccelerator(&eng);
  auto cold = db->Query(tpch::Query(6)).ValueOrDie();
  auto hot = db->Query(tpch::Query(6)).ValueOrDie();
  db->SetAccelerator(nullptr);
  EXPECT_TRUE(eng.buffer_manager().IsCached("lineitem", 10));
  EXPECT_LT(hot.timeline.total_seconds(), cold.timeline.total_seconds());
}

TEST(SiriusEngineTest, EvictAllForcesColdLoad) {
  host::Database* db = SharedDb();
  engine::SiriusEngine::Options options;
  engine::SiriusEngine eng(db, options);
  db->SetAccelerator(&eng);
  (void)db->Query(tpch::Query(6));
  EXPECT_TRUE(eng.buffer_manager().IsCached("lineitem", 10));
  eng.buffer_manager().EvictAll();
  EXPECT_FALSE(eng.buffer_manager().IsCached("lineitem", 10));
  EXPECT_EQ(eng.buffer_manager().cached_modeled_bytes(), 0u);
  db->SetAccelerator(nullptr);
}

TEST(SiriusEngineTest, CachingRegionOverflowReportsOom) {
  host::Database* db = SharedDb();
  engine::SiriusEngine::Options options;
  // Model SF100 on a tiny device: nothing fits, no out-of-core.
  options.data_scale = 10000.0;
  options.device.mem_capacity_gib = 1.0;
  options.out_of_core = false;
  engine::SiriusEngine eng(db, options);
  db->SetAccelerator(&eng);
  auto r = db->Query(tpch::Query(6)).ValueOrDie();
  db->SetAccelerator(nullptr);
  // Graceful fallback: the query still succeeds, on the CPU.
  EXPECT_TRUE(r.fell_back);
}

TEST(SiriusEngineTest, OutOfCoreBatchModeProducesSameResults) {
  host::Database* db = SharedDb();
  engine::SiriusEngine::Options options;
  options.data_scale = 10000.0;  // model SF100 on...
  options.device.mem_capacity_gib = 1.0;  // ...a 1 GiB device
  options.out_of_core = true;    // §3.4 extension
  engine::SiriusEngine eng(db, options);
  db->SetAccelerator(&eng);
  auto r = db->Query(tpch::Query(6));
  db->SetAccelerator(nullptr);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.ValueOrDie().accelerated);
  auto cpu = db->Query(tpch::Query(6)).ValueOrDie();
  EXPECT_TRUE(cpu.table->Equals(*r.ValueOrDie().table));
}

TEST(SiriusEngineTest, StalePlanScanningAMissingColumnIsAnError) {
  // A plan bound before its table was replaced may scan a column the new
  // table lacks. Like DuckX, the engine refuses it with an IndexError before
  // it reads a column, in core and on the out-of-core batch path.
  host::Database db;
  auto int64_table = [](const std::vector<std::string>& names) {
    std::vector<format::Field> fields;
    std::vector<format::ColumnPtr> cols;
    std::vector<int64_t> values(1000);
    std::iota(values.begin(), values.end(), 0);
    for (const auto& name : names) {
      fields.push_back({name, format::Int64()});
      cols.push_back(format::Column::FromInt64(values));
    }
    return format::Table::Make(format::Schema(std::move(fields)),
                               std::move(cols))
        .ValueOrDie();
  };
  ASSERT_TRUE(db.CreateTable("t", int64_table({"a", "b", "c", "d"})).ok());
  auto plan = db.PlanSql("SELECT SUM(d) FROM t").ValueOrDie();

  engine::SiriusEngine::Options batched;
  batched.out_of_core = true;
  batched.data_scale = 1.0e6;             // the scan overflows the caching
  batched.device.mem_capacity_gib = 1.0;  // region of a 1 GiB device
  engine::SiriusEngine in_core(&db, engine::SiriusEngine::Options{});
  engine::SiriusEngine out_of_core(&db, batched);
  ASSERT_TRUE(in_core.ExecutePlan(plan).ok());
  ASSERT_TRUE(out_of_core.ExecutePlan(plan).ok());
  EXPECT_TRUE(in_core.buffer_manager().IsCached("t", 3));
  EXPECT_FALSE(out_of_core.buffer_manager().IsCached("t", 3));  // it batched

  ASSERT_TRUE(db.CreateTable("t", int64_table({"a"})).ok());
  auto cpu = db.ExecutePlanCpu(plan);
  ASSERT_FALSE(cpu.ok());
  EXPECT_EQ(cpu.status().code(), StatusCode::kIndexError)
      << cpu.status().ToString();
  for (engine::SiriusEngine* eng : {&in_core, &out_of_core}) {
    auto r = eng->ExecutePlan(plan);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kIndexError)
        << r.status().ToString();
    EXPECT_EQ(r.status().message(), cpu.status().message());
  }
}

TEST(SiriusEngineTest, OutOfCoreBatchesCarryListColumns) {
  // A scan over the caching region streams in batches, and the batch loop
  // concatenates their outputs. A LIST column (an embedding, one of the
  // nested types of §3.4) must cross it on the device, not fall back.
  host::Database db;
  std::vector<int64_t> ids(2000);
  std::vector<std::vector<double>> embs(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<int64_t>(i);
    embs[i].assign(i % 4, static_cast<double>(i) / 8);  // some lists empty
  }
  ASSERT_TRUE(db.CreateTable(
                    "docs", format::Table::Make(
                                format::Schema({{"id", format::Int64()},
                                                {"emb", format::List(format::Float64())}}),
                                {format::Column::FromInt64(ids),
                                 format::Column::FromListsOfDoubles(embs)})
                                .ValueOrDie())
                  .ok());
  const std::string sql = "SELECT id, emb FROM docs WHERE id > 1500";
  auto plan = db.PlanSql(sql).ValueOrDie();
  auto cpu = db.ExecutePlanCpu(plan).ValueOrDie();
  ASSERT_EQ(cpu.table->num_rows(), 499u);

  engine::SiriusEngine::Options options;
  options.out_of_core = true;
  options.data_scale = 1.0e6;             // the scan overflows the caching
  options.device.mem_capacity_gib = 1.0;  // region of a 1 GiB device
  engine::SiriusEngine eng(&db, options);
  auto gpu = eng.ExecutePlan(plan);
  ASSERT_TRUE(gpu.ok()) << gpu.status().ToString();
  EXPECT_FALSE(eng.buffer_manager().IsCached("docs", 1));  // it batched
  EXPECT_TRUE(cpu.table->Equals(*gpu.ValueOrDie().table));

  db.SetAccelerator(&eng);
  auto r = db.Query(sql);
  db.SetAccelerator(nullptr);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.ValueOrDie().accelerated);
  EXPECT_FALSE(r.ValueOrDie().fell_back);
  EXPECT_TRUE(cpu.table->Equals(*r.ValueOrDie().table));
}

/// The out-of-core pin below, one line per run in ModeledFingerprint's
/// format, runs 0-21 being the first pass. Recorded when each batch still
/// copied every column of the host table; only a change to the model may
/// re-record them.
const char* const kPinnedOutOfCore[] = {
    "Q1 0x1.f216f8ee2196dp+6 scan=0x1.727ae2364a0f3p-1 filter=0x1.0de9238c3dd82p-4 project=0x1.5742dcf4623efp-3 groupby=0x1.721792866133cp+0 orderby=0x1.36c727f64e91ep-14 other=0x1.e87a75bbcbbdfp+6 launches=240 seq=3831921800000 rand=1080192400000",
    "Q2 0x1.7357714449ecfp-3 scan=0x1.2ba3638e8c66fp-5 filter=0x1.2185443069e38p-9 project=0x1.3c68661ae70c1p-10 join=0x1.905823474158fp-5 groupby=0x1.126899a29679ap-8 orderby=0x1.4779abd1fc512p-15 other=0x1.6963da941a677p-4 launches=94 seq=71671800000 rand=37208000000",
    "Q3 0x1.f3451d2610f71p+0 scan=0x1.a39f1c30e7e79p-2 filter=0x1.09746d9026535p-4 project=0x1.39d949dbb9032p-10 join=0x1.c8287e66ef7e5p-4 groupby=0x1.d17df203a986fp-8 orderby=0x1.df71a369b55eap-11 other=0x1.5ae7a4e17dd1dp+0 launches=111 seq=930794700000 rand=779723600000",
    "Q4 0x1.63c505f28300bp-1 scan=0x1.e5eb4c13d4c92p-4 filter=0x1.23afed98f52efp-4 project=0x1.520f974cb83f7p-14 join=0x1.8228d44913dfbp-4 groupby=0x1.01079a1dfaeffp-8 orderby=0x1.1c92d383d3548p-15 other=0x1.a076e46f05b59p-2 launches=27 seq=422244100000 rand=61652000000",
    "Q5 0x1.f7874296dcf6bp+0 scan=0x1.d214a384a52dbp-2 filter=0x1.227d2654b6c9fp-6 project=0x1.11c87f60326fap-12 join=0x1.10cd1fba35b3ep-2 groupby=0x1.4a4e72684e37bp-12 orderby=0x1.f8467211b4016p-16 other=0x1.3a1d237844c97p+0 launches=116 seq=814083300000 rand=881519800000",
    "Q6 0x1.bf54c1005e566p+0 scan=0x1.802cae554239ep-2 filter=0x1.4ebd5a6902222p-3 project=0x1.2e331932002d5p-11 aggregate=0x1.b5a174781bd7ep-10 other=0x1.34debb5da93cep+0 launches=45 seq=712808900000 rand=700382800000",
    "Q7 0x1.e13977e160d72p+4 scan=0x1.0107ee52a0279p-1 filter=0x1.0ac2279ef20fcp-3 project=0x1.28b79080aec87p-12 join=0x1.2c64ddbbb68a4p-2 groupby=0x1.c7b89b0f883d8p-12 orderby=0x1.90bc5c9849ef8p-15 other=0x1.d266fe20e7f45p+4 launches=133 seq=1616712100000 rand=845732800000",
    "Q8 0x1.fd9fb388ee23cp+0 scan=0x1.21e33bbbf762ap-1 filter=0x1.494b7fa1e8646p-6 project=0x1.4359d33635fe7p-12 join=0x1.775443b47642fp-3 groupby=0x1.1284333d62dbdp-10 orderby=0x1.31814f2a32a65p-16 other=0x1.3844570a8a22cp+0 launches=272 seq=805940200000 rand=828327400000",
    "Q9 0x1.24103da240abbp+1 scan=0x1.5c466bad866edp-1 filter=0x1.37c6cf1534d3dp-10 project=0x1.09d9c160406aep-6 join=0x1.083f4af4b37cfp-2 groupby=0x1.48024bae9197p-5 orderby=0x1.0e275bff18cb4p-9 other=0x1.48b0f3ebd6d91p+0 launches=182 seq=1088030200000 rand=867346000000",
    "Q10 0x1.03e7300d8552ap+1 scan=0x1.f23354798d432p-2 filter=0x1.e2e8625488ee5p-5 project=0x1.26e4b7ecb28cep-5 join=0x1.d5dbb0dcf3d2fp-5 groupby=0x1.5797cc39ffd61p-4 orderby=0x1.760f50d5db694p-8 other=0x1.4d54b88f4002ep+0 launches=136 seq=1197630500000 rand=761630800000",
    "Q11 0x1.8fb7cf122f0d3p-4 scan=0x1.0fbfb46ec0606p-5 filter=0x1.d771dbf9e2494p-11 project=0x1.4aa6a5aa017f2p-11 join=0x1.298140252df45p-5 groupby=0x1.1aaa8783b004ap-11 aggregate=0x1.da8e37c1d0d1ap-16 orderby=0x1.ded4696f067b4p-11 other=0x1.9b09f3fe3a453p-6 launches=71 seq=59753600000 rand=27338400000",
    "Q12 0x1.de3e97f214f1ep+0 scan=0x1.d110108fc9f51p-2 filter=0x1.5e317d9822e8cp-3 project=0x1.0e7f665942024p-10 join=0x1.13ae2873efb1ap-5 groupby=0x1.d83612a428c4dp-10 orderby=0x1.67d4d287ed76cp-16 other=0x1.34dbdda46cb74p+0 launches=59 seq=754682300000 rand=723894800000",
    "Q13 0x1.dfe2d9d6e79e2p+4 scan=0x1.2dd499f0ef4a8p-2 project=0x1.5a98676a7264ap-6 join=0x1.cdfc32ae8a47ap-3 groupby=0x1.f54eaff6bebccp-5 orderby=0x1.fba3feddac9dp-13 other=0x1.d63d43c5f161ap+4 launches=29 seq=625019800000 rand=263967200000",
    "Q14 0x1.b2131c9516fe1p+0 scan=0x1.8415ad87bce07p-2 filter=0x1.114274606bc24p-4 project=0x1.1877c60a3aec3p-8 join=0x1.2c1f75dcd3077p-5 aggregate=0x1.05ca1b74c6529p-9 other=0x1.34fd316a75d3ep+0 launches=97 seq=734538000000 rand=726202800000",
    "Q15 0x1.b6a4c1f44029fp+1 scan=0x1.80860bbea9dc8p-1 filter=0x1.14d5ee6ce8efcp-3 project=0x1.13954fcf92c17p-8 join=0x1.e7e5bd4a26fbp-12 groupby=0x1.ffee7a5a06102p-4 aggregate=0x1.54567abc21653p-16 orderby=0x1.417bc11896c58p-16 other=0x1.349c178c06ee8p+1 launches=130 seq=1452602400000 rand=1410506400000",
    "Q16 0x1.c5f5039450cc1p-4 scan=0x1.0bd03ba580e6dp-6 filter=0x1.5f98a5363e38dp-8 project=0x1.59ebbd0b47144p-9 join=0x1.7b46f122f7a4ap-6 groupby=0x1.cef6e852312f8p-6 orderby=0x1.1bf628b387aa5p-7 other=0x1.b0a743eddd2f6p-6 launches=35 seq=136191700000 rand=16979200000",
    "Q17 0x1.165cd9c95a10ap+1 scan=0x1.95eacecebdf7p-2 filter=0x1.27a323cdac376p-9 project=0x1.2aff4075ca3ffp-6 join=0x1.15478fe189f33p-3 groupby=0x1.923aa47e17d7bp-3 aggregate=0x1.51763306fae4bp-17 other=0x1.6d0e420438e7bp+0 launches=82 seq=826080500000 rand=943784400000",
    "Q18 0x1.72be032493b84p+0 scan=0x1.73128de8d3046p-3 filter=0x1.999e12ecb363bp-7 project=0x1.0d6f71b21cebp-3 join=0x1.a8f61fdf8f1e4p-2 groupby=0x1.9260f16aca318p-3 orderby=0x1.526ba0435d0f8p-16 other=0x1.05df1cf4fe053p-1 launches=48 seq=837294500000 rand=388052800000",
    "Q19 0x1.1c49e40edc616p+1 scan=0x1.bc1dac59bf774p-1 filter=0x1.d82599a5e73e1p-4 project=0x1.fa314c8a7856fp-19 join=0x1.7ac945c94c609p-7 aggregate=0x1.db83a4fe32fc7p-18 other=0x1.3a0c4fa3d5296p+0 launches=101 seq=793161500000 rand=705887600000",
    "Q20 0x1.dc10b9477ad75p+0 scan=0x1.965729e239bcfp-2 filter=0x1.2924ed0adee6ap-4 project=0x1.87328ec8853f6p-7 join=0x1.45c88a14cb92p-5 groupby=0x1.7c67de9bedb5dp-5 orderby=0x1.0bf4c36d2dc37p-16 other=0x1.4ac7aba664382p+0 launches=102 seq=870530800000 rand=755525200000",
    "Q21 0x1.6f5057d0bc09dp+2 scan=0x1.766a2de2d8ef7p-1 filter=0x1.22368cf4841cbp-2 project=0x1.62d45243e148p-9 join=0x1.c30f855d31f5ep+0 groupby=0x1.d945b434fd6afp-12 orderby=0x1.6232f0c52cbb2p-15 other=0x1.7aceae6674f39p+1 launches=292 seq=2895073100000 rand=2629939200000",
    "Q22 0x1.efa024f3948b7p-4 scan=0x1.142aa1050f7b1p-6 filter=0x1.6d4c4828fe3a8p-7 project=0x1.d23b5a018c805p-11 join=0x1.48775ddc874abp-5 groupby=0x1.cadf30b9fadcep-12 aggregate=0x1.0899c519d62d8p-14 orderby=0x1.a51baddb6ffdbp-15 other=0x1.a59449e65c911p-5 launches=48 seq=60209900000 rand=27834400000",
    "Q1 0x1.f216f8ee2196dp+6 scan=0x1.727ae2364a0f3p-1 filter=0x1.0de9238c3dd82p-4 project=0x1.5742dcf4623efp-3 groupby=0x1.721792866133cp+0 orderby=0x1.36c727f64e91ep-14 other=0x1.e87a75bbcbbdfp+6 launches=240 seq=3831921800000 rand=1080192400000",
    "Q2 0x1.2702e110d237fp-3 scan=0x1.2ba3638e8c66fp-5 filter=0x1.2185443069e38p-9 project=0x1.3c68661ae70c1p-10 join=0x1.905823474158fp-5 groupby=0x1.126899a29679ap-8 orderby=0x1.4779abd1fc512p-15 other=0x1.a175745a55fb1p-5 launches=94 seq=71671800000 rand=37208000000",
    "Q3 0x1.e4ef190d7d826p+0 scan=0x1.a39f1c30e7e79p-2 filter=0x1.09746d9026535p-4 project=0x1.39d949dbb9032p-10 join=0x1.c8287e66ef7e5p-4 groupby=0x1.d17df203a986fp-8 orderby=0x1.df71a369b55eap-11 other=0x1.4c91a0c8ea5d2p+0 launches=111 seq=930794700000 rand=779723600000",
    "Q4 0x1.2ce3bc6736907p-1 scan=0x1.e5eb4c13d4c92p-4 filter=0x1.23afed98f52efp-4 project=0x1.520f974cb83f7p-14 join=0x1.8228d44913dfbp-4 groupby=0x1.01079a1dfaeffp-8 orderby=0x1.1c92d383d3548p-15 other=0x1.32b451586cd5p-2 launches=27 seq=422244100000 rand=61652000000",
    "Q5 0x1.f7874296dcf6bp+0 scan=0x1.d214a384a52dbp-2 filter=0x1.227d2654b6c9fp-6 project=0x1.11c87f60326fap-12 join=0x1.10cd1fba35b3ep-2 groupby=0x1.4a4e72684e37bp-12 orderby=0x1.f8467211b4016p-16 other=0x1.3a1d237844c97p+0 launches=116 seq=814083300000 rand=881519800000",
    "Q6 0x1.bf54c1005e566p+0 scan=0x1.802cae554239ep-2 filter=0x1.4ebd5a6902222p-3 project=0x1.2e331932002d5p-11 aggregate=0x1.b5a174781bd7ep-10 other=0x1.34debb5da93cep+0 launches=45 seq=712808900000 rand=700382800000",
    "Q7 0x1.e13977e160d72p+4 scan=0x1.0107ee52a0279p-1 filter=0x1.0ac2279ef20fcp-3 project=0x1.28b79080aec87p-12 join=0x1.2c64ddbbb68a4p-2 groupby=0x1.c7b89b0f883d8p-12 orderby=0x1.90bc5c9849ef8p-15 other=0x1.d266fe20e7f45p+4 launches=133 seq=1616712100000 rand=845732800000",
    "Q8 0x1.fd9fb388ee23cp+0 scan=0x1.21e33bbbf762ap-1 filter=0x1.494b7fa1e8646p-6 project=0x1.4359d33635fe7p-12 join=0x1.775443b47642fp-3 groupby=0x1.1284333d62dbdp-10 orderby=0x1.31814f2a32a65p-16 other=0x1.3844570a8a22cp+0 launches=272 seq=805940200000 rand=828327400000",
    "Q9 0x1.24103da240abbp+1 scan=0x1.5c466bad866edp-1 filter=0x1.37c6cf1534d3dp-10 project=0x1.09d9c160406aep-6 join=0x1.083f4af4b37cfp-2 groupby=0x1.48024bae9197p-5 orderby=0x1.0e275bff18cb4p-9 other=0x1.48b0f3ebd6d91p+0 launches=182 seq=1088030200000 rand=867346000000",
    "Q10 0x1.03e7300d8552ap+1 scan=0x1.f23354798d432p-2 filter=0x1.e2e8625488ee5p-5 project=0x1.26e4b7ecb28cep-5 join=0x1.d5dbb0dcf3d2fp-5 groupby=0x1.5797cc39ffd61p-4 orderby=0x1.760f50d5db694p-8 other=0x1.4d54b88f4002ep+0 launches=136 seq=1197630500000 rand=761630800000",
    "Q11 0x1.8fb7cf122f0d3p-4 scan=0x1.0fbfb46ec0606p-5 filter=0x1.d771dbf9e2494p-11 project=0x1.4aa6a5aa017f2p-11 join=0x1.298140252df45p-5 groupby=0x1.1aaa8783b004ap-11 aggregate=0x1.da8e37c1d0d1ap-16 orderby=0x1.ded4696f067b4p-11 other=0x1.9b09f3fe3a453p-6 launches=71 seq=59753600000 rand=27338400000",
    "Q12 0x1.de3e97f214f1ep+0 scan=0x1.d110108fc9f51p-2 filter=0x1.5e317d9822e8cp-3 project=0x1.0e7f665942024p-10 join=0x1.13ae2873efb1ap-5 groupby=0x1.d83612a428c4dp-10 orderby=0x1.67d4d287ed76cp-16 other=0x1.34dbdda46cb74p+0 launches=59 seq=754682300000 rand=723894800000",
    "Q13 0x1.dfe2d9d6e79e2p+4 scan=0x1.2dd499f0ef4a8p-2 project=0x1.5a98676a7264ap-6 join=0x1.cdfc32ae8a47ap-3 groupby=0x1.f54eaff6bebccp-5 orderby=0x1.fba3feddac9dp-13 other=0x1.d63d43c5f161ap+4 launches=29 seq=625019800000 rand=263967200000",
    "Q14 0x1.b2131c9516fe1p+0 scan=0x1.8415ad87bce07p-2 filter=0x1.114274606bc24p-4 project=0x1.1877c60a3aec3p-8 join=0x1.2c1f75dcd3077p-5 aggregate=0x1.05ca1b74c6529p-9 other=0x1.34fd316a75d3ep+0 launches=97 seq=734538000000 rand=726202800000",
    "Q15 0x1.b6a4c1f44029fp+1 scan=0x1.80860bbea9dc8p-1 filter=0x1.14d5ee6ce8efcp-3 project=0x1.13954fcf92c17p-8 join=0x1.e7e5bd4a26fbp-12 groupby=0x1.ffee7a5a06102p-4 aggregate=0x1.54567abc21653p-16 orderby=0x1.417bc11896c58p-16 other=0x1.349c178c06ee8p+1 launches=130 seq=1452602400000 rand=1410506400000",
    "Q16 0x1.c5f5039450cc1p-4 scan=0x1.0bd03ba580e6dp-6 filter=0x1.5f98a5363e38dp-8 project=0x1.59ebbd0b47144p-9 join=0x1.7b46f122f7a4ap-6 groupby=0x1.cef6e852312f8p-6 orderby=0x1.1bf628b387aa5p-7 other=0x1.b0a743eddd2f6p-6 launches=35 seq=136191700000 rand=16979200000",
    "Q17 0x1.165cd9c95a10ap+1 scan=0x1.95eacecebdf7p-2 filter=0x1.27a323cdac376p-9 project=0x1.2aff4075ca3ffp-6 join=0x1.15478fe189f33p-3 groupby=0x1.923aa47e17d7bp-3 aggregate=0x1.51763306fae4bp-17 other=0x1.6d0e420438e7bp+0 launches=82 seq=826080500000 rand=943784400000",
    "Q18 0x1.72be032493b84p+0 scan=0x1.73128de8d3046p-3 filter=0x1.999e12ecb363bp-7 project=0x1.0d6f71b21cebp-3 join=0x1.a8f61fdf8f1e4p-2 groupby=0x1.9260f16aca318p-3 orderby=0x1.526ba0435d0f8p-16 other=0x1.05df1cf4fe053p-1 launches=48 seq=837294500000 rand=388052800000",
    "Q19 0x1.1c49e40edc616p+1 scan=0x1.bc1dac59bf774p-1 filter=0x1.d82599a5e73e1p-4 project=0x1.fa314c8a7856fp-19 join=0x1.7ac945c94c609p-7 aggregate=0x1.db83a4fe32fc7p-18 other=0x1.3a0c4fa3d5296p+0 launches=101 seq=793161500000 rand=705887600000",
    "Q20 0x1.dc10b9477ad75p+0 scan=0x1.965729e239bcfp-2 filter=0x1.2924ed0adee6ap-4 project=0x1.87328ec8853f6p-7 join=0x1.45c88a14cb92p-5 groupby=0x1.7c67de9bedb5dp-5 orderby=0x1.0bf4c36d2dc37p-16 other=0x1.4ac7aba664382p+0 launches=102 seq=870530800000 rand=755525200000",
    "Q21 0x1.6f5057d0bc09dp+2 scan=0x1.766a2de2d8ef7p-1 filter=0x1.22368cf4841cbp-2 project=0x1.62d45243e148p-9 join=0x1.c30f855d31f5ep+0 groupby=0x1.d945b434fd6afp-12 orderby=0x1.6232f0c52cbb2p-15 other=0x1.7aceae6674f39p+1 launches=292 seq=2895073100000 rand=2629939200000",
    "Q22 0x1.efa024f3948b7p-4 scan=0x1.142aa1050f7b1p-6 filter=0x1.6d4c4828fe3a8p-7 project=0x1.d23b5a018c805p-11 join=0x1.48775ddc874abp-5 groupby=0x1.cadf30b9fadcep-12 aggregate=0x1.0899c519d62d8p-14 orderby=0x1.a51baddb6ffdbp-15 other=0x1.a59449e65c911p-5 launches=48 seq=60209900000 rand=27834400000",
};
constexpr uint64_t kPinnedSpillHost = 6;
constexpr uint64_t kPinnedSpillNvme = 6;

/// One query's modeled account: total and per-category seconds as exact
/// bits, then the kernel counters.
std::string ModeledFingerprint(int q, const host::QueryResult& r) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "Q%d %a", q, r.timeline.total_seconds());
  std::string out = buf;
  for (const auto& [cat, s] : r.timeline.breakdown()) {
    std::snprintf(buf, sizeof(buf), " %s=%a", sim::OpCategoryName(cat), s);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), " launches=%llu seq=%llu rand=%llu",
                static_cast<unsigned long long>(r.kernels.launches),
                static_cast<unsigned long long>(r.kernels.seq_bytes),
                static_cast<unsigned long long>(r.kernels.rand_bytes));
  return out + buf;
}

TEST(SiriusEngineTest, OutOfCoreModeledNumbersArePinned) {
  // tpch_spill's configuration on one task thread, so eviction order is
  // fixed: SF 1000 modeled on SF 0.01 data, out-of-core on. Large scans
  // stream in batches and intermediates spill. Every modeled number must
  // stay bit-identical when the batch path's host code changes.
  host::Database::Options db_options;
  db_options.data_scale = 1.0e5;
  host::Database db(db_options);
  ASSERT_TRUE(tpch::LoadTpch(&db, kSf).ok());
  engine::SiriusEngine::Options options;
  options.data_scale = 1.0e5;
  options.out_of_core = true;
  options.num_task_threads = 1;
  engine::SiriusEngine eng(&db, options);

  std::vector<std::string> got;
  for (int pass = 0; pass < 2; ++pass) {
    for (int q = 1; q <= tpch::NumQueries(); ++q) {
      auto plan = db.PlanSql(tpch::Query(q)).ValueOrDie();
      auto r = eng.ExecutePlan(plan);
      ASSERT_TRUE(r.ok()) << "Q" << q << ": " << r.status().ToString();
      got.push_back(ModeledFingerprint(q, r.ValueOrDie()));
    }
  }
  ASSERT_EQ(got.size(), std::size(kPinnedOutOfCore));
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], kPinnedOutOfCore[i]) << "run " << i;
  }
  EXPECT_EQ(eng.stats().spill_host, kPinnedSpillHost);
  EXPECT_EQ(eng.stats().spill_nvme, kPinnedSpillNvme);
}

TEST(SiriusEngineTest, IntermediateSpillingKeepsGpuPathAlive) {
  // §3.4 spilling: a join intermediate larger than the processing region
  // fails without out_of_core and spills to pinned memory with it.
  host::Database* db = SharedDb();
  engine::SiriusEngine::Options options;
  options.data_scale = 5.0e6;             // giant modeled intermediates
  options.device.mem_capacity_gib = 2.0;  // tiny device
  options.out_of_core = false;
  engine::SiriusEngine strict(db, options);
  db->SetAccelerator(&strict);
  auto failed = db->Query(tpch::Query(3)).ValueOrDie();
  EXPECT_TRUE(failed.fell_back);  // OOM -> graceful host fallback

  options.out_of_core = true;
  engine::SiriusEngine spilling(db, options);
  db->SetAccelerator(&spilling);
  auto spilled = db->Query(tpch::Query(3));
  db->SetAccelerator(nullptr);
  ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
  EXPECT_TRUE(spilled.ValueOrDie().accelerated);
  EXPECT_TRUE(failed.table->Equals(*spilled.ValueOrDie().table) ||
              failed.table->EqualsUnordered(*spilled.ValueOrDie().table));
}

TEST(SiriusEngineTest, PipelineBreakdownMatchesPushModel) {
  host::Database* db = SharedDb();
  auto plan = db->PlanSql(tpch::Query(3)).ValueOrDie();
  auto explained = SharedEngine()->ExplainPipelines(plan).ValueOrDie();
  // Q3 = customer/orders/lineitem joins + aggregate + sort + limit:
  // several pipelines with probe steps and breaker sinks.
  EXPECT_NE(explained.find("probe"), std::string::npos) << explained;
  EXPECT_NE(explained.find("aggregate"), std::string::npos) << explained;
  EXPECT_NE(explained.find("limit"), std::string::npos) << explained;
}

TEST(DeviceSupportTest, DeclinesUdfsAndAcceptsEveryBenchmarkPlan) {
  ScopedUdf clamp(ClampUdf());
  const format::Schema left({{"a", format::Int64()}});
  const format::Schema right({{"b", format::Int64()}});
  auto scan = [](const char* name, const format::Schema& schema) {
    return plan::MakeScan(name, schema, {}).ValueOrDie();
  };
  auto clamp_of = [](const char* column) {
    return expr::Udf("clamp100", {expr::ColRef(column)});
  };
  const std::vector<std::pair<std::string, plan::PlanPtr>> with_udf = {
      {"filter", plan::MakeFilter(scan("l", left),
                                  expr::Lt(clamp_of("a"), expr::LitInt(50)))
                     .ValueOrDie()},
      {"projection",
       plan::MakeProject(scan("l", left), {clamp_of("a")}, {"c"}).ValueOrDie()},
      {"join residual",
       plan::MakeJoin(scan("l", left), scan("r", right), plan::JoinType::kLeft,
                      {0}, {0}, expr::Lt(clamp_of("b"), expr::LitInt(50)))
           .ValueOrDie()},
  };
  for (const auto& [where, p] : with_udf) {
    const Status st = engine::CheckDeviceSupport(*p);
    EXPECT_TRUE(st.IsUnsupportedOnDevice()) << where << ": " << st.ToString();
    EXPECT_EQ(st.message(), "UDF 'clamp100' not supported on device") << where;
  }

  for (int q = 1; q <= 22; ++q) {
    auto p = SharedDb()->PlanSql(tpch::Query(q)).ValueOrDie();
    EXPECT_TRUE(engine::CheckDeviceSupport(*p).ok()) << "Q" << q;
  }
  host::Database ssb_db;
  SIRIUS_CHECK_OK(ssb::LoadSsb(&ssb_db, ssb::SsbOptions{}));
  for (int q = 1; q <= ssb::NumQueries(); ++q) {
    auto p = ssb_db.PlanSql(ssb::Query(q)).ValueOrDie();
    EXPECT_TRUE(engine::CheckDeviceSupport(*p).ok()) << ssb::QueryName(q);
  }
}

}  // namespace
}  // namespace sirius
