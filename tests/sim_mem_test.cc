// Unit tests for the simulation substrate (device model, cost model,
// timeline, interconnects, trends) and the memory-resource hierarchy.

#include <gtest/gtest.h>

#include <vector>

#include "mem/buffer.h"
#include "mem/memory_resource.h"
#include "sim/cost_model.h"
#include "sim/device.h"
#include "sim/interconnect.h"
#include "sim/timeline.h"
#include "sim/trends.h"

namespace sirius {
namespace {

// ---------------------------------------------------------------------------
// Devices & cost model
// ---------------------------------------------------------------------------

TEST(DeviceTest, ProfilesMatchPaperTable1) {
  auto gh = sim::Gh200Gpu();
  EXPECT_TRUE(gh.is_gpu());
  EXPECT_DOUBLE_EQ(gh.mem_bw_gbps, 3000.0);
  EXPECT_DOUBLE_EQ(gh.mem_capacity_gib, 92.0);
  EXPECT_DOUBLE_EQ(gh.price_per_hour, 3.2);

  auto c6a = sim::C6aMetal();
  EXPECT_FALSE(c6a.is_gpu());
  EXPECT_EQ(c6a.cores, 192);
  EXPECT_DOUBLE_EQ(c6a.mem_bw_gbps, 400.0);
  EXPECT_DOUBLE_EQ(c6a.price_per_hour, 7.344);

  auto a100 = sim::A100Gpu();
  EXPECT_DOUBLE_EQ(a100.mem_bw_gbps, 1550.0);
  EXPECT_DOUBLE_EQ(a100.mem_capacity_gib, 40.0);
}

TEST(DeviceTest, LookupByName) {
  EXPECT_EQ(sim::ProfileByName("A100").name, "A100-40GB");
  EXPECT_EQ(sim::ProfileByName("m7i.16xlarge").name, "m7i.16xlarge");
  EXPECT_EQ(sim::ProfileByName("c6a").name, "c6a.metal");
  EXPECT_EQ(sim::ProfileByName("???").name, "GH200-Hopper");  // default
}

TEST(CostModelTest, BandwidthTermDominatesLargeScans) {
  auto gpu = sim::Gh200Gpu();
  sim::KernelCost cost;
  cost.seq_bytes = 3ull * 1000 * 1000 * 1000;  // 3 GB at 3000 GB/s ~ 1 ms
  double t = sim::KernelSeconds(gpu, cost);
  EXPECT_NEAR(t, 1e-3, 2e-4);
}

TEST(CostModelTest, RandomAccessIsSlower) {
  auto gpu = sim::Gh200Gpu();
  sim::KernelCost seq, rnd;
  seq.seq_bytes = 1 << 28;
  rnd.rand_bytes = 1 << 28;
  EXPECT_GT(sim::KernelSeconds(gpu, rnd), sim::KernelSeconds(gpu, seq));
}

TEST(CostModelTest, LaunchOverheadDoesNotScaleWithData) {
  auto gpu = sim::Gh200Gpu();
  sim::KernelCost cost;
  cost.launches = 10;
  double base = sim::KernelSeconds(gpu, cost, /*data_scale=*/1.0);
  double scaled = sim::KernelSeconds(gpu, cost, /*data_scale=*/1000.0);
  EXPECT_DOUBLE_EQ(base, scaled);  // fixed terms are scale-free (§4.3 "Other")
}

TEST(CostModelTest, DataScaleMultipliesDataTerms) {
  auto gpu = sim::Gh200Gpu();
  sim::KernelCost cost;
  cost.seq_bytes = 1 << 20;
  cost.launches = 0;
  double t1 = sim::KernelSeconds(gpu, cost, 1.0);
  double t100 = sim::KernelSeconds(gpu, cost, 100.0);
  EXPECT_NEAR(t100 / t1, 100.0, 1e-6);
}

TEST(CostModelTest, GpuBeatsCpuOnBandwidth) {
  sim::KernelCost cost;
  cost.seq_bytes = 1ull << 30;
  EXPECT_LT(sim::KernelSeconds(sim::Gh200Gpu(), cost),
            sim::KernelSeconds(sim::M7i16xlarge(), cost));
}

TEST(CostModelTest, EngineEfficiencyDerates) {
  sim::Timeline fast_t, slow_t;
  sim::SimContext fast{sim::M7i16xlarge(), sim::ClickHouseProfile(), &fast_t, 1.0};
  sim::SimContext slow{sim::M7i16xlarge(), sim::DorisProfile(), &slow_t, 1.0};
  sim::KernelCost cost;
  cost.seq_bytes = 1 << 24;
  cost.launches = 0;
  fast.Charge(sim::OpCategory::kScan, cost);   // CH scan_eff 2.0
  slow.Charge(sim::OpCategory::kScan, cost);   // Doris scan_eff 0.45
  EXPECT_LT(fast_t.total_seconds(), slow_t.total_seconds());
}

TEST(CostModelTest, NullTimelineIsSafe) {
  sim::SimContext ctx;
  sim::KernelCost cost;
  cost.seq_bytes = 100;
  ctx.Charge(sim::OpCategory::kScan, cost);  // must not crash
  ctx.ChargeSeconds(sim::OpCategory::kOther, 1.0);
}

TEST(TimelineTest, ChargeAndBreakdown) {
  sim::Timeline t;
  t.Charge(sim::OpCategory::kJoin, 0.5);
  t.Charge(sim::OpCategory::kJoin, 0.25);
  t.Charge(sim::OpCategory::kFilter, 0.25);
  EXPECT_DOUBLE_EQ(t.total_seconds(), 1.0);
  EXPECT_DOUBLE_EQ(t.seconds(sim::OpCategory::kJoin), 0.75);
  EXPECT_DOUBLE_EQ(t.seconds(sim::OpCategory::kScan), 0.0);
  t.Charge(sim::OpCategory::kScan, -1.0);  // non-positive charges ignored
  EXPECT_DOUBLE_EQ(t.total_seconds(), 1.0);
}

TEST(TimelineTest, AppendAndReset) {
  sim::Timeline a, b;
  a.Charge(sim::OpCategory::kScan, 1.0);
  b.Charge(sim::OpCategory::kScan, 2.0);
  b.Charge(sim::OpCategory::kExchange, 1.0);
  a.Append(b);
  EXPECT_DOUBLE_EQ(a.total_seconds(), 4.0);
  EXPECT_DOUBLE_EQ(a.seconds(sim::OpCategory::kScan), 3.0);
  a.Reset();
  EXPECT_DOUBLE_EQ(a.total_seconds(), 0.0);
}

TEST(InterconnectTest, TransferTimesOrdered) {
  uint64_t gb = 1ull << 30;
  EXPECT_GT(sim::Pcie3x16().TransferSeconds(gb), sim::Pcie4x16().TransferSeconds(gb));
  EXPECT_GT(sim::Pcie4x16().TransferSeconds(gb), sim::Pcie5x16().TransferSeconds(gb));
  EXPECT_GT(sim::Pcie6x16().TransferSeconds(gb), sim::NvlinkC2c().TransferSeconds(gb));
  // Latency floor on tiny messages.
  EXPECT_GT(sim::NvlinkC2c().TransferSeconds(1), 0.0);
}

TEST(TrendsTest, SeriesGrowAndCagrPositive) {
  for (const auto& series : sim::AllTrends()) {
    ASSERT_GE(series.points.size(), 3u) << series.name;
    EXPECT_GT(series.points.back().value, series.points.front().value)
        << series.name;
    EXPECT_GT(series.Cagr(), 0.0) << series.name;
    EXPECT_GT(series.DoublingYears(), 0.0) << series.name;
    for (size_t i = 1; i < series.points.size(); ++i) {
      EXPECT_GE(series.points[i].year, series.points[i - 1].year) << series.name;
    }
  }
}

TEST(TrendsTest, GpuMemoryReaches288) {
  auto mem = sim::GpuMemoryTrend();
  EXPECT_DOUBLE_EQ(mem.points.back().value, 288);  // B300 Ultra (§2.1)
}

// ---------------------------------------------------------------------------
// Memory resources
// ---------------------------------------------------------------------------

TEST(MemoryTest, SystemResourceTracksAndCaps) {
  mem::SystemMemoryResource r("test");
  void* p1 = nullptr;
  SIRIUS_CHECK_OK(r.Allocate(1000, &p1));
  EXPECT_GE(r.bytes_allocated(), 1000u);
  r.Deallocate(p1, 1000);
  EXPECT_EQ(r.bytes_allocated(), 0u);
}

TEST(MemoryTest, PoolReusesFreedBlocks) {
  mem::SystemMemoryResource upstream;
  mem::PoolMemoryResource pool(&upstream);
  void* a = nullptr;
  SIRIUS_CHECK_OK(pool.Allocate(500, &a));
  pool.Deallocate(a, 500);
  void* b = nullptr;
  SIRIUS_CHECK_OK(pool.Allocate(400, &b));  // same 512-byte class
  EXPECT_EQ(a, b);
  pool.Deallocate(b, 400);
}

TEST(MemoryTest, PoolGrowsFromUpstreamAndReturnsItsBlocks) {
  // The pool has no capacity of its own: it holds more than 64 MiB live,
  // only an upstream failure is an OutOfMemory, and destroying the pool
  // hands every block back.
  constexpr size_t kBlock = 16ull << 20;
  mem::SystemMemoryResource upstream;
  // Upstream requests 1-5 succeed; request 6 fails.
  mem::PressureMemoryResource pressure(&upstream, /*fail_every_nth=*/6);
  {
    mem::PoolMemoryResource pool(&pressure);
    std::vector<void*> live(5);
    for (void*& p : live) SIRIUS_CHECK_OK(pool.Allocate(kBlock, &p));
    EXPECT_EQ(pool.bytes_allocated(), 5 * kBlock);
    EXPECT_GT(pool.bytes_allocated(), 64ull << 20);
    void* extra = nullptr;
    EXPECT_TRUE(pool.Allocate(kBlock, &extra).IsOutOfMemory());
    EXPECT_EQ(pool.bytes_allocated(), 5 * kBlock);
    for (void* p : live) pool.Deallocate(p, kBlock);
    EXPECT_EQ(pool.bytes_allocated(), 0u);
    // A freed block serves the next request without touching the upstream.
    SIRIUS_CHECK_OK(pool.Allocate(kBlock, &extra));
    EXPECT_EQ(pressure.num_requests(), 6u);
    pool.Deallocate(extra, kBlock);
    EXPECT_EQ(upstream.bytes_allocated(), 5 * kBlock);
  }
  EXPECT_EQ(upstream.bytes_allocated(), 0u);
}

TEST(MemoryTest, BufferRaii) {
  mem::SystemMemoryResource r;
  {
    auto b = mem::Buffer::AllocateZeroed(4096, &r).ValueOrDie();
    EXPECT_EQ(b.size(), 4096u);
    EXPECT_EQ(b.data()[0], 0);
    EXPECT_GE(r.bytes_allocated(), 4096u);
    auto moved = std::move(b);
    EXPECT_EQ(moved.size(), 4096u);
    EXPECT_EQ(b.size(), 0u);  // NOLINT(bugprone-use-after-move): move leaves empty
  }
  EXPECT_EQ(r.bytes_allocated(), 0u);
}

TEST(MemoryTest, ZeroSizedBuffer) {
  auto b = mem::Buffer::Allocate(0).ValueOrDie();
  EXPECT_TRUE(b.empty());
}

}  // namespace
}  // namespace sirius
