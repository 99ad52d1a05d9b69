// Tests for the tiered spill subsystem (HBM -> pinned host -> simulated
// NVMe): placement and fallback order, per-tenant quota governance with
// retry-after shedding, asynchronous writeback/prefetch overlap on per-lane
// horizons, hazard-tracker ordering edges, extents voided when a tier
// dies mid-spill, the typed failure causes the engine and the
// server dispatch on (only a lost tier is kSpillTierLost), the results of
// out-of-core batched scans against the host executor, and the serve-layer
// integration (quota and full-tier shed, tier-loss re-admission).

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "cell_compare.h"
#include "engine/sirius.h"
#include "fault/fault_injector.h"
#include "mem/reservation.h"
#include "mem/tier.h"
#include "serve/serve.h"
#include "sim/timeline.h"
#include "tpch/queries.h"

namespace sirius {
namespace {

using fault::FaultInjector;
using fault::FaultSpec;
using mem::Reservation;
using mem::ReservationPool;
using mem::SpillSession;
using mem::Tier;
using mem::TierManager;

constexpr uint64_t kKiB = 1024;
constexpr uint64_t kMiB = 1ull << 20;

TierManager::Options SmallTiers(uint64_t host_bytes, uint64_t nvme_bytes) {
  TierManager::Options o;
  o.host_capacity_bytes = host_bytes;
  o.nvme_capacity_bytes = nvme_bytes;
  return o;
}

// ---------------------------------------------------------------------------
// Placement and capacity
// ---------------------------------------------------------------------------

TEST(TierManagerTest, PlacesOnHostThenFallsToNvme) {
  TierManager tiers(SmallTiers(kMiB, 4 * kMiB), sim::NvlinkC2c());
  SpillSession session(&tiers);
  const uint64_t pinned_before = mem::PinnedHostInUse();

  auto a = session.RoundTrip(0, 768 * kKiB, 0.0).ValueOrDie();
  EXPECT_EQ(a.tier, Tier::kHost);
  EXPECT_EQ(mem::PinnedHostInUse(), pinned_before + 768 * kKiB);

  // The host tier has only 256 KiB left; the next extent falls to NVMe.
  auto b = session.RoundTrip(0, 768 * kKiB, 0.0).ValueOrDie();
  EXPECT_EQ(b.tier, Tier::kNvme);
  EXPECT_EQ(tiers.stats(Tier::kHost).spill_writes, 1u);
  EXPECT_EQ(tiers.stats(Tier::kNvme).spill_writes, 1u);
  EXPECT_EQ(tiers.stats(Tier::kHost).used_bytes, 768 * kKiB);
  EXPECT_EQ(tiers.stats(Tier::kNvme).used_bytes, 768 * kKiB);

  // Draining the lane reads both extents back and releases their bytes.
  ASSERT_TRUE(session.Join(0, 0.0).ok());
  EXPECT_EQ(tiers.stats(Tier::kHost).used_bytes, 0u);
  EXPECT_EQ(tiers.stats(Tier::kNvme).used_bytes, 0u);
  EXPECT_EQ(tiers.stats(Tier::kHost).spill_reads, 1u);
  EXPECT_EQ(tiers.stats(Tier::kNvme).spill_reads, 1u);
  EXPECT_EQ(mem::PinnedHostInUse(), pinned_before);
  EXPECT_EQ(tiers.stats(Tier::kHost).high_water_bytes, 768 * kKiB);
}

TEST(TierManagerTest, ExhaustingEveryTierIsDiagnosable) {
  TierManager tiers(SmallTiers(kKiB, kKiB), sim::NvlinkC2c());
  SpillSession session(&tiers);
  auto r = session.RoundTrip(0, 4 * kKiB, 0.0);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted());
  EXPECT_EQ(r.status().cause(), StatusCause::kSpillRefused);
  EXPECT_NE(r.status().message().find("exceeds every configured tier"),
            std::string::npos);
}

TEST(TierManagerTest, DisabledNvmeBoundsSpillToHostCapacity) {
  // nvme_capacity_bytes == 0 disables the tier: host is the only sink, and
  // overflowing it is a clean ResourceExhausted instead of unbounded growth.
  TierManager tiers(SmallTiers(kMiB, 0), sim::NvlinkC2c());
  SpillSession session(&tiers);
  ASSERT_TRUE(session.RoundTrip(0, 768 * kKiB, 0.0).ok());
  auto r = session.RoundTrip(0, 768 * kKiB, 0.0);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted());
  EXPECT_EQ(r.status().cause(), StatusCause::kSpillRefused);
  EXPECT_NE(r.status().message().find("exceeds every configured tier"),
            std::string::npos);
}

TEST(TierManagerTest, AbandonedSessionLeaksNoCapacityOrPinnedMemory) {
  TierManager tiers(SmallTiers(8 * kMiB, 8 * kMiB), sim::NvlinkC2c());
  const uint64_t pinned_before = mem::PinnedHostInUse();
  {
    SpillSession session(&tiers);
    ASSERT_TRUE(session.RoundTrip(0, kMiB, 0.0).ok());
    ASSERT_TRUE(session.RoundTrip(1, kMiB, 0.0).ok());
    // The query aborts: no Join. The session destructor must abandon the
    // staged extents.
  }
  EXPECT_EQ(tiers.stats(Tier::kHost).used_bytes, 0u);
  EXPECT_EQ(tiers.stats(Tier::kNvme).used_bytes, 0u);
  EXPECT_EQ(mem::PinnedHostInUse(), pinned_before);
}

// ---------------------------------------------------------------------------
// Per-tenant quota governance
// ---------------------------------------------------------------------------

TEST(TierManagerTest, QuotaChargesCumulativelyAndShedsWithRetryAfter) {
  TierManager tiers({}, sim::NvlinkC2c());
  SpillSession session(&tiers);
  ReservationPool pool(2 * kKiB, "spill-quota:test");
  Reservation quota = Reservation::Take(&pool, 0).ValueOrDie();

  ASSERT_TRUE(session.RoundTrip(0, kKiB, 0.0, &quota).ok());
  EXPECT_EQ(pool.reserved(), kKiB);
  ASSERT_TRUE(session.RoundTrip(0, kKiB, 0.0, &quota).ok());
  EXPECT_EQ(pool.reserved(), 2 * kKiB);

  auto refused = session.RoundTrip(0, kKiB, 0.0, &quota);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsResourceExhausted());
  EXPECT_EQ(refused.status().cause(), StatusCause::kSpillRefused);
  EXPECT_NE(refused.status().message().find("tenant spill quota exhausted"),
            std::string::npos);
  EXPECT_GT(refused.status().retry_after_s(), 0.0);
  // The refused extent was released: nothing extra resident, nothing charged.
  EXPECT_EQ(pool.reserved(), 2 * kKiB);
  EXPECT_EQ(tiers.stats(Tier::kHost).used_bytes, 2 * kKiB);

  ASSERT_TRUE(session.Join(0, 0.0).ok());
  quota.Release();
  EXPECT_EQ(pool.reserved(), 0u);
}

// ---------------------------------------------------------------------------
// Overlap / backpressure timing
// ---------------------------------------------------------------------------

TEST(TierManagerTest, LaneOverlapsTransfersAndChargesOnlyBackpressure) {
  TierManager tiers({}, sim::NvlinkC2c());
  SpillSession session(&tiers);
  const uint64_t bytes = 64 * kMiB;
  const double w = tiers.WriteSeconds(Tier::kHost, bytes);
  const double r = tiers.ReadSeconds(Tier::kHost, bytes);

  // First trip: the lane is idle, compute never stalls; the transfer is
  // scheduled entirely in the background.
  auto a = session.RoundTrip(0, bytes, 0.0).ValueOrDie();
  EXPECT_DOUBLE_EQ(a.stall_s, 0.0);
  EXPECT_DOUBLE_EQ(a.write_start_s, 0.0);
  EXPECT_DOUBLE_EQ(a.write_end_s, w);
  EXPECT_DOUBLE_EQ(a.read_end_s, w + r);

  // Second trip at the same instant: the lane is busy until the first
  // prefetch lands, so compute pays exactly that backpressure.
  auto b = session.RoundTrip(0, bytes, 0.0).ValueOrDie();
  EXPECT_DOUBLE_EQ(b.stall_s, w + r);
  EXPECT_DOUBLE_EQ(b.write_start_s, w + r);
  EXPECT_DOUBLE_EQ(b.read_end_s, 2 * (w + r));

  // A different pipeline's lane has its own horizon: no cross-lane stall.
  auto c = session.RoundTrip(1, bytes, 0.0).ValueOrDie();
  EXPECT_DOUBLE_EQ(c.stall_s, 0.0);

  // Joining lane 0 at time zero pays the full remaining drain.
  EXPECT_DOUBLE_EQ(session.Join(0, 0.0).ValueOrDie(), 2 * (w + r));
  // Joining again is free: the lane is already drained.
  EXPECT_DOUBLE_EQ(session.Join(0, 2 * (w + r)).ValueOrDie(), 0.0);
  ASSERT_TRUE(session.Join(1, 10 * (w + r)).ok());
}

TEST(TierManagerTest, NvmeExtentsPayBothLinks) {
  TierManager tiers({}, sim::NvlinkC2c());
  const double host_w = tiers.WriteSeconds(Tier::kHost, kMiB);
  const double nvme_w = tiers.WriteSeconds(Tier::kNvme, kMiB);
  // NVMe extents bounce through pinned-host staging: strictly more
  // expensive than the host tier on both directions.
  EXPECT_GT(nvme_w, host_w);
  EXPECT_GT(tiers.ReadSeconds(Tier::kNvme, kMiB),
            tiers.ReadSeconds(Tier::kHost, kMiB));
}

// ---------------------------------------------------------------------------
// Hazard-tracker ordering
// ---------------------------------------------------------------------------

TEST(TierManagerTest, WritebackPrefetchOrderingIsVisibleToHazardTracker) {
  sim::HazardTracker hazards;
  hazards.set_abort_on_violation(false);
  const sim::StreamId compute = hazards.CreateStream("compute");

  TierManager tiers({}, sim::NvlinkC2c());
  SpillSession session(&tiers);
  auto rt =
      session.RoundTrip(0, kMiB, 0.0, nullptr, &hazards, compute).ValueOrDie();

  // The round trip recorded edges compute -> spill stream -> compute, so a
  // compute-stream read of the staged extent is ordered after the prefetch.
  hazards.OnRead(compute, rt.resource, "consume staged extent");
  EXPECT_EQ(hazards.violation_count(), 0u);

  // A stream with no edge to the spill stream races the writeback: the
  // tracker must flag it deterministically.
  const sim::StreamId rogue = hazards.CreateStream("rogue");
  hazards.OnRead(rogue, rt.resource, "unordered read of staged extent");
  ASSERT_EQ(hazards.violation_count(), 1u);
  EXPECT_EQ(hazards.violations()[0].kind,
            sim::HazardTracker::ViolationKind::kWriteReadRace);
  ASSERT_TRUE(session.Join(0, rt.read_end_s).ok());
}

// ---------------------------------------------------------------------------
// Fault sites: write retry/fallback, read retry, tier loss
// ---------------------------------------------------------------------------

TEST(TierManagerTest, TransientWriteFaultRetriesInPlace) {
  FaultInjector inj;
  TierManager tiers(SmallTiers(8 * kMiB, 8 * kMiB), sim::NvlinkC2c(), &inj);
  FaultSpec spec;
  spec.max_triggers = 1;
  inj.Arm("mem.spill.write", spec);
  SpillSession session(&tiers);
  auto rt = session.RoundTrip(0, kMiB, 0.0).ValueOrDie();
  EXPECT_EQ(rt.tier, Tier::kHost);  // healed in place, never fell over
  EXPECT_EQ(tiers.stats(Tier::kHost).write_retries, 1u);
  // The failed pass is re-charged: the write window covers two attempts.
  EXPECT_DOUBLE_EQ(rt.write_end_s, 2 * tiers.WriteSeconds(Tier::kHost, kMiB));
  ASSERT_TRUE(session.Join(0, rt.read_end_s).ok());
}

TEST(TierManagerTest, PersistentWriteFaultFallsToNextTier) {
  FaultInjector inj;
  TierManager tiers(SmallTiers(8 * kMiB, 8 * kMiB), sim::NvlinkC2c(), &inj);
  FaultSpec spec;
  spec.max_triggers = 2;  // both host attempts fail; NVMe survives
  inj.Arm("mem.spill.write", spec);
  SpillSession session(&tiers);
  auto rt = session.RoundTrip(0, kMiB, 0.0).ValueOrDie();
  EXPECT_EQ(rt.tier, Tier::kNvme);
  EXPECT_EQ(tiers.stats(Tier::kHost).spill_writes, 0u);
  EXPECT_EQ(tiers.stats(Tier::kNvme).spill_writes, 1u);
  ASSERT_TRUE(session.Join(0, rt.read_end_s).ok());
}

TEST(TierManagerTest, NonTransientWriteFaultPropagatesImmediately) {
  FaultInjector inj;
  TierManager tiers(SmallTiers(8 * kMiB, 8 * kMiB), sim::NvlinkC2c(), &inj);
  FaultSpec spec;
  spec.code = StatusCode::kInternal;
  inj.Arm("mem.spill.write", spec);
  SpillSession session(&tiers);
  auto r = session.RoundTrip(0, kMiB, 0.0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_EQ(r.status().cause(), StatusCause::kNone);
  EXPECT_NE(r.status().message().find("spill writeback"), std::string::npos);
  // Nothing stayed resident: the failed extent never committed.
  EXPECT_EQ(tiers.stats(Tier::kHost).used_bytes, 0u);
}

TEST(TierManagerTest, TransientReadFaultRetriesAndChargesExtraPasses) {
  FaultInjector inj;
  TierManager tiers(SmallTiers(8 * kMiB, 8 * kMiB), sim::NvlinkC2c(), &inj);
  SpillSession session(&tiers);
  auto rt = session.RoundTrip(0, kMiB, 0.0).ValueOrDie();
  FaultSpec spec;
  spec.max_triggers = 2;
  inj.Arm("mem.spill.read", spec);
  const double drain = session.Join(0, rt.read_end_s).ValueOrDie();
  EXPECT_DOUBLE_EQ(drain, 2 * tiers.ReadSeconds(Tier::kHost, kMiB));
  EXPECT_EQ(tiers.stats(Tier::kHost).read_retries, 2u);
  EXPECT_EQ(tiers.stats(Tier::kHost).used_bytes, 0u);
}

TEST(TierManagerTest, PersistentReadFaultExhaustsItsBudgetCleanly) {
  FaultInjector inj;
  TierManager tiers(SmallTiers(8 * kMiB, 8 * kMiB), sim::NvlinkC2c(), &inj);
  SpillSession session(&tiers);
  auto rt = session.RoundTrip(0, kMiB, 0.0).ValueOrDie();
  inj.Arm("mem.spill.read", FaultSpec{});  // unlimited
  auto r = session.Join(0, rt.read_end_s);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable());
  EXPECT_EQ(r.status().cause(), StatusCause::kNone);  // not a tier loss
  EXPECT_NE(r.status().message().find("spill read-back"), std::string::npos);
  EXPECT_EQ(inj.stats("mem.spill.read").hits, 4u);  // bounded attempts
  // Even a failed read-back releases the tier bytes (the extent is gone
  // either way); capacity can never leak.
  EXPECT_EQ(tiers.stats(Tier::kHost).used_bytes, 0u);
}

TEST(TierManagerTest, TierLossVoidsExtents) {
  TierManager tiers(SmallTiers(8 * kMiB, 0), sim::NvlinkC2c());
  SpillSession session(&tiers);
  ASSERT_TRUE(session.RoundTrip(0, kMiB, 0.0).ok());
  ASSERT_TRUE(session.RoundTrip(0, kMiB, 0.0).ok());

  tiers.MarkLost(Tier::kHost);
  EXPECT_TRUE(tiers.lost(Tier::kHost));
  EXPECT_EQ(tiers.stats(Tier::kHost).losses, 1u);
  EXPECT_EQ(tiers.stats(Tier::kHost).used_bytes, 0u);  // voided

  // The lane's Join reports the loss so the engine can revive and retry.
  auto join = session.Join(0, 1.0);
  ASSERT_FALSE(join.ok());
  EXPECT_TRUE(join.status().IsUnavailable());
  EXPECT_NE(join.status().message().find("spill tier lost"),
            std::string::npos);
  EXPECT_EQ(join.status().cause(), StatusCause::kSpillTierLost);

  tiers.ReviveLostTiers();
  EXPECT_FALSE(tiers.lost(Tier::kHost));
}

TEST(TierManagerTest, JoinReportsTierLossOverALaterReadFault) {
  // One lane, one extent voided by a host loss and a later one whose NVMe
  // read-back exhausts its retries: the lane still lost data to a dead
  // tier, so Join reports the loss (which revives tiers), not the read.
  FaultInjector inj;
  TierManager tiers(SmallTiers(kMiB, 8 * kMiB), sim::NvlinkC2c(), &inj);
  SpillSession session(&tiers);
  ASSERT_EQ(session.RoundTrip(0, kMiB, 0.0).ValueOrDie().tier, Tier::kHost);
  ASSERT_EQ(session.RoundTrip(0, kMiB, 0.0).ValueOrDie().tier, Tier::kNvme);
  tiers.MarkLost(Tier::kHost);
  inj.Arm("mem.spill.read", FaultSpec{});  // persistent
  auto join = session.Join(0, 0.0);
  ASSERT_FALSE(join.ok());
  EXPECT_EQ(join.status().cause(), StatusCause::kSpillTierLost)
      << join.status().ToString();
  EXPECT_EQ(tiers.stats(Tier::kNvme).used_bytes, 0u);
}

// ---------------------------------------------------------------------------
// Engine integration: tier-loss retry, split spill counters
// ---------------------------------------------------------------------------

constexpr double kSf = 0.005;

host::Database* SpillDb() {
  static host::Database* db = [] {
    auto* d = new host::Database();  // sirius-lint: allow(raw-new-delete): leaked singleton
    SIRIUS_CHECK_OK(tpch::LoadTpch(d, kSf));
    return d;
  }();
  return db;
}

const format::TablePtr& CpuQ6() {
  static auto* table = [] {
    SpillDb()->SetAccelerator(nullptr);
    return new format::TablePtr(  // sirius-lint: allow(raw-new-delete): leaked singleton
        SpillDb()->Query(tpch::Query(6)).ValueOrDie().table);
  }();
  return *table;
}

TEST(TierEngineTest, EngineRevivesLostTiersAndRetriesOnce) {
  (void)CpuQ6();  // materialize the CPU reference first
  FaultInjector inj;
  engine::SiriusEngine::Options options;
  options.injector = &inj;
  options.out_of_core = true;
  engine::SiriusEngine engine(SpillDb(), options);
  FaultSpec oom;
  oom.code = StatusCode::kOutOfMemory;
  inj.Arm("engine.reserve", oom);  // every intermediate spills
  FaultSpec lost;
  lost.max_triggers = 2;  // transient: both tiers die once, then heal
  inj.Arm("mem.tier.lost", lost);

  SpillDb()->SetAccelerator(&engine);
  auto r = SpillDb()->Query(tpch::Query(6));
  SpillDb()->SetAccelerator(nullptr);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r.ValueOrDie().fell_back);  // the device healed itself
  EXPECT_TRUE(CpuQ6()->Equals(*r.ValueOrDie().table) ||
              CpuQ6()->EqualsUnordered(*r.ValueOrDie().table));

  const auto stats = engine.stats();
  EXPECT_EQ(stats.tier_loss_retries, 1u);
  EXPECT_GE(stats.spill_events, 1u);
  // The per-tier split preserves the aggregate.
  EXPECT_EQ(stats.spill_events, stats.spill_host + stats.spill_nvme);
  EXPECT_FALSE(engine.tiers().lost(Tier::kHost));
  EXPECT_FALSE(engine.tiers().lost(Tier::kNvme));
  EXPECT_EQ(engine.tiers().stats(Tier::kHost).used_bytes, 0u);
  EXPECT_EQ(engine.tiers().stats(Tier::kNvme).used_bytes, 0u);
}

TEST(TierEngineTest, SpillIoFaultIsNotATierLoss) {
  // A spill read or write fault that outlasts its in-place retries leaves
  // the tiers alive: it is Unavailable with no cause, so the engine neither
  // revives tiers nor evicts and re-runs. The host falls back instead.
  for (const char* site : {"mem.spill.read", "mem.spill.write"}) {
    FaultInjector inj;
    engine::SiriusEngine::Options options;
    options.injector = &inj;
    options.out_of_core = true;
    engine::SiriusEngine engine(SpillDb(), options);
    FaultSpec oom;
    oom.code = StatusCode::kOutOfMemory;
    inj.Arm("engine.reserve", oom);  // every intermediate spills
    inj.Arm(site, FaultSpec{});      // persistent Unavailable

    auto plan = SpillDb()->PlanSql(tpch::Query(6)).ValueOrDie();
    auto r = engine.ExecutePlan(plan);
    ASSERT_FALSE(r.ok()) << site;
    EXPECT_TRUE(r.status().IsUnavailable()) << site << ": "
                                            << r.status().ToString();
    EXPECT_EQ(r.status().cause(), StatusCause::kNone) << site;
    EXPECT_GE(inj.injected(site), 1u) << site;

    const auto stats = engine.stats();
    EXPECT_EQ(stats.tier_loss_retries, 0u) << site;
    EXPECT_EQ(stats.pipeline_retries, 0u) << site;
    EXPECT_EQ(stats.evictions_under_pressure, 0u) << site;
    EXPECT_EQ(engine.tiers().stats(Tier::kHost).used_bytes, 0u) << site;
    EXPECT_EQ(engine.tiers().stats(Tier::kNvme).used_bytes, 0u) << site;
  }
}

TEST(TierEngineTest, SpillsPriceOverTheEnginesHostLink) {
  // Pinned-host staging crosses the engine's device <-> host link; an NVMe
  // extent bounces through that staging and then pays the NVMe link.
  engine::SiriusEngine::Options options;
  options.host_link = sim::Pcie3x16();
  engine::SiriusEngine engine(SpillDb(), options);
  for (uint64_t bytes : {kKiB, 64 * kMiB}) {
    const double host = sim::Pcie3x16().TransferSeconds(bytes);
    EXPECT_EQ(engine.tiers().WriteSeconds(Tier::kHost, bytes), host);
    EXPECT_EQ(engine.tiers().ReadSeconds(Tier::kHost, bytes), host);
    EXPECT_EQ(engine.tiers().WriteSeconds(Tier::kNvme, bytes),
              host + sim::NvmeGen4().TransferSeconds(bytes));
  }
}

TEST(TierEngineTest, SpillGaugesArePublishedAfterExecution) {
  FaultInjector inj;
  engine::SiriusEngine::Options options;
  options.injector = &inj;
  options.out_of_core = true;
  engine::SiriusEngine engine(SpillDb(), options);
  FaultSpec oom;
  oom.code = StatusCode::kOutOfMemory;
  oom.max_triggers = 1;
  inj.Arm("engine.reserve", oom);
  const uint64_t pinned_before = mem::PinnedHostInUse();

  SpillDb()->SetAccelerator(&engine);
  auto r = SpillDb()->Query(tpch::Query(6));
  SpillDb()->SetAccelerator(nullptr);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  const TierManager::TierStats host = engine.tiers().stats(Tier::kHost);
  EXPECT_GT(host.spilled_bytes, 0u);
  EXPECT_EQ(host.used_bytes, 0u);  // drained
  EXPECT_EQ(mem::PinnedHostInUse(), pinned_before);
}

// ---------------------------------------------------------------------------
// Out-of-core results: the out-of-core pin's configuration (SF 1000 modeled
// on SF 0.01 data, SiriusEngineTest.OutOfCoreModeledNumbersArePinned) on the
// engine's default task threads. Large scans stream in batches whose join
// steps probe tables the batch loop built once, while other pipelines run;
// every query must return what the host executor returns, cell by cell.
// ---------------------------------------------------------------------------

host::Database* OutOfCoreDb() {
  static host::Database* db = [] {
    host::Database::Options options;
    options.data_scale = 1.0e5;
    auto* d = new host::Database(options);  // sirius-lint: allow(raw-new-delete): leaked singleton
    SIRIUS_CHECK_OK(tpch::LoadTpch(d, 0.01));
    return d;
  }();
  return db;
}

/// Columns of `table` (by index) that some scan of it in `n` reads.
void ScannedColumns(const plan::PlanNode& n, const std::string& table,
                    std::set<int>* cols) {
  if (n.kind == plan::PlanKind::kTableScan && n.table_name == table) {
    cols->insert(n.scan_columns.begin(), n.scan_columns.end());
  }
  for (const auto& c : n.children) ScannedColumns(*c, table, cols);
}

class OutOfCoreResultTest : public ::testing::TestWithParam<int> {};

TEST_P(OutOfCoreResultTest, BatchedScansMatchTheHostExecutor) {
  const int q = GetParam();
  const std::string label = "Q" + std::to_string(q);
  engine::SiriusEngine::Options options;
  options.data_scale = 1.0e5;
  options.out_of_core = true;
  engine::SiriusEngine engine(OutOfCoreDb(), options);
  auto plan = OutOfCoreDb()->PlanSql(tpch::Query(q)).ValueOrDie();

  auto gpu = engine.ExecutePlan(plan);
  ASSERT_TRUE(gpu.ok()) << label << ": " << gpu.status().ToString();
  auto cpu = OutOfCoreDb()->ExecutePlanCpu(plan);
  ASSERT_TRUE(cpu.ok()) << label << ": " << cpu.status().ToString();
  cells::ExpectSameCells(*gpu.ValueOrDie().table, *cpu.ValueOrDie().table, label,
                         "out_of_core", "cpu");

  // A batched scan leaves its columns uncached; an in-core scan caches them.
  // Every lineitem scan of Q4 and Q18 reads 16 bytes a row, which fits the
  // caching region; every other query that reads lineitem batches a scan
  // of it.
  std::set<int> cols;
  ScannedColumns(*plan, "lineitem", &cols);
  if (cols.empty()) return;
  int uncached = 0;
  for (int c : cols) uncached += engine.buffer_manager().IsCached("lineitem", c) ? 0 : 1;
  if (q == 4 || q == 18) {
    EXPECT_EQ(uncached, 0) << label;
  } else {
    EXPECT_GT(uncached, 0) << label << ": no lineitem scan batched";
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, OutOfCoreResultTest, ::testing::Range(1, 23),
                         [](const auto& info) {
                           return "Q" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Serving layer: quota shed with retry-after, tier-loss re-admission
// ---------------------------------------------------------------------------

TEST(ServeSpillGovernanceTest, QuotaExhaustedTenantShedsWhileOthersComplete) {
  FaultInjector inj;
  engine::SiriusEngine::Options eo;
  eo.injector = &inj;
  eo.out_of_core = true;
  engine::SiriusEngine engine(SpillDb(), eo);
  FaultSpec oom;
  oom.code = StatusCode::kOutOfMemory;
  inj.Arm("engine.reserve", oom);  // persistent: every intermediate spills

  serve::ServeOptions so;
  so.result_cache = false;
  serve::QueryServer server(SpillDb(), &engine, so);
  server.SetTenantSpillQuota("starved", 1);  // one byte: first spill refused

  const auto starved = server.OpenSession("starved");
  const auto healthy = server.OpenSession("healthy");
  serve::SubmitOptions sub;
  sub.keep_result = true;
  const auto starved_q =
      server.Submit(starved, tpch::Query(6), sub).ValueOrDie();
  const auto healthy_q =
      server.Submit(healthy, tpch::Query(6), sub).ValueOrDie();

  auto a = server.Resolve(starved_q).ValueOrDie();
  auto b = server.Resolve(healthy_q).ValueOrDie();

  EXPECT_EQ(a.state, serve::QueryState::kShed) << a.status.ToString();
  EXPECT_TRUE(a.status.IsResourceExhausted());
  EXPECT_EQ(a.status.cause(), StatusCause::kSpillRefused);
  EXPECT_NE(a.status.message().find("spill quota"), std::string::npos);
  EXPECT_GT(a.status.retry_after_s(), 0.0);

  EXPECT_EQ(b.state, serve::QueryState::kCompleted) << b.status.ToString();
  EXPECT_TRUE(CpuQ6()->Equals(*b.table) || CpuQ6()->EqualsUnordered(*b.table));

  // Every quota charge was returned on both paths.
  EXPECT_EQ(server.spill_quota("starved").reserved(), 0u);
  EXPECT_EQ(server.spill_quota("healthy").reserved(), 0u);
  EXPECT_GT(server.spill_quota("healthy").total_granted(), 0u);
  EXPECT_EQ(server.metrics().GetCounter("serve.spill_quota_shed")->raw(), 1u);
  EXPECT_EQ(server.reservations().reserved(), 0u);
}

TEST(ServeSpillGovernanceTest, ExhaustedTiersShedWithHint) {
  // Every tier full is the same admission-class refusal as an exhausted
  // quota: the engine's kSpillRefused carries no hint of its own, so the
  // server sheds with the device backlog hint.
  FaultInjector inj;
  engine::SiriusEngine::Options eo;
  eo.injector = &inj;
  eo.out_of_core = true;
  eo.tier.host_capacity_bytes = kKiB;  // nothing real fits
  eo.tier.nvme_capacity_bytes = 0;
  engine::SiriusEngine engine(SpillDb(), eo);
  FaultSpec oom;
  oom.code = StatusCode::kOutOfMemory;
  inj.Arm("engine.reserve", oom);  // persistent: every intermediate spills

  serve::ServeOptions so;
  so.result_cache = false;
  serve::QueryServer server(SpillDb(), &engine, so);
  const auto session = server.OpenSession("tenant");
  const auto id = server.Submit(session, tpch::Query(6)).ValueOrDie();
  auto out = server.Resolve(id).ValueOrDie();

  EXPECT_EQ(out.state, serve::QueryState::kShed) << out.status.ToString();
  EXPECT_TRUE(out.status.IsResourceExhausted());
  EXPECT_EQ(out.status.cause(), StatusCause::kSpillRefused);
  EXPECT_NE(out.status.message().find("exceeds every configured tier"),
            std::string::npos);
  EXPECT_GE(out.status.retry_after_s(), 1e-3);
  EXPECT_EQ(server.metrics().GetCounter("serve.spill_quota_shed")->raw(), 1u);
  EXPECT_EQ(server.reservations().reserved(), 0u);
  EXPECT_EQ(server.spill_quota("tenant").reserved(), 0u);
  EXPECT_EQ(engine.tiers().stats(Tier::kHost).used_bytes, 0u);
}

TEST(ServeSpillGovernanceTest, TierLossRequeueHealsTransientLoss) {
  (void)CpuQ6();
  FaultInjector inj;
  engine::SiriusEngine::Options eo;
  eo.injector = &inj;
  eo.out_of_core = true;
  engine::SiriusEngine engine(SpillDb(), eo);
  FaultSpec oom;
  oom.code = StatusCode::kOutOfMemory;
  inj.Arm("engine.reserve", oom);
  // Four triggers: the first execution burns two (host + NVMe die on its
  // spill placement), the engine's revive-and-retry burns two more, so the
  // query comes back Unavailable and the server must re-admit it. The
  // relaunched execution finds the site exhausted and completes.
  FaultSpec lost;
  lost.max_triggers = 4;
  inj.Arm("mem.tier.lost", lost);

  serve::ServeOptions so;
  so.result_cache = false;
  serve::QueryServer server(SpillDb(), &engine, so);
  const auto session = server.OpenSession("tenant");
  serve::SubmitOptions sub;
  sub.keep_result = true;
  const auto id = server.Submit(session, tpch::Query(6), sub).ValueOrDie();
  auto out = server.Resolve(id).ValueOrDie();

  EXPECT_EQ(out.state, serve::QueryState::kCompleted) << out.status.ToString();
  EXPECT_TRUE(CpuQ6()->Equals(*out.table) ||
              CpuQ6()->EqualsUnordered(*out.table));
  EXPECT_EQ(server.metrics().GetCounter("serve.tier_requeued")->raw(), 1u);
  EXPECT_EQ(server.reservations().reserved(), 0u);
  EXPECT_EQ(server.spill_quota("tenant").reserved(), 0u);
}

}  // namespace
}  // namespace sirius
