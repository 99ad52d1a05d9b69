// Tests for the debug-mode race/lifetime checking layer:
//  - sim::HazardTracker: vector-clock happens-before over simulated streams
//    and events (a seeded unordered cross-stream access must be flagged; a
//    properly event-ordered program must pass),
//  - mem::LifetimeTracker: generation-stamped use-after-free / double-free /
//    pin discipline,
//  - engine::BufferManager: use-after-evict through stamped column handles,
//    pins blocking eviction, and stale cross-query event ids being ignored,
//  - engine::SiriusEngine: a full race_check run over real queries is clean.

#include <gtest/gtest.h>

#include "engine/buffer_manager.h"
#include "engine/sirius.h"
#include "mem/buffer.h"
#include "sim/device.h"
#include "sim/timeline.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace sirius {
namespace {

using sim::EventId;
using sim::HazardTracker;
using sim::StreamId;
using mem::LifetimeTracker;

// ---------------------------------------------------------------------------
// HazardTracker: stream/event happens-before
// ---------------------------------------------------------------------------

class HazardTrackerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tracker_.set_abort_on_violation(false);
    tracker_.set_enabled(true);
  }
  HazardTracker tracker_;
};

TEST_F(HazardTrackerTest, UnorderedCrossStreamWritesAreFlagged) {
  const StreamId a = tracker_.CreateStream("a");
  const StreamId b = tracker_.CreateStream("b");
  tracker_.OnWrite(a, /*resource=*/7, "kernel on a");
  // No event edge between a and b: this is the seeded race.
  tracker_.OnWrite(b, /*resource=*/7, "kernel on b");
  ASSERT_EQ(tracker_.violation_count(), 1u);
  const auto v = tracker_.violations()[0];
  EXPECT_EQ(v.kind, HazardTracker::ViolationKind::kWriteWriteRace);
  EXPECT_EQ(v.resource, 7u);
  EXPECT_EQ(v.first, a);
  EXPECT_EQ(v.second, b);
  EXPECT_NE(v.detail.find("kernel on a"), std::string::npos) << v.detail;
}

TEST_F(HazardTrackerTest, EventEdgeOrdersCrossStreamWrites) {
  const StreamId a = tracker_.CreateStream("a");
  const StreamId b = tracker_.CreateStream("b");
  tracker_.OnWrite(a, 7, "producer");
  const EventId done = tracker_.RecordEvent(a);
  tracker_.StreamWaitEvent(b, done);
  tracker_.OnWrite(b, 7, "consumer");
  EXPECT_EQ(tracker_.violation_count(), 0u);
}

TEST_F(HazardTrackerTest, WriteThenUnorderedReadIsFlagged) {
  const StreamId a = tracker_.CreateStream("a");
  const StreamId b = tracker_.CreateStream("b");
  tracker_.OnWrite(a, 1, "materialize");
  tracker_.OnRead(b, 1, "probe");
  ASSERT_EQ(tracker_.violation_count(), 1u);
  EXPECT_EQ(tracker_.violations()[0].kind,
            HazardTracker::ViolationKind::kWriteReadRace);
}

TEST_F(HazardTrackerTest, ReadThenUnorderedWriteIsFlagged) {
  const StreamId a = tracker_.CreateStream("a");
  const StreamId b = tracker_.CreateStream("b");
  tracker_.OnWrite(a, 1, "fill");
  const EventId e = tracker_.RecordEvent(a);
  tracker_.StreamWaitEvent(b, e);
  tracker_.OnRead(b, 1, "scan");  // ordered read
  tracker_.OnWrite(a, 1, "overwrite");  // a never saw b's read
  ASSERT_EQ(tracker_.violation_count(), 1u);
  EXPECT_EQ(tracker_.violations()[0].kind,
            HazardTracker::ViolationKind::kReadWriteRace);
}

TEST_F(HazardTrackerTest, SameStreamAccessesAreAlwaysOrdered) {
  const StreamId a = tracker_.CreateStream("a");
  tracker_.OnWrite(a, 3, "w1");
  tracker_.OnRead(a, 3, "r1");
  tracker_.OnWrite(a, 3, "w2");
  EXPECT_EQ(tracker_.violation_count(), 0u);
}

TEST_F(HazardTrackerTest, TransitiveEventOrderingIsHonoured) {
  // a -> b -> c through two event edges; c's access is ordered after a's.
  const StreamId a = tracker_.CreateStream("a");
  const StreamId b = tracker_.CreateStream("b");
  const StreamId c = tracker_.CreateStream("c");
  tracker_.OnWrite(a, 9, "stage 1");
  tracker_.StreamWaitEvent(b, tracker_.RecordEvent(a));
  tracker_.OnWrite(b, 9, "stage 2");
  tracker_.StreamWaitEvent(c, tracker_.RecordEvent(b));
  tracker_.OnWrite(c, 9, "stage 3");
  EXPECT_EQ(tracker_.violation_count(), 0u);
}

TEST_F(HazardTrackerTest, InvalidStreamAndEventAreFlagged) {
  tracker_.OnWrite(/*stream=*/42, 1, "bogus stream");
  tracker_.StreamWaitEvent(/*stream=*/0, /*event=*/99);
  ASSERT_EQ(tracker_.violation_count(), 2u);
  EXPECT_EQ(tracker_.violations()[0].kind,
            HazardTracker::ViolationKind::kInvalidStream);
  EXPECT_EQ(tracker_.violations()[1].kind,
            HazardTracker::ViolationKind::kInvalidEvent);
}

TEST_F(HazardTrackerTest, ReleaseResourceForgetsHistory) {
  const StreamId a = tracker_.CreateStream("a");
  const StreamId b = tracker_.CreateStream("b");
  tracker_.OnWrite(a, 5, "old owner");
  tracker_.ReleaseResource(5);
  // Resource id 5 was recycled; b's unordered write is a fresh first access.
  tracker_.OnWrite(b, 5, "new owner");
  EXPECT_EQ(tracker_.violation_count(), 0u);
}

TEST_F(HazardTrackerTest, DisabledTrackerIsSilent) {
  tracker_.set_enabled(false);
  const StreamId a = tracker_.CreateStream("a");
  const StreamId b = tracker_.CreateStream("b");
  tracker_.OnWrite(a, 7, "w");
  tracker_.OnWrite(b, 7, "w");
  EXPECT_EQ(tracker_.violation_count(), 0u);
}

// ---------------------------------------------------------------------------
// LifetimeTracker: generation-stamped allocation lifetimes
// ---------------------------------------------------------------------------

class LifetimeTrackerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LifetimeTracker::Global().set_abort_on_violation(false);
    LifetimeTracker::Global().set_enabled(true);
    LifetimeTracker::Global().Reset();
  }
  void TearDown() override {
    LifetimeTracker::Global().Reset();
    LifetimeTracker::Global().set_enabled(false);
    LifetimeTracker::Global().set_abort_on_violation(true);
  }
  LifetimeTracker& t() { return LifetimeTracker::Global(); }
};

TEST_F(LifetimeTrackerTest, AllocFreeRoundTrip) {
  const uint64_t g = t().OnAlloc(64, "scratch");
  EXPECT_TRUE(t().IsLive(g));
  EXPECT_EQ(t().live_count(), 1u);
  t().OnFree(g);
  EXPECT_FALSE(t().IsLive(g));
  EXPECT_EQ(t().live_count(), 0u);
  EXPECT_EQ(t().violation_count(), 0u);
}

TEST_F(LifetimeTrackerTest, DoubleFreeIsFlagged) {
  const uint64_t g = t().OnAlloc(64, "scratch");
  t().OnFree(g);
  t().OnFree(g);
  ASSERT_EQ(t().violation_count(), 1u);
  EXPECT_EQ(t().violations()[0].kind,
            LifetimeTracker::ViolationKind::kDoubleFree);
  EXPECT_EQ(t().violations()[0].generation, g);
}

TEST_F(LifetimeTrackerTest, UseAfterFreeIsFlagged) {
  const uint64_t g = t().OnAlloc(64, "scratch");
  t().OnFree(g);
  t().OnAccess(g, "stale handle");
  ASSERT_EQ(t().violation_count(), 1u);
  EXPECT_EQ(t().violations()[0].kind,
            LifetimeTracker::ViolationKind::kUseAfterFree);
}

TEST_F(LifetimeTrackerTest, FreeWhilePinnedIsFlagged) {
  const uint64_t g = t().OnAlloc(64, "kernel input");
  t().OnPin(g);
  t().OnFree(g);
  ASSERT_EQ(t().violation_count(), 1u);
  EXPECT_EQ(t().violations()[0].kind,
            LifetimeTracker::ViolationKind::kFreeWhilePinned);
}

TEST_F(LifetimeTrackerTest, BalancedPinUnpinIsClean) {
  const uint64_t g = t().OnAlloc(64, "kernel input");
  t().OnPin(g);
  t().OnPin(g);
  t().OnUnpin(g);
  t().OnUnpin(g);
  t().OnFree(g);
  EXPECT_EQ(t().violation_count(), 0u);
}

TEST_F(LifetimeTrackerTest, UnbalancedUnpinIsFlagged) {
  const uint64_t g = t().OnAlloc(64, "kernel input");
  t().OnUnpin(g);
  ASSERT_EQ(t().violation_count(), 1u);
  EXPECT_EQ(t().violations()[0].kind,
            LifetimeTracker::ViolationKind::kUnbalancedUnpin);
}

TEST_F(LifetimeTrackerTest, BufferAllocationsAreTracked) {
  const size_t before = t().live_count();
  {
    auto buf = mem::Buffer::Allocate(128);
    ASSERT_TRUE(buf.ok());
    EXPECT_GT(buf.ValueOrDie().generation(), 0u);
    EXPECT_EQ(t().live_count(), before + 1);
  }
  // Buffer destructor retires the generation exactly once.
  EXPECT_EQ(t().live_count(), before);
  EXPECT_EQ(t().violation_count(), 0u);
}

// ---------------------------------------------------------------------------
// BufferManager: use-after-evict through stamped handles
// ---------------------------------------------------------------------------

class BufferManagerLifetimeTest : public LifetimeTrackerTest {
 protected:
  static format::TablePtr NationTable() {
    static format::TablePtr table =
        tpch::GenerateTable("nation", 0.01).ValueOrDie();
    return table;
  }
};

TEST_F(BufferManagerLifetimeTest, ValidateHandleAfterEvictIsUseAfterEvict) {
  engine::BufferManager bm{engine::BufferManager::Options{}};
  sim::Timeline timeline;
  sim::SimContext sim;
  sim.timeline = &timeline;
  auto loaded = bm.GetOrCacheColumns("nation", NationTable(), {0, 1}, sim);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  auto handle = bm.HandleFor("nation", 0);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  EXPECT_TRUE(bm.ValidateHandle(handle.ValueOrDie()).ok());

  EXPECT_GT(bm.EvictAll(), 0u);
  const Status stale = bm.ValidateHandle(handle.ValueOrDie());
  EXPECT_EQ(stale.code(), StatusCode::kExecutionError) << stale.ToString();
  EXPECT_NE(stale.ToString().find("use-after-evict"), std::string::npos);
  ASSERT_GE(t().violation_count(), 1u);
  EXPECT_EQ(t().violations()[0].kind,
            LifetimeTracker::ViolationKind::kUseAfterFree);
}

TEST_F(BufferManagerLifetimeTest, ReloadAfterEvictMintsNewGeneration) {
  engine::BufferManager bm{engine::BufferManager::Options{}};
  sim::Timeline timeline;
  sim::SimContext sim;
  sim.timeline = &timeline;
  ASSERT_TRUE(bm.GetOrCacheColumns("nation", NationTable(), {0}, sim).ok());
  auto old_handle = bm.HandleFor("nation", 0).ValueOrDie();
  bm.EvictAll();
  ASSERT_TRUE(bm.GetOrCacheColumns("nation", NationTable(), {0}, sim).ok());
  auto new_handle = bm.HandleFor("nation", 0).ValueOrDie();
  EXPECT_NE(old_handle.generation, new_handle.generation);
  // The old handle stays stale even though the column is resident again.
  EXPECT_FALSE(bm.ValidateHandle(old_handle).ok());
  EXPECT_TRUE(bm.ValidateHandle(new_handle).ok());
}

TEST_F(BufferManagerLifetimeTest, PinnedColumnBlocksEviction) {
  const format::TablePtr table = NationTable();
  // Resident bytes are the encoded size (data_scale 1).
  const uint64_t bytes0 =
      format::Encode(table->column(0)).ValueOrDie().CompressedBytes();
  const uint64_t bytes1 =
      format::Encode(table->column(1)).ValueOrDie().CompressedBytes();
  // Caching region fits either column alone but not both.
  engine::BufferManager::Options options;
  options.device_capacity_bytes = 2 * (bytes0 + bytes1 - 1);
  options.cache_fraction = 0.5;
  engine::BufferManager bm{options};
  ASSERT_GE(bm.cache_capacity_bytes(), std::max(bytes0, bytes1));
  ASSERT_LT(bm.cache_capacity_bytes(), bytes0 + bytes1);

  sim::Timeline timeline;
  sim::SimContext sim;
  sim.timeline = &timeline;
  ASSERT_TRUE(bm.GetOrCacheColumns("nation", table, {0}, sim).ok());
  ASSERT_TRUE(bm.PinColumn("nation", 0).ok());

  // Loading another column needs an eviction, but the only candidate is
  // pinned: the load must fail instead of yanking a column mid-kernel.
  const auto second = bm.GetOrCacheColumns("nation", table, {1}, sim);
  EXPECT_TRUE(second.status().IsOutOfMemory()) << second.status().ToString();
  EXPECT_TRUE(bm.IsCached("nation", 0));

  ASSERT_TRUE(bm.UnpinColumn("nation", 0).ok());
  EXPECT_TRUE(bm.GetOrCacheColumns("nation", table, {1}, sim).ok());
  EXPECT_FALSE(bm.IsCached("nation", 0));
  EXPECT_EQ(t().violation_count(), 0u);
}

TEST_F(BufferManagerLifetimeTest, EvictingPinnedColumnIsFlagged) {
  engine::BufferManager bm{engine::BufferManager::Options{}};
  sim::Timeline timeline;
  sim::SimContext sim;
  sim.timeline = &timeline;
  ASSERT_TRUE(bm.GetOrCacheColumns("nation", NationTable(), {0}, sim).ok());
  ASSERT_TRUE(bm.PinColumn("nation", 0).ok());
  bm.EvictAll();  // seeded bug: dropping the cache while a kernel holds a pin
  ASSERT_GE(t().violation_count(), 1u);
  EXPECT_EQ(t().violations()[0].kind,
            LifetimeTracker::ViolationKind::kFreeWhilePinned);
}

TEST_F(BufferManagerLifetimeTest, StaleEventIdFromDeadTrackerIsIgnored) {
  // Regression: cache entries outlive per-query HazardTrackers. A hot read
  // under a *new* tracker must not wait on the previous tracker's event id.
  engine::BufferManager bm{engine::BufferManager::Options{}};
  sim::Timeline timeline;

  HazardTracker first;
  first.set_abort_on_violation(false);
  first.set_enabled(true);
  sim::SimContext sim;
  sim.timeline = &timeline;
  sim.hazards = &first;
  sim.stream = first.CreateStream("q1-pipeline");
  ASSERT_TRUE(bm.GetOrCacheColumns("nation", NationTable(), {0}, sim).ok());
  EXPECT_EQ(first.violation_count(), 0u);

  HazardTracker second;
  second.set_abort_on_violation(false);
  second.set_enabled(true);
  sim.hazards = &second;
  sim.stream = second.CreateStream("q2-pipeline");
  ASSERT_TRUE(bm.GetOrCacheColumns("nation", NationTable(), {0}, sim).ok());
  EXPECT_EQ(second.violation_count(), 0u);
}

// ---------------------------------------------------------------------------
// Engine: a full checked run over real queries is clean
// ---------------------------------------------------------------------------

TEST(EngineRaceCheckTest, CheckedTpchRunIsClean) {
  host::Database::Options db_options;
  db_options.data_scale = 1000.0;
  host::Database db(db_options);
  SIRIUS_CHECK_OK(tpch::LoadTpch(&db, 0.001));

  engine::SiriusEngine::Options options;
  options.data_scale = 1000.0;
  options.race_check = true;
  options.race_check_abort = true;  // a violation aborts -> loud test failure
  engine::SiriusEngine engine(&db, options);
  db.SetAccelerator(&engine);

  for (int q : {1, 3, 5, 6, 9, 18}) {
    auto result = db.Query(tpch::Query(q));
    ASSERT_TRUE(result.ok()) << "Q" << q << ": " << result.status().ToString();
    EXPECT_TRUE(result.ValueOrDie().accelerated) << "Q" << q;
  }
  EXPECT_EQ(engine.stats().race_violations, 0u);
  db.SetAccelerator(nullptr);
}

}  // namespace
}  // namespace sirius
