// Tests for the debug-mode race checking layer:
//  - sim::HazardTracker: vector-clock happens-before over simulated streams
//    and events (a seeded unordered cross-stream access must be flagged; a
//    properly event-ordered program must pass),
//  - sim::NewResourceId: the one id space of cache entries and spill extents,
//  - engine::BufferManager: stale cross-query event ids being ignored,
//  - engine::SiriusEngine: full race_check runs over real queries, in core
//    and out of core (cache entries and spill extents under one tracker),
//    are clean.

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "cell_compare.h"
#include "engine/buffer_manager.h"
#include "engine/sirius.h"
#include "mem/tier.h"
#include "sim/device.h"
#include "sim/timeline.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace sirius {
namespace {

using sim::EventId;
using sim::HazardTracker;
using sim::StreamId;

// ---------------------------------------------------------------------------
// HazardTracker: stream/event happens-before
// ---------------------------------------------------------------------------

class HazardTrackerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tracker_.set_abort_on_violation(false);
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

// ---------------------------------------------------------------------------
// Resource ids: one process-wide space for cache entries and spill extents
// ---------------------------------------------------------------------------

TEST(ResourceIdTest, ConcurrentIdsAreDistinctAndNonzero) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::vector<uint64_t>> minted(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&minted, t] {
      minted[t].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        minted[t].push_back(sim::NewResourceId());
      }
    });
  }
  for (auto& th : threads) th.join();
  std::set<uint64_t> ids;
  for (const auto& ids_of_thread : minted) {
    for (uint64_t id : ids_of_thread) {
      EXPECT_NE(id, 0u);
      ids.insert(id);
    }
  }
  EXPECT_EQ(ids.size(), static_cast<size_t>(kThreads) * kPerThread);
}

TEST(ResourceIdTest, CacheEntriesAndSpillExtentsNeverShareAnId) {
  // Cache entries loaded on one stream and spill extents staged from
  // another, with no edge between the two, under one tracker: only an id
  // that an entry and an extent share can show up as a race.
  HazardTracker hazards;
  hazards.set_abort_on_violation(false);
  sim::Timeline timeline;
  sim::SimContext sim;
  sim.timeline = &timeline;
  sim.hazards = &hazards;
  sim.stream = hazards.CreateStream("loader");
  const StreamId spiller = hazards.CreateStream("spiller");

  constexpr int kEach = 16;
  const format::TablePtr nation =
      tpch::GenerateTable("nation", 0.01).ValueOrDie();
  engine::BufferManager bm{engine::BufferManager::Options{}};
  for (int i = 0; i < kEach; ++i) {
    ASSERT_TRUE(bm.GetOrCacheColumns("nation" + std::to_string(i), nation,
                                     {0}, sim)
                    .ok());
  }
  mem::TierManager tiers({}, sim::NvlinkC2c());
  mem::SpillSession session(&tiers);
  for (int i = 0; i < kEach; ++i) {
    ASSERT_TRUE(
        session.RoundTrip(0, 1024, 0.0, nullptr, &hazards, spiller).ok());
  }
  EXPECT_EQ(hazards.violation_count(), 0u);
  ASSERT_TRUE(session.Join(0, 1.0).ok());
}

// ---------------------------------------------------------------------------
// BufferManager: cache entries outlive per-query trackers
// ---------------------------------------------------------------------------

class BufferManagerHazardTest : public ::testing::Test {
 protected:
  static format::TablePtr NationTable() {
    static format::TablePtr table =
        tpch::GenerateTable("nation", 0.01).ValueOrDie();
    return table;
  }
};

TEST_F(BufferManagerHazardTest, StaleEventIdFromDeadTrackerIsIgnored) {
  // Regression: cache entries outlive per-query HazardTrackers. A hot read
  // under a *new* tracker must not wait on the previous tracker's event id.
  engine::BufferManager bm{engine::BufferManager::Options{}};
  sim::Timeline timeline;

  HazardTracker first;
  first.set_abort_on_violation(false);
  sim::SimContext sim;
  sim.timeline = &timeline;
  sim.hazards = &first;
  sim.stream = first.CreateStream("q1-pipeline");
  ASSERT_TRUE(bm.GetOrCacheColumns("nation", NationTable(), {0}, sim).ok());
  EXPECT_EQ(first.violation_count(), 0u);

  HazardTracker second;
  second.set_abort_on_violation(false);
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
  options.race_check = true;  // a violation aborts -> loud test failure
  engine::SiriusEngine engine(&db, options);
  db.SetAccelerator(&engine);

  for (int q : {1, 3, 5, 6, 9, 18}) {
    auto result = db.Query(tpch::Query(q));
    ASSERT_TRUE(result.ok()) << "Q" << q << ": " << result.status().ToString();
    EXPECT_TRUE(result.ValueOrDie().accelerated) << "Q" << q;
  }
  db.SetAccelerator(nullptr);
}

TEST(EngineRaceCheckTest, CheckedOutOfCoreRunIsClean) {
  // The out-of-core pin's configuration (SF 1000 modeled on SF 0.01 data):
  // scans cold-load, evict and reload cache entries while intermediates
  // spill, so cache entries and spill extents meet under one tracker.
  host::Database::Options db_options;
  db_options.data_scale = 1.0e5;
  host::Database db(db_options);
  SIRIUS_CHECK_OK(tpch::LoadTpch(&db, 0.01));

  engine::SiriusEngine::Options options;
  options.data_scale = 1.0e5;
  options.out_of_core = true;
  options.race_check = true;  // a violation aborts -> loud test failure
  engine::SiriusEngine engine(&db, options);

  for (int q = 1; q <= tpch::NumQueries(); ++q) {
    const std::string label = "Q" + std::to_string(q);
    auto plan = db.PlanSql(tpch::Query(q)).ValueOrDie();
    auto gpu = engine.ExecutePlan(plan);
    ASSERT_TRUE(gpu.ok()) << label << ": " << gpu.status().ToString();
    auto cpu = db.ExecutePlanCpu(plan);
    ASSERT_TRUE(cpu.ok()) << label << ": " << cpu.status().ToString();
    cells::ExpectSameCells(*gpu.ValueOrDie().table, *cpu.ValueOrDie().table,
                           label, "race_checked", "cpu");
  }
  EXPECT_GT(engine.stats().spill_host + engine.stats().spill_nvme, 0u);
}

}  // namespace
}  // namespace sirius
