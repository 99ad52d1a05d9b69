// Tests for the buffer manager's scan path over the compressed caching
// region (§3.4):
//  - scans decode outside the manager's mutex, so threads scanning hot
//    columns while another thread evicts must still get exact columns;
//  - entries are stamped with the host column they were loaded from, so a
//    table replaced in the catalog reloads instead of serving the old rows.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "engine/buffer_manager.h"
#include "engine/sirius.h"
#include "format/builder.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace sirius {
namespace {

/// A three-row nation whose names appear nowhere in the generated one.
format::TablePtr ReplacementNation() {
  format::TableBuilder b(
      tpch::GenerateTable("nation", 0.001).ValueOrDie()->schema());
  const char* names[] = {"ATLANTIS", "LEMURIA", "MU"};
  for (int i = 0; i < 3; ++i) {
    b.column(0).AppendInt(i);
    b.column(1).AppendString(names[i]);
    b.column(2).AppendInt(i);
    b.column(3).AppendString("replaced");
  }
  return b.Finish().ValueOrDie();
}

TEST(BufferManagerCodecTest, ReplacedTableIsReadWithoutEvictAll) {
  host::Database db;
  SIRIUS_CHECK_OK(tpch::LoadTpch(&db, 0.001));
  engine::SiriusEngine eng(&db, engine::SiriusEngine::Options{});
  const std::string sql =
      "SELECT n_nationkey, n_name FROM nation ORDER BY n_nationkey";

  db.SetAccelerator(&eng);
  auto before = db.Query(sql);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before.ValueOrDie().table->num_rows(), 25u);
  ASSERT_TRUE(eng.buffer_manager().IsCached("nation", 1));

  ASSERT_TRUE(db.CreateTable("nation", ReplacementNation()).ok());
  auto after = db.Query(sql);
  db.SetAccelerator(nullptr);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(after.ValueOrDie().accelerated);

  auto cpu = db.Query(sql);
  ASSERT_TRUE(cpu.ok()) << cpu.status().ToString();
  const format::Table& got = *after.ValueOrDie().table;
  const format::Table& want = *cpu.ValueOrDie().table;
  EXPECT_EQ(got.num_rows(), 3u);
  EXPECT_TRUE(got.Equals(want)) << "engine:\n"
                                << got.ToString(5) << "\nhost:\n"
                                << want.ToString(5);
}

TEST(BufferManagerCodecTest, ReplacedColumnReloadsAsMiss) {
  const format::TablePtr old_nation =
      tpch::GenerateTable("nation", 0.001).ValueOrDie();
  const format::TablePtr new_nation = ReplacementNation();
  engine::BufferManager bm{engine::BufferManager::Options{}};
  sim::Timeline timeline;
  sim::SimContext sim;
  sim.timeline = &timeline;
  ASSERT_TRUE(bm.GetOrCacheColumns("nation", old_nation, {1}, sim).ok());

  // Same table again: a hit, so no host-link transfer is charged.
  const double load_s = timeline.seconds(sim::OpCategory::kOther);
  ASSERT_TRUE(bm.GetOrCacheColumns("nation", old_nation, {1}, sim).ok());
  EXPECT_EQ(timeline.seconds(sim::OpCategory::kOther), load_s);

  // Replaced table: the stale entry is dropped and the column reloads.
  auto got = bm.GetOrCacheColumns("nation", new_nation, {1}, sim);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got.ValueOrDie()->column(0)->Equals(*new_nation->column(1)));
  EXPECT_GT(timeline.seconds(sim::OpCategory::kOther), load_s);
  const format::EncodedColumn reloaded =
      format::Encode(new_nation->column(1)).ValueOrDie();
  EXPECT_EQ(bm.cached_modeled_bytes(), reloaded.CompressedBytes());
  EXPECT_EQ(bm.eviction_count(), 0u);
}

TEST(BufferManagerCodecTest, ConcurrentScansDuringEvictAllMatchHostColumns) {
  // Dictionary and plain strings and FOR-packed integers and decimals.
  const format::TablePtr table =
      tpch::GenerateTable("customer", 0.01).ValueOrDie();
  std::vector<int> columns;
  for (size_t c = 0; c < table->num_columns(); ++c) {
    columns.push_back(static_cast<int>(c));
  }
  engine::BufferManager bm{engine::BufferManager::Options{}};
  constexpr int kScanners = 4;
  constexpr int kRounds = 40;
  std::atomic<int> failures{0};
  std::atomic<int> mismatches{0};
  std::atomic<bool> stop{false};

  std::thread evictor([&] {
    while (!stop.load()) {
      bm.EvictAll();
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> scanners;
  for (int t = 0; t < kScanners; ++t) {
    scanners.emplace_back([&] {
      sim::Timeline timeline;
      sim::SimContext sim;
      sim.timeline = &timeline;
      for (int round = 0; round < kRounds; ++round) {
        auto got = bm.GetOrCacheColumns("customer", table, columns, sim);
        if (!got.ok()) {
          ++failures;
          continue;
        }
        for (size_t c = 0; c < columns.size(); ++c) {
          if (!got.ValueOrDie()->column(c)->Equals(*table->column(c))) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (auto& t : scanners) t.join();
  stop.store(true);
  evictor.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace sirius
