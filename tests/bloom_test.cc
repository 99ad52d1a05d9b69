// Tests for Bloom-filter predicate transfer (§3.4, [29, 30]).

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <unordered_set>

#include "engine/sirius.h"
#include "format/builder.h"
#include "gdf/bloom.h"
#include "tpch/queries.h"

namespace sirius::gdf {
namespace {

using format::Column;
using format::ColumnPtr;

Context Ctx() {
  Context ctx;
  ctx.mr = mem::DefaultResource();
  return ctx;
}

TEST(BloomFilterTest, NoFalseNegatives) {
  std::mt19937_64 rng(1);
  std::vector<int64_t> keys(5000);
  for (auto& k : keys) k = static_cast<int64_t>(rng());
  auto col = Column::FromInt64(keys);
  BloomFilter bloom(keys.size());
  bloom.InsertColumn(col);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(bloom.MightContain(*col, i)) << i;
  }
}

TEST(BloomFilterTest, LowFalsePositiveRate) {
  std::mt19937_64 rng(2);
  std::vector<int64_t> inserted(10000), probed(10000);
  for (auto& k : inserted) k = static_cast<int64_t>(rng() % 1000000);
  for (auto& k : probed) k = 1000000 + static_cast<int64_t>(rng() % 1000000);
  auto in_col = Column::FromInt64(inserted);
  auto probe_col = Column::FromInt64(probed);
  BloomFilter bloom(inserted.size());
  bloom.InsertColumn(in_col);
  size_t fp = 0;
  for (size_t i = 0; i < probed.size(); ++i) {
    fp += bloom.MightContain(*probe_col, i) ? 1 : 0;
  }
  EXPECT_LT(static_cast<double>(fp) / probed.size(), 0.05);
}

TEST(BloomFilterTest, NullKeysNeverContained) {
  auto col = Column::FromInt64({1, 2}, {true, false});
  BloomFilter bloom(2);
  bloom.InsertColumn(col);
  EXPECT_TRUE(bloom.MightContain(*col, 0));
  EXPECT_FALSE(bloom.MightContain(*col, 1));
}

TEST(BloomFilterTest, StringKeys) {
  auto col = Column::FromStrings({"alpha", "beta"});
  auto other = Column::FromStrings({"gamma_not_inserted_zzz"});
  BloomFilter bloom(2);
  bloom.InsertColumn(col);
  EXPECT_TRUE(bloom.MightContain(*col, 0));
  EXPECT_TRUE(bloom.MightContain(*col, 1));
  EXPECT_FALSE(bloom.MightContain(*other, 0));
}

TEST(BloomPrefilterTest, KeepsAllMatchingRows) {
  auto probe_key = Column::FromInt64({1, 2, 3, 4, 5, 6, 7, 8});
  auto build_key = Column::FromInt64({2, 4, 6});
  // Standalone, and inside a fused pass: the same selection either way.
  std::unordered_set<const format::Column*> resident;
  Context fused = Ctx();
  fused.fused_reads = &resident;
  for (const Context& ctx : {Ctx(), fused}) {
    auto keep = BloomPrefilter(ctx, probe_key, build_key).ValueOrDie();
    // Every true match survives (no false negatives): keys 2, 4 and 6 sit
    // at rows 1, 3 and 5.
    std::set<index_t> kept(keep.begin(), keep.end());
    EXPECT_TRUE(kept.count(1));
    EXPECT_TRUE(kept.count(3));
    EXPECT_TRUE(kept.count(5));
    EXPECT_LE(keep.size(), probe_key->length());
  }
}

TEST(PredicateTransferTest, EndToEndResultsIdentical) {
  host::Database db;
  SIRIUS_CHECK_OK(tpch::LoadTpch(&db, 0.005));

  engine::SiriusEngine::Options off;
  engine::SiriusEngine engine_off(&db, off);
  engine::SiriusEngine::Options on;
  on.predicate_transfer = true;
  engine::SiriusEngine engine_on(&db, on);

  for (int q : {3, 9, 17, 21}) {
    db.SetAccelerator(&engine_off);
    auto a = db.Query(tpch::Query(q));
    db.SetAccelerator(&engine_on);
    auto b = db.Query(tpch::Query(q));
    db.SetAccelerator(nullptr);
    ASSERT_TRUE(a.ok() && b.ok()) << "Q" << q;
    EXPECT_TRUE(a.ValueOrDie().table->Equals(*b.ValueOrDie().table)) << "Q" << q;
    EXPECT_TRUE(b.ValueOrDie().accelerated);
  }
}

}  // namespace
}  // namespace sirius::gdf
