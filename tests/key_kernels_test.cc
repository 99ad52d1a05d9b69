// Property test for the key kernels: hash join, group-by, DISTINCT, hash
// partition and ASOF join, each checked against the row-at-a-time reference
// kernels in key_reference.cc over seeded random key sets. Hashes, join
// index vectors (with their order), output bytes and the modeled seconds
// charged per category must all be identical.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common/bitutil.h"
#include "expr/expr.h"
#include "format/builder.h"
#include "gdf/asof.h"
#include "gdf/groupby.h"
#include "gdf/join.h"
#include "gdf/partition.h"
#include "gdf/row_ops.h"
#include "key_reference.h"
#include "sim/device.h"
#include "sim/timeline.h"

namespace sirius::gdf {
namespace {

using format::Column;
using format::ColumnPtr;
using format::DataType;
using format::Schema;
using format::Table;
using format::TablePtr;
using Rng = std::mt19937_64;

size_t Pick(Rng& rng, size_t n) { return n == 0 ? 0 : static_cast<size_t>(rng() % n); }
bool Chance(Rng& rng, int percent) { return static_cast<int>(rng() % 100) < percent; }

// The key types the kernels specialize or fall back on.
const DataType kKeyTypes[] = {format::Bool(),       format::Int32(),
                              format::Int64(),      format::Decimal(2),
                              format::Date32(),     format::Float64(),
                              format::String()};
constexpr size_t kNumKeyTypes = sizeof(kKeyTypes) / sizeof(kKeyTypes[0]);

/// A key column of `n` rows whose values are drawn from `card` distinct
/// values of `type` (fewer for bool). Float keys mix +0.0 and -0.0 (never
/// NaN); string keys include the empty string and strings past 8 bytes.
ColumnPtr RandomKey(Rng& rng, const DataType& type, size_t n, size_t card,
                    bool nulls) {
  format::ColumnBuilder b(type);
  b.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (nulls && Chance(rng, 12)) {
      b.AppendNull();
      continue;
    }
    const int64_t v = static_cast<int64_t>(Pick(rng, card));
    switch (type.id) {
      case format::TypeId::kBool:
        b.AppendBool(v % 2 == 1);
        break;
      case format::TypeId::kInt32:
        b.AppendInt(v * 7 - 30);
        break;
      case format::TypeId::kInt64:
        b.AppendInt(v * 1000003 - 5000);
        break;
      case format::TypeId::kDecimal64:
        b.AppendInt(v * 25 - 100);
        break;
      case format::TypeId::kDate32:
        b.AppendInt(9000 + v);
        break;
      case format::TypeId::kFloat64:
        b.AppendDouble(v == 0 ? (Chance(rng, 50) ? -0.0 : 0.0) : 0.5 * v - 3.0);
        break;
      case format::TypeId::kString:
        b.AppendString(v == 0 ? std::string()
                              : (v % 3 == 0 ? "a-longer-key-" : "k") + std::to_string(v));
        break;
      case format::TypeId::kList:
        break;
    }
  }
  return b.Finish();
}

/// A value column for aggregates and residuals.
ColumnPtr RandomValues(Rng& rng, const DataType& type, size_t n, bool nulls) {
  format::ColumnBuilder b(type);
  b.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (nulls && Chance(rng, 10)) {
      b.AppendNull();
      continue;
    }
    const int64_t v = static_cast<int64_t>(Pick(rng, 2001)) - 1000;
    switch (type.id) {
      case format::TypeId::kFloat64:
        b.AppendDouble(0.37 * static_cast<double>(v));
        break;
      case format::TypeId::kString:
        b.AppendString("v" + std::to_string(v % 37));
        break;
      default:
        b.AppendInt(v);
        break;
    }
  }
  return b.Finish();
}

TablePtr MakeTable(const std::vector<ColumnPtr>& cols, const std::string& prefix) {
  Schema schema;
  for (size_t c = 0; c < cols.size(); ++c) {
    schema.AddField({prefix + std::to_string(c), cols[c]->type()});
  }
  return Table::Make(std::move(schema), cols).ValueOrDie();
}

/// Modeled charges of one kernel call: per-category seconds and counters.
struct Charged {
  std::map<sim::OpCategory, double> seconds;
  uint64_t launches = 0, seq_bytes = 0, rand_bytes = 0;
  bool operator==(const Charged& o) const {
    return seconds == o.seconds && launches == o.launches &&
           seq_bytes == o.seq_bytes && rand_bytes == o.rand_bytes;
  }
};

/// Runs `fn` with a context charging a GPU timeline (so the few-group
/// contention term is live) and returns what it charged.
template <typename Fn>
Charged Meter(Fn&& fn) {
  sim::Timeline timeline;
  sim::KernelStats stats;
  Context ctx;
  ctx.mr = mem::DefaultResource();
  ctx.sim.device = sim::Gh200Gpu();
  ctx.sim.timeline = &timeline;
  ctx.sim.kernel_stats = &stats;
  fn(ctx);
  return {timeline.breakdown(), stats.launches, stats.seq_bytes, stats.rand_bytes};
}

void ExpectSameBytes(const Column& got, const Column& want, const std::string& what) {
  ASSERT_EQ(got.type(), want.type()) << what;
  ASSERT_EQ(got.length(), want.length()) << what;
  ASSERT_EQ(got.null_count(), want.null_count()) << what;
  ASSERT_EQ(got.MemoryUsage(), want.MemoryUsage()) << what;
  ASSERT_EQ(got.data_size(), want.data_size()) << what;
  const size_t n = want.length();
  ASSERT_EQ(got.validity() == nullptr, want.validity() == nullptr) << what;
  if (want.validity() != nullptr) {
    ASSERT_EQ(std::memcmp(got.validity(), want.validity(), bit::BytesForBits(n)), 0)
        << what;
  }
  if (want.type().is_string()) {
    ASSERT_EQ(std::memcmp(got.offsets(), want.offsets(), (n + 1) * sizeof(int64_t)), 0)
        << what;
    ASSERT_EQ(got.chars_size(), want.chars_size()) << what;
    if (want.chars_size() > 0) {
      ASSERT_EQ(std::memcmp(got.chars(), want.chars(), want.chars_size()), 0) << what;
    }
    return;
  }
  if (n == 0) return;
  const size_t width = want.data_size() / n;
  for (size_t k = 0; k < n; ++k) {
    if (want.IsNull(k)) continue;
    ASSERT_EQ(std::memcmp(got.data<uint8_t>() + k * width,
                          want.data<uint8_t>() + k * width, width),
              0)
        << what << " row " << k;
  }
}

/// Placeholder for a kernel result before the kernel ran.
Status Unset() { return Status::Internal("kernel not run"); }

void ExpectSameTable(const Result<TablePtr>& got, const Result<TablePtr>& want,
                     const std::string& what) {
  ASSERT_EQ(got.ok(), want.ok()) << what;
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << what;
    return;
  }
  const Table& g = *got.ValueOrDie();
  const Table& w = *want.ValueOrDie();
  ASSERT_TRUE(g.schema().Equals(w.schema())) << what;
  for (size_t c = 0; c < w.num_columns(); ++c) {
    ExpectSameBytes(*g.column(c), *w.column(c), what + " column " + std::to_string(c));
  }
}

void ExpectSameJoin(const Result<JoinResult>& got, const Result<JoinResult>& want,
                    const std::string& what) {
  ASSERT_EQ(got.ok(), want.ok()) << what;
  if (!want.ok()) return;
  EXPECT_EQ(got.ValueOrDie().left_indices, want.ValueOrDie().left_indices) << what;
  EXPECT_EQ(got.ValueOrDie().right_indices, want.ValueOrDie().right_indices) << what;
}

/// One seeded case's key layout: the first key's type, NULLs and key count
/// enumerate every combination over the seeds; further key types are random.
struct Case {
  std::vector<DataType> types;
  bool nulls = false;
  size_t rows = 0;
  size_t card = 1;
  std::string what;
};

Case MakeCase(uint64_t seed, Rng& rng) {
  static const size_t kLengths[] = {0, 1, 2, 7, 8, 9, 63, 64, 65, 129, 1000, 2999, 3000};
  constexpr size_t kNumLengths = sizeof(kLengths) / sizeof(kLengths[0]);
  Case c;
  const size_t num_keys = 1 + (seed / (2 * kNumKeyTypes)) % 3;
  c.types.push_back(kKeyTypes[seed % kNumKeyTypes]);
  for (size_t k = 1; k < num_keys; ++k) c.types.push_back(kKeyTypes[Pick(rng, kNumKeyTypes)]);
  c.nulls = (seed / kNumKeyTypes) % 2 == 1;
  c.rows = seed % 4 == 3 ? Pick(rng, 3001) : kLengths[seed % kNumLengths];
  // Cardinality from a single value up to all-unique.
  const size_t cards[] = {1, 3, 17, std::max<size_t>(1, c.rows / 8), std::max<size_t>(1, c.rows)};
  c.card = cards[Pick(rng, 5)];
  c.what = "seed " + std::to_string(seed) + " rows " + std::to_string(c.rows) +
           " card " + std::to_string(c.card) + (c.nulls ? " nulls" : "") + " keys";
  for (const auto& t : c.types) c.what += " " + t.ToString();
  return c;
}

std::vector<ColumnPtr> RandomKeys(Rng& rng, const Case& c, size_t rows) {
  std::vector<ColumnPtr> keys;
  for (const auto& t : c.types) keys.push_back(RandomKey(rng, t, rows, c.card, c.nulls));
  return keys;
}

constexpr uint64_t kSeeds = 2 * kNumKeyTypes * 3 * 2;  // every layout twice

TEST(KeyKernelPropertyTest, HashAllMatchesRowHash) {
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(seed);
    const Case c = MakeCase(seed, rng);
    const RowOps ops(RandomKeys(rng, c, c.rows));
    const std::vector<uint64_t> hashes = ops.HashAll();
    ASSERT_EQ(hashes.size(), c.rows) << c.what;
    for (size_t i = 0; i < c.rows; ++i) {
      ASSERT_EQ(hashes[i], reference::Hash(ops, i)) << c.what << " row " << i;
    }
  }
}

TEST(KeyKernelPropertyTest, HashAllMatchesRowHashForLists) {
  const ColumnPtr lists =
      Column::FromListsOfDoubles({{1.0, -0.0}, {}, {1.0, 0.0}, {2.5}, {1.0, 0.0, 3.0}});
  const RowOps ops({lists, Column::FromInt64({1, 2, 1, 4, 5})});
  const std::vector<uint64_t> hashes = ops.HashAll();
  ASSERT_EQ(hashes.size(), 5u);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(hashes[i], reference::Hash(ops, i));
  EXPECT_EQ(hashes[0], hashes[2]);  // -0.0 inside a list hashes as 0.0
}

TEST(KeyKernelPropertyTest, JoinsMatchReference) {
  const JoinType kTypes[] = {JoinType::kInner, JoinType::kLeft, JoinType::kSemi,
                             JoinType::kAnti};
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(seed);
    const Case c = MakeCase(seed, rng);
    const size_t probe_rows = c.rows;
    // Keep the candidate count (about probe * build / card) small.
    size_t build_rows = Pick(rng, 3001);
    if (probe_rows > 0) {
      build_rows = std::min(build_rows, std::max<size_t>(1, 100000 * c.card / probe_rows));
    }
    const std::vector<ColumnPtr> lkeys = RandomKeys(rng, c, probe_rows);
    const std::vector<ColumnPtr> rkeys = RandomKeys(rng, c, build_rows);

    // Residual `lv < rv` over (left keys, lv) ++ (right keys, rv).
    std::vector<ColumnPtr> lcols = lkeys, rcols = rkeys;
    lcols.push_back(RandomValues(rng, format::Int64(), probe_rows, c.nulls));
    rcols.push_back(RandomValues(rng, format::Int64(), build_rows, c.nulls));
    const TablePtr lt = MakeTable(lcols, "l");
    const TablePtr rt = MakeTable(rcols, "r");
    Schema combined;
    for (const auto& f : lt->schema().fields()) combined.AddField(f);
    for (const auto& f : rt->schema().fields()) combined.AddField(f);
    expr::ExprPtr residual =
        expr::Lt(expr::ColRef("l" + std::to_string(lkeys.size())),
                 expr::ColRef("r" + std::to_string(rkeys.size())));
    SIRIUS_CHECK_OK(expr::Bind(residual, combined));

    for (JoinType type : kTypes) {
      for (bool with_residual : {false, true}) {
        JoinOptions options;
        options.type = type;
        if (with_residual) {
          options.residual = residual.get();
          options.left_table = lt;
          options.right_table = rt;
        }
        const std::string what = c.what + " build " + std::to_string(build_rows) +
                                 " " + JoinTypeName(type) +
                                 (with_residual ? " residual" : "");
        Result<JoinResult> got = Unset(), want = Unset();
        const Charged got_cost = Meter([&](const Context& ctx) {
          got = HashJoin(ctx, lkeys, rkeys, options);
        });
        const Charged want_cost = Meter([&](const Context& ctx) {
          want = reference::HashJoin(ctx, lkeys, rkeys, options);
        });
        ExpectSameJoin(got, want, what);
        EXPECT_TRUE(got_cost == want_cost) << what;
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(KeyKernelPropertyTest, GroupByDistinctAndPartitionMatchReference) {
  size_t string_cases = 0, numeric_cases = 0;
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(seed);
    const Case c = MakeCase(seed, rng);
    const std::vector<ColumnPtr> keys = RandomKeys(rng, c, c.rows);
    bool string_key = false;
    for (const auto& t : c.types) string_key |= t.is_string();
    ++(string_key ? string_cases : numeric_cases);

    // Every aggregate kind over every value type it accepts.
    const std::vector<ColumnPtr> vals = {
        RandomValues(rng, format::Int64(), c.rows, c.nulls),
        RandomValues(rng, format::Decimal(2), c.rows, c.nulls),
        RandomValues(rng, format::Float64(), c.rows, c.nulls),
        RandomValues(rng, format::Int32(), c.rows, c.nulls),
        RandomValues(rng, format::String(), c.rows, c.nulls),
    };
    const TablePtr values = MakeTable(vals, "v");
    std::vector<AggRequest> aggs;
    for (int col = 0; col < 4; ++col) {
      for (AggKind kind : {AggKind::kSum, AggKind::kAvg, AggKind::kMin, AggKind::kMax,
                           AggKind::kCount, AggKind::kCountDistinct}) {
        aggs.push_back({kind, col, "a" + std::to_string(aggs.size())});
      }
    }
    for (AggKind kind : {AggKind::kMin, AggKind::kMax, AggKind::kCount,
                         AggKind::kCountDistinct}) {
      aggs.push_back({kind, 4, "a" + std::to_string(aggs.size())});
    }
    aggs.push_back({AggKind::kCountStar, -1, "star"});
    std::vector<std::string> names;
    for (size_t k = 0; k < keys.size(); ++k) names.push_back("k" + std::to_string(k));

    Result<TablePtr> got = Unset(), want = Unset();
    const Charged got_cost = Meter([&](const Context& ctx) {
      got = GroupByAggregate(ctx, keys, names, values, aggs);
    });
    const Charged want_cost = Meter([&](const Context& ctx) {
      want = reference::GroupByAggregate(ctx, keys, names, values, aggs);
    });
    ExpectSameTable(got, want, c.what + " group-by");
    EXPECT_TRUE(got_cost == want_cost) << c.what << " group-by";

    Result<std::vector<index_t>> got_d = Unset(), want_d = Unset();
    const Charged got_d_cost =
        Meter([&](const Context& ctx) { got_d = DistinctIndices(ctx, keys); });
    const Charged want_d_cost = Meter(
        [&](const Context& ctx) { want_d = reference::DistinctIndices(ctx, keys); });
    ASSERT_TRUE(got_d.ok() && want_d.ok()) << c.what;
    EXPECT_EQ(got_d.ValueOrDie(), want_d.ValueOrDie()) << c.what << " distinct";
    EXPECT_TRUE(got_d_cost == want_d_cost) << c.what << " distinct";

    std::vector<ColumnPtr> cols = keys;
    cols.push_back(vals[0]);
    const TablePtr table = MakeTable(cols, "c");
    std::vector<int> key_columns;
    for (size_t k = 0; k < keys.size(); ++k) key_columns.push_back(static_cast<int>(k));
    for (size_t parts : {1, 3, 4, 7}) {
      const std::string what = c.what + " partition " + std::to_string(parts);
      Result<std::vector<TablePtr>> got_p = Unset(), want_p = Unset();
      const Charged got_p_cost = Meter([&](const Context& ctx) {
        got_p = HashPartition(ctx, table, key_columns, parts);
      });
      const Charged want_p_cost = Meter([&](const Context& ctx) {
        want_p = reference::HashPartition(ctx, table, key_columns, parts);
      });
      ASSERT_TRUE(got_p.ok() && want_p.ok()) << what;
      ASSERT_EQ(got_p.ValueOrDie().size(), parts) << what;
      for (size_t p = 0; p < parts; ++p) {
        ExpectSameTable(got_p.ValueOrDie()[p], want_p.ValueOrDie()[p],
                        what + " part " + std::to_string(p));
      }
      EXPECT_TRUE(got_p_cost == want_p_cost) << what;
    }
    if (::testing::Test::HasFailure()) return;
  }
  // Both group-by paths ran: hash for numeric keys, sort for string keys.
  EXPECT_GT(string_cases, 10u);
  EXPECT_GT(numeric_cases, 10u);
}

TEST(KeyKernelPropertyTest, AsofJoinsMatchReference) {
  const DataType kOrderTypes[] = {format::Int64(), format::Int32(), format::Date32(),
                                  format::Decimal(2), format::Float64()};
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(seed);
    Case c = MakeCase(seed, rng);
    // By keys: none for a third of the cases, else the case's keys.
    if (seed % 3 == 0) c.types.clear();
    const size_t left_rows = c.rows;
    const size_t right_rows = Pick(rng, 3001);
    const DataType on_type = kOrderTypes[Pick(rng, 5)];
    const ColumnPtr left_on = RandomKey(rng, on_type, left_rows, 200, c.nulls);
    const ColumnPtr right_on = RandomKey(rng, on_type, right_rows, 200, c.nulls);
    const std::vector<ColumnPtr> left_by = RandomKeys(rng, c, left_rows);
    const std::vector<ColumnPtr> right_by = RandomKeys(rng, c, right_rows);
    const std::string what = c.what + " on " + on_type.ToString();
    Result<JoinResult> got = Unset(), want = Unset();
    const Charged got_cost = Meter([&](const Context& ctx) {
      got = AsofJoin(ctx, left_on, right_on, left_by, right_by);
    });
    const Charged want_cost = Meter([&](const Context& ctx) {
      want = reference::AsofJoin(ctx, left_on, right_on, left_by, right_by);
    });
    ExpectSameJoin(got, want, what);
    EXPECT_TRUE(got_cost == want_cost) << what;
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(KeyKernelTest, NanKeysInSortGroupByStayInBounds) {
  // With NaN float keys Compare is no strict weak order, which is the one
  // input where the string-key group-by's group sort may differ from a row
  // sort. It must still stay in bounds, and NaN never equals NaN, so each
  // NaN row forms its own group.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> f;
  std::vector<std::string> s;
  for (int i = 0; i < 200; ++i) {
    f.push_back(i % 3 == 0 ? nan : static_cast<double>(i % 5));
    s.push_back(i % 2 == 0 ? "a" : "b");
  }
  const ColumnPtr fk = Column::FromDouble(f);
  const ColumnPtr sk = Column::FromStrings(s);
  const TablePtr values = MakeTable({Column::FromInt64(std::vector<int64_t>(200, 1))}, "v");
  Context ctx;
  ctx.mr = mem::DefaultResource();
  auto out = GroupByAggregate(ctx, {sk, fk}, {"s", "f"}, values,
                              {{AggKind::kCountStar, -1, "n"}});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // 67 NaN rows, plus (s, f) pairs over i % 2 and i % 5 among the rest.
  std::set<std::pair<int, int>> pairs;
  for (int i = 0; i < 200; ++i) {
    if (i % 3 != 0) pairs.insert({i % 2, i % 5});
  }
  EXPECT_EQ(out.ValueOrDie()->num_rows(), 67 + pairs.size());
}

TEST(KeyKernelTest, MismatchedKeyTypesAreTypeErrors) {
  Context ctx;
  ctx.mr = mem::DefaultResource();
  const ColumnPtr i64 = Column::FromInt64({1, 2, 3});
  const ColumnPtr i32 = Column::FromInt32({1, 2});
  const ColumnPtr d2 = Column::FromDecimal({100, 200}, 2);
  const ColumnPtr d4 = Column::FromDecimal({10000, 20000}, 4);
  for (JoinType type : {JoinType::kInner, JoinType::kLeft, JoinType::kSemi,
                        JoinType::kAnti}) {
    JoinOptions options;
    options.type = type;
    for (const auto& [l, r] : std::vector<std::pair<ColumnPtr, ColumnPtr>>{
             {i64, i32}, {i32, i64}, {d2, d4}}) {
      auto joined = HashJoin(ctx, {l}, {r}, options);
      ASSERT_FALSE(joined.ok());
      EXPECT_EQ(joined.status().code(), StatusCode::kTypeError);
      EXPECT_NE(joined.status().message().find(l->type().ToString()), std::string::npos);
      EXPECT_NE(joined.status().message().find(r->type().ToString()), std::string::npos);
    }
    // A matching pair after a mismatched one is still refused.
    EXPECT_EQ(HashJoin(ctx, {i64, i64}, {i64, i32}, options).status().code(),
              StatusCode::kTypeError);
  }
  EXPECT_EQ(AsofJoin(ctx, i64, i32, {}, {}).status().code(), StatusCode::kTypeError);
  EXPECT_EQ(AsofJoin(ctx, i64, i64, {d2}, {d4}).status().code(),
            StatusCode::kTypeError);
  EXPECT_TRUE(AsofJoin(ctx, i64, i64, {i64}, {i64}).ok());
}

TEST(KeyKernelTest, KeysStoredAlikeJoinAcrossTypes) {
  // DATE32 is stored, hashed and compared as INT32, and DECIMAL64(0) as
  // INT64, so those pairs are not mismatched and join as the reference does.
  Context ctx;
  ctx.mr = mem::DefaultResource();
  const ColumnPtr i32 = Column::FromInt32({1, 2, 2, 7});
  const ColumnPtr days = Column::FromDate({2, 1, 5, 2});
  const ColumnPtr i64 = Column::FromInt64({3, 2, 1, 9});
  const ColumnPtr d0 = Column::FromDecimal({1, 3, 3, 4}, 0);
  for (JoinType type : {JoinType::kInner, JoinType::kLeft, JoinType::kSemi,
                        JoinType::kAnti}) {
    JoinOptions options;
    options.type = type;
    for (const auto& [l, r] : std::vector<std::pair<ColumnPtr, ColumnPtr>>{
             {i32, days}, {days, i32}, {i64, d0}, {d0, i64}}) {
      auto got = HashJoin(ctx, {l}, {r}, options);
      auto want = reference::HashJoin(ctx, {l}, {r}, options);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_TRUE(want.ok());
      EXPECT_FALSE(got.ValueOrDie().left_indices.empty());
      EXPECT_EQ(got.ValueOrDie().left_indices, want.ValueOrDie().left_indices);
      EXPECT_EQ(got.ValueOrDie().right_indices, want.ValueOrDie().right_indices);
    }
  }
  auto got = AsofJoin(ctx, i32, days, {i64}, {d0});
  auto want = reference::AsofJoin(ctx, i32, days, {i64}, {d0});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(got.ValueOrDie().left_indices, want.ValueOrDie().left_indices);
  EXPECT_EQ(got.ValueOrDie().right_indices, want.ValueOrDie().right_indices);
}

}  // namespace
}  // namespace sirius::gdf
