// Unit tests for the GDF kernel library (the libcudf-equivalent layer):
// row ops, copying, filter, joins, group-by, sort, partition.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <numeric>
#include <random>

#include "format/builder.h"
#include "gdf/copying.h"
#include "gdf/filter.h"
#include "gdf/groupby.h"
#include "gdf/join.h"
#include "gdf/partition.h"
#include "gdf/row_ops.h"
#include "gdf/sort.h"

namespace sirius::gdf {
namespace {

using format::Column;
using format::ColumnPtr;
using format::Schema;
using format::Table;
using format::TablePtr;

Context Ctx() {
  Context ctx;
  ctx.mr = mem::DefaultResource();
  return ctx;
}

TablePtr MakeTable(std::vector<format::Field> fields,
                   std::vector<ColumnPtr> cols) {
  return Table::Make(Schema(std::move(fields)), std::move(cols)).ValueOrDie();
}

// ---------------------------------------------------------------------------
// Row ops
// ---------------------------------------------------------------------------

TEST(RowOpsTest, HashIsConsistentAcrossTypes) {
  auto ints = Column::FromInt64({1, 2, 1});
  const std::vector<uint64_t> h = RowOps({ints}).HashAll();
  ASSERT_EQ(h.size(), 3u);
  EXPECT_EQ(h[0], h[2]);
  EXPECT_NE(h[0], h[1]);
}

TEST(RowOpsTest, MultiKeyHashCombinesInOrder) {
  auto a = Column::FromInt64({1, 2});
  auto b = Column::FromInt64({2, 1});
  const std::vector<uint64_t> h = RowOps({a, b}).HashAll();
  // (1,2) vs (2,1) must hash differently.
  EXPECT_NE(h[0], h[1]);
}

TEST(RowOpsTest, NullSemantics) {
  auto c = Column::FromInt64({1, 1}, {true, false});
  RowOps ops({c});
  EXPECT_FALSE(ops.AnyNull(0));
  EXPECT_TRUE(ops.AnyNull(1));
  // NULL == NULL under group-by semantics; a value never equals NULL.
  auto s = Column::FromStrings({"x", "x"}, {true, false});
  for (const RowOps& keys : {ops, RowOps({s}), RowOps({c, s})}) {
    WithRowEquality(keys, keys, [](const auto& eq) {
      EXPECT_TRUE(eq(0, 0));
      EXPECT_TRUE(eq(1, 1));
      EXPECT_FALSE(eq(0, 1));
      EXPECT_FALSE(eq(1, 0));
    });
  }
}

TEST(RowOpsTest, CompareOrdersNullsLast) {
  auto c = Column::FromInt64({5, 3, 0}, {true, true, false});
  RowOps ops({c});
  std::vector<bool> asc;
  EXPECT_GT(ops.Compare(0, 1, asc), 0);  // 5 > 3
  EXPECT_LT(ops.Compare(1, 0, asc), 0);
  EXPECT_GT(ops.Compare(2, 0, asc), 0);  // NULL last
  std::vector<bool> desc{true};
  EXPECT_LT(ops.Compare(0, 1, desc), 0);  // descending flips values...
  EXPECT_GT(ops.Compare(2, 0, desc), 0);  // ...but NULL stays last
}

TEST(RowOpsTest, ValueCompareStrings) {
  auto c = Column::FromStrings({"apple", "banana", "apple"});
  EXPECT_LT(ValueCompare(*c, 0, *c, 1), 0);
  EXPECT_GT(ValueCompare(*c, 1, *c, 0), 0);
  EXPECT_EQ(ValueCompare(*c, 0, *c, 2), 0);
}

TEST(RowOpsTest, ValueEqualsAcrossColumns) {
  auto a = Column::FromDecimal({100, 200}, 2);
  auto b = Column::FromDecimal({100, 300}, 2);
  EXPECT_TRUE(ValueEquals(*a, 0, *b, 0, false));
  EXPECT_FALSE(ValueEquals(*a, 1, *b, 1, false));
}

// ---------------------------------------------------------------------------
// Copying kernels
// ---------------------------------------------------------------------------

TEST(GatherTest, FixedWidthAndStrings) {
  auto t = MakeTable({{"i", format::Int64()}, {"s", format::String()}},
                     {Column::FromInt64({10, 20, 30}),
                      Column::FromStrings({"a", "bb", "ccc"})});
  auto ctx = Ctx();
  auto out = GatherTable(ctx, t, {2, 0, 2}).ValueOrDie();
  EXPECT_EQ(out->num_rows(), 3u);
  EXPECT_EQ(out->column(0)->data<int64_t>()[0], 30);
  EXPECT_EQ(out->column(0)->data<int64_t>()[1], 10);
  EXPECT_EQ(out->column(1)->StringAt(0), "ccc");
  EXPECT_EQ(out->column(1)->StringAt(2), "ccc");
}

TEST(GatherTest, OutOfBoundsRejected) {
  auto c = Column::FromInt64({1, 2});
  auto ctx = Ctx();
  EXPECT_FALSE(GatherColumnUncharged(ctx, c, {0, 5}).ok());
  EXPECT_FALSE(GatherColumnUncharged(ctx, c, {-1}).ok());
}

TEST(GatherTest, NegativeIndexProducesNull) {
  auto c = Column::FromInt64({1, 2});
  auto ctx = Ctx();
  auto out = GatherColumnUncharged(ctx, c, {1, -1, 0}, /*nulls_for_negative=*/true)
                 .ValueOrDie();
  EXPECT_FALSE(out->IsNull(0));
  EXPECT_TRUE(out->IsNull(1));
  EXPECT_EQ(out->data<int64_t>()[0], 2);
  EXPECT_EQ(out->null_count(), 1u);
}

TEST(GatherTest, PropagatesSourceNulls) {
  auto c = Column::FromInt64({1, 2, 3}, {true, false, true});
  auto ctx = Ctx();
  auto out = GatherColumnUncharged(ctx, c, {1, 2}).ValueOrDie();
  EXPECT_TRUE(out->IsNull(0));
  EXPECT_FALSE(out->IsNull(1));
}

TEST(GatherTest, ChargesCostModel) {
  sim::Timeline t;
  Context ctx = Ctx();
  ctx.sim.device = sim::Gh200Gpu();
  ctx.sim.timeline = &t;
  auto table =
      MakeTable({{"i", format::Int64()}}, {Column::FromInt64({1, 2, 3, 4})});
  (void)GatherTable(ctx, table, {0, 1, 2, 3}).ValueOrDie();
  EXPECT_GT(t.total_seconds(), 0.0);
}

TEST(ConcatTest, StacksTables) {
  auto t1 = MakeTable({{"i", format::Int64()}}, {Column::FromInt64({1, 2})});
  auto t2 = MakeTable({{"i", format::Int64()}}, {Column::FromInt64({3})});
  auto ctx = Ctx();
  auto out = ConcatTables(ctx, {t1, t2}).ValueOrDie();
  EXPECT_EQ(out->num_rows(), 3u);
  EXPECT_EQ(out->column(0)->data<int64_t>()[2], 3);
}

TEST(ConcatTest, SchemaMismatchRejected) {
  auto t1 = MakeTable({{"i", format::Int64()}}, {Column::FromInt64({1})});
  auto t2 = MakeTable({{"s", format::String()}}, {Column::FromStrings({"x"})});
  auto ctx = Ctx();
  EXPECT_FALSE(ConcatTables(ctx, {t1, t2}).ok());
}

/// Every buffer of `got` equals `want`'s byte for byte, list children too.
void ExpectSameBytes(const Column& got, const Column& want,
                     const std::string& what) {
  ASSERT_EQ(got.type(), want.type()) << what;
  ASSERT_EQ(got.length(), want.length()) << what;
  ASSERT_EQ(got.null_count(), want.null_count()) << what;
  ASSERT_EQ(got.MemoryUsage(), want.MemoryUsage()) << what;
  ASSERT_EQ(got.data_size(), want.data_size()) << what;
  ASSERT_EQ(got.chars_size(), want.chars_size()) << what;
  ASSERT_EQ(got.validity() == nullptr, want.validity() == nullptr) << what;
  if (want.validity() != nullptr) {
    EXPECT_EQ(std::memcmp(got.validity(), want.validity(),
                          bit::BytesForBits(want.length())),
              0)
        << what;
  }
  if (want.data_size() > 0) {
    EXPECT_EQ(std::memcmp(got.data<uint8_t>(), want.data<uint8_t>(),
                          want.data_size()),
              0)
        << what;
  }
  if (want.chars_size() > 0) {
    EXPECT_EQ(std::memcmp(got.chars(), want.chars(), want.chars_size()), 0)
        << what;
  }
  ASSERT_EQ(got.list_child() == nullptr, want.list_child() == nullptr) << what;
  if (want.list_child() != nullptr) {
    ExpectSameBytes(*got.list_child(), *want.list_child(), what + " child");
  }
}

TEST(SliceTest, OffsetAndClamping) {
  auto t = MakeTable({{"i", format::Int64()}},
                     {Column::FromInt64({1, 2, 3, 4, 5})});
  auto ctx = Ctx();
  auto out = SliceTable(ctx, t, {0}, 1, 2).ValueOrDie();
  EXPECT_EQ(out->num_rows(), 2u);
  EXPECT_EQ(out->column(0)->data<int64_t>()[0], 2);
  // Length clamps at the end; offset past the end yields zero rows.
  EXPECT_EQ(SliceTable(ctx, t, {0}, 3, 100).ValueOrDie()->num_rows(), 2u);
  EXPECT_EQ(SliceTable(ctx, t, {0}, 9, 1).ValueOrDie()->num_rows(), 0u);
  // A column the table does not have is an error, as in SelectColumns.
  EXPECT_EQ(SliceTable(ctx, t, {1}, 0, 1).status().code(),
            StatusCode::kIndexError);
}

/// A column of `type` with `rows` random rows. NULL slots keep non-zero
/// values and non-empty chars, BOOL bytes range over 0..255, and strings and
/// lists include empty ones: the raw bytes a slice must carry over as is.
ColumnPtr RandomColumn(std::mt19937_64& rng, const format::DataType& type,
                       size_t rows, bool nulls) {
  std::vector<bool> valid(rows, true);
  if (nulls) {
    for (size_t i = 0; i < rows; ++i) valid[i] = rng() % 4 != 0;
  }
  size_t null_count = 0;
  mem::Buffer validity = format::ValidityFromBools(valid, &null_count);
  if (type.is_string() || type.is_list()) {
    mem::Buffer offsets =
        mem::Buffer::Allocate((rows + 1) * sizeof(int64_t)).ValueOrDie();
    int64_t* off = offsets.data_as<int64_t>();
    off[0] = 0;
    for (size_t i = 0; i < rows; ++i) {
      off[i + 1] = off[i] + static_cast<int64_t>(rng() % 6);
    }
    const size_t elems = static_cast<size_t>(off[rows]);
    if (type.is_list()) {
      ColumnPtr child = RandomColumn(rng, format::Float64(), elems, nulls);
      return Column::MakeList(std::move(offsets), std::move(child), rows,
                              std::move(validity), null_count);
    }
    mem::Buffer chars = mem::Buffer::Allocate(elems).ValueOrDie();
    for (size_t i = 0; i < elems; ++i) {
      chars.data()[i] = static_cast<uint8_t>('a' + rng() % 26);
    }
    return Column::MakeString(std::move(offsets), std::move(chars), rows,
                              std::move(validity), null_count);
  }
  mem::Buffer data =
      mem::Buffer::Allocate(rows * static_cast<size_t>(type.byte_width()))
          .ValueOrDie();
  for (size_t i = 0; i < data.size(); ++i) {
    data.data()[i] = static_cast<uint8_t>(rng());
  }
  return Column::MakeFixed(type, std::move(data), rows, std::move(validity),
                           null_count);
}

/// One column of every type, LIST<FLOAT64> included.
Schema AllTypes() {
  return Schema({{"b", format::Bool()},
                 {"i", format::Int32()},
                 {"dt", format::Date32()},
                 {"l", format::Int64()},
                 {"d", format::Decimal(2)},
                 {"f", format::Float64()},
                 {"s", format::String()},
                 {"v", format::List(format::Float64())}});
}

/// A table of AllTypes() with a RandomColumn per field.
TablePtr RandomTable(std::mt19937_64& rng, size_t rows, bool nulls) {
  Schema schema = AllTypes();
  std::vector<ColumnPtr> cols;
  for (const auto& f : schema.fields()) {
    cols.push_back(RandomColumn(rng, f.type, rows, nulls));
  }
  return Table::Make(std::move(schema), std::move(cols)).ValueOrDie();
}

TEST(SliceTest, ContiguousCopyMatchesIndexGather) {
  // The oracle is the identity-range gather of the selected columns. The
  // charge must be what that gather charges for the whole table.
  const int num_fields = static_cast<int>(AllTypes().num_fields());
  std::mt19937_64 rng(20);
  for (int round = 0; round < 60; ++round) {
    const size_t rows = round % 10 == 0 ? 0 : rng() % 70;
    const bool nulls = round % 2 == 1;
    const TablePtr t = RandomTable(rng, rows, nulls);

    // Column subsets in any order with repeats, plus none and all.
    std::vector<std::vector<int>> subsets = {{}, t->ColumnIndices()};
    for (int k = 0; k < 3; ++k) {
      std::vector<int> subset(1 + rng() % 10);
      for (int& c : subset) c = static_cast<int>(rng() % num_fields);
      subsets.push_back(std::move(subset));
    }
    // Offsets off byte boundaries, zero-length, clamped and past-the-end.
    const std::vector<std::pair<size_t, size_t>> ranges = {
        {0, rows},
        {0, 0},
        {rows == 0 ? 0 : rng() % rows, rng() % 40},
        {rows == 0 ? 0 : 1 + rng() % rows, 1000},
        {rows, 3},
        {rows + 1 + rng() % 9, rng() % 5},
    };
    for (const auto& columns : subsets) {
      const TablePtr selected = t->SelectColumns(columns).ValueOrDie();
      for (const auto& [offset, length] : ranges) {
        const std::string what = "round " + std::to_string(round) +
                                 " offset " + std::to_string(offset) +
                                 " length " + std::to_string(length);
        sim::Timeline got_time;
        sim::KernelStats got_kernels;
        Context ctx = Ctx();
        ctx.sim.timeline = &got_time;
        ctx.sim.kernel_stats = &got_kernels;
        const TablePtr got =
            SliceTable(ctx, t, columns, offset, length).ValueOrDie();

        const size_t start = std::min(offset, rows);
        std::vector<index_t> identity(std::min(length, rows - start));
        std::iota(identity.begin(), identity.end(),
                  static_cast<index_t>(start));
        const TablePtr want =
            GatherTable(Ctx(), selected, identity, sim::OpCategory::kOther)
                .ValueOrDie();
        ASSERT_TRUE(got->schema().Equals(want->schema())) << what;
        ASSERT_EQ(got->num_rows(), want->num_rows()) << what;
        ASSERT_EQ(got->MemoryUsage(), want->MemoryUsage()) << what;
        for (size_t c = 0; c < want->num_columns(); ++c) {
          ExpectSameBytes(*got->column(c), *want->column(c),
                          what + " column " + want->schema().field(c).name);
        }

        sim::Timeline want_time;
        sim::KernelStats want_kernels;
        Context gctx = Ctx();
        gctx.sim.timeline = &want_time;
        gctx.sim.kernel_stats = &want_kernels;
        (void)GatherTable(gctx, t, identity, sim::OpCategory::kOther);
        EXPECT_EQ(got_time.total_seconds(), want_time.total_seconds()) << what;
        EXPECT_EQ(got_time.breakdown(), want_time.breakdown()) << what;
        EXPECT_EQ(got_kernels.launches, want_kernels.launches) << what;
        EXPECT_EQ(got_kernels.seq_bytes, want_kernels.seq_bytes) << what;
        EXPECT_EQ(got_kernels.rand_bytes, want_kernels.rand_bytes) << what;
      }
    }
  }
}

TEST(ConcatTest, CopiesEachInputAsItIs) {
  // Slicing each input's rows back out of the result gives that input byte
  // for byte: NULL slots keep their values and chars, BOOL bytes stay 0-255,
  // empty strings and lists and empty inputs pass. The values are those a
  // ColumnBuilder makes of the boxed rows, compared as the builder's bytes
  // because random FLOAT64 bytes include NaNs, which Column::Equals never
  // equates.
  const Schema schema = AllTypes();
  auto boxed = [](const format::DataType& type,
                  const std::vector<ColumnPtr>& cols) {
    format::ColumnBuilder b(type);
    for (const ColumnPtr& col : cols) {
      for (size_t i = 0; i < col->length(); ++i) {
        SIRIUS_CHECK_OK(b.AppendScalar(col->GetScalar(i)));
      }
    }
    return b.Finish();
  };
  std::mt19937_64 rng(21);
  for (int round = 0; round < 40; ++round) {
    std::vector<TablePtr> tables(1 + rng() % 4);
    for (TablePtr& t : tables) {
      const size_t rows = rng() % 3 == 0 ? 0 : rng() % 50;
      t = RandomTable(rng, rows, rng() % 2 == 1);
    }
    const TablePtr got = ConcatTables(Ctx(), tables).ValueOrDie();
    size_t offset = 0;
    for (size_t k = 0; k < tables.size(); ++k) {
      const TablePtr part = SliceTable(Ctx(), got, got->ColumnIndices(), offset,
                                       tables[k]->num_rows())
                                .ValueOrDie();
      ASSERT_EQ(part->num_rows(), tables[k]->num_rows());
      for (size_t c = 0; c < schema.num_fields(); ++c) {
        ExpectSameBytes(*part->column(c), *tables[k]->column(c),
                        "round " + std::to_string(round) + " input " +
                            std::to_string(k) + " column " +
                            schema.field(c).name);
      }
      offset += tables[k]->num_rows();
    }
    ASSERT_EQ(got->num_rows(), offset);

    for (size_t c = 0; c < schema.num_fields(); ++c) {
      const format::DataType& type = schema.field(c).type;
      if (type.is_list()) continue;  // a list boxes as its rendering
      std::vector<ColumnPtr> inputs;
      for (const TablePtr& t : tables) inputs.push_back(t->column(c));
      ExpectSameBytes(*boxed(type, {got->column(c)}), *boxed(type, inputs),
                      "round " + std::to_string(round) + " values of " +
                          schema.field(c).name);
    }
  }
}

/// Bytes a SystemMemoryResource holds for `col`'s buffers: each buffer's
/// size rounded up to its 64-byte alignment, list children included.
size_t HeldBytes(const Column& col) {
  auto held = [](size_t bytes) { return (bytes + 63) / 64 * 64; };
  const ColumnPtr& child = col.list_child();
  const size_t child_bytes = child == nullptr ? 0 : child->MemoryUsage();
  const size_t validity =
      col.MemoryUsage() - col.data_size() - col.chars_size() - child_bytes;
  return held(col.data_size()) + held(col.chars_size()) + held(validity) +
         (child == nullptr ? 0 : HeldBytes(*child));
}

/// Each copying kernel over the same nullable input, LIST included: a
/// gather that also makes NULLs from negative indices, a slice, and a
/// concat of the input with a slice of itself.
std::vector<std::pair<std::string, std::function<Result<TablePtr>(const Context&)>>>
CopyKernels(const TablePtr& t) {
  return {
      {"gather",
       [t](const Context& ctx) {
         return GatherTable(ctx, t, {3, -1, 0, 5, 5, -1, 7},
                            sim::OpCategory::kProject,
                            /*nulls_for_negative=*/true);
       }},
      {"slice",
       [t](const Context& ctx) {
         return SliceTable(ctx, t, t->ColumnIndices(), 3, 9);
       }},
      {"concat",
       [t](const Context& ctx) {
         const TablePtr tail =
             SliceTable(Ctx(), t, t->ColumnIndices(), 5, 4).ValueOrDie();
         return ConcatTables(ctx, {t, tail});
       }},
  };
}

TEST(CopyMemoryTest, OutputsComeOnlyFromCtxMr) {
  std::mt19937_64 rng(22);
  const TablePtr t = RandomTable(rng, 12, /*nulls=*/true);
  mem::SystemMemoryResource mr("copy-out");
  Context ctx = Ctx();
  ctx.mr = &mr;
  for (const auto& [name, kernel] : CopyKernels(t)) {
    {
      const TablePtr out = kernel(ctx).ValueOrDie();
      size_t want = 0;
      for (const ColumnPtr& col : out->columns()) want += HeldBytes(*col);
      EXPECT_EQ(mr.bytes_allocated(), want) << name;
    }
    EXPECT_EQ(mr.bytes_allocated(), 0u) << name;
  }
}

TEST(CopyMemoryTest, RefusedAllocationIsOutOfMemory) {
  std::mt19937_64 rng(23);
  const TablePtr t = RandomTable(rng, 12, /*nulls=*/true);
  mem::SystemMemoryResource mr("copy-out");
  for (const auto& [name, kernel] : CopyKernels(t)) {
    mem::PressureMemoryResource counting(&mr, /*fail_every_nth=*/0);
    Context ctx = Ctx();
    ctx.mr = &counting;
    ASSERT_TRUE(kernel(ctx).ok()) << name;
    const size_t requests = counting.num_requests();
    ASSERT_GT(requests, 0u) << name;
    for (size_t k = 0; k < requests; ++k) {
      // Requests 0..k-1 pass, request k and every later one is refused.
      mem::PressureMemoryResource refusing(&mr, /*fail_every_nth=*/1,
                                           /*skip_first=*/k);
      ctx.mr = &refusing;
      const auto r = kernel(ctx);
      EXPECT_TRUE(r.status().IsOutOfMemory())
          << name << " refusing request " << k << ": " << r.status().ToString();
      EXPECT_EQ(mr.bytes_allocated(), 0u) << name << " request " << k;
    }
  }
}

TEST(GatherTest, TableIndexRuleMatchesColumnRule) {
  // Each index is in [0, rows), or negative only with nulls_for_negative.
  auto t = MakeTable({{"i", format::Int64()}, {"s", format::String()}},
                     {Column::FromInt64({1, 2, 3, 4}),
                      Column::FromStrings({"a", "bb", "", "dddd"})});
  auto ctx = Ctx();
  EXPECT_EQ(GatherTable(ctx, t, {0, 9}).status().code(), StatusCode::kIndexError);
  EXPECT_EQ(GatherTable(ctx, t, {0, 4}).status().code(), StatusCode::kIndexError);
  EXPECT_EQ(GatherTable(ctx, t, {2, -1}).status().code(), StatusCode::kIndexError);
  EXPECT_EQ(GatherTable(ctx, t, {0, -1}, sim::OpCategory::kProject,
                        /*nulls_for_negative=*/true)
                .ValueOrDie()
                ->column(1)
                ->null_count(),
            1u);
}

// ---------------------------------------------------------------------------
// Filter
// ---------------------------------------------------------------------------

TEST(FilterTest, MaskSelectsTrueRows) {
  auto t = MakeTable({{"i", format::Int64()}},
                     {Column::FromInt64({10, 20, 30, 40})});
  auto mask = Column::FromBool({true, false, true, false});
  auto ctx = Ctx();
  auto out = ApplyBooleanMask(ctx, t, mask).ValueOrDie();
  EXPECT_EQ(out->num_rows(), 2u);
  EXPECT_EQ(out->column(0)->data<int64_t>()[1], 30);
}

TEST(FilterTest, NullMaskEntriesAreFalse) {
  auto t = MakeTable({{"i", format::Int64()}}, {Column::FromInt64({1, 2, 3})});
  format::ColumnBuilder b(format::Bool());
  b.AppendBool(true);
  b.AppendNull();
  b.AppendBool(true);
  auto ctx = Ctx();
  auto out = ApplyBooleanMask(ctx, t, b.Finish()).ValueOrDie();
  EXPECT_EQ(out->num_rows(), 2u);
}

TEST(FilterTest, TypeAndLengthChecked) {
  auto t = MakeTable({{"i", format::Int64()}}, {Column::FromInt64({1})});
  auto ctx = Ctx();
  EXPECT_FALSE(ApplyBooleanMask(ctx, t, Column::FromInt64({1})).ok());
  EXPECT_FALSE(ApplyBooleanMask(ctx, t, Column::FromBool({true, false})).ok());
}

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

TEST(JoinTest, InnerWithDuplicates) {
  auto left = Column::FromInt64({1, 2, 2, 3});
  auto right = Column::FromInt64({2, 2, 4});
  auto ctx = Ctx();
  JoinOptions options;
  auto r = HashJoin(ctx, {left}, {right}, options).ValueOrDie();
  // left rows 1 and 2 each match both right rows 0 and 1 -> 4 pairs.
  EXPECT_EQ(r.left_indices.size(), 4u);
  for (size_t i = 0; i < r.left_indices.size(); ++i) {
    EXPECT_EQ(left->data<int64_t>()[r.left_indices[i]],
              right->data<int64_t>()[r.right_indices[i]]);
  }
}

TEST(JoinTest, NullKeysNeverMatch) {
  auto left = Column::FromInt64({1, 2}, {true, false});
  auto right = Column::FromInt64({1, 2}, {true, false});
  auto ctx = Ctx();
  JoinOptions options;
  auto r = HashJoin(ctx, {left}, {right}, options).ValueOrDie();
  ASSERT_EQ(r.left_indices.size(), 1u);
  EXPECT_EQ(r.left_indices[0], 0);
  EXPECT_EQ(r.right_indices[0], 0);
}

TEST(JoinTest, LeftOuterEmitsUnmatched) {
  auto left = Column::FromInt64({1, 5});
  auto right = Column::FromInt64({1});
  auto ctx = Ctx();
  JoinOptions options;
  options.type = JoinType::kLeft;
  auto r = HashJoin(ctx, {left}, {right}, options).ValueOrDie();
  ASSERT_EQ(r.left_indices.size(), 2u);
  bool saw_unmatched = false;
  for (size_t i = 0; i < r.left_indices.size(); ++i) {
    if (r.right_indices[i] < 0) {
      saw_unmatched = true;
      EXPECT_EQ(left->data<int64_t>()[r.left_indices[i]], 5);
    }
  }
  EXPECT_TRUE(saw_unmatched);
}

TEST(JoinTest, SemiEmitsEachLeftRowOnce) {
  auto left = Column::FromInt64({1, 2, 3});
  auto right = Column::FromInt64({2, 2, 2, 3});
  auto ctx = Ctx();
  JoinOptions options;
  options.type = JoinType::kSemi;
  auto r = HashJoin(ctx, {left}, {right}, options).ValueOrDie();
  EXPECT_EQ(r.left_indices, (std::vector<index_t>{1, 2}));
  EXPECT_TRUE(r.right_indices.empty());
}

TEST(JoinTest, AntiEmitsNonMatching) {
  auto left = Column::FromInt64({1, 2, 3});
  auto right = Column::FromInt64({2});
  auto ctx = Ctx();
  JoinOptions options;
  options.type = JoinType::kAnti;
  auto r = HashJoin(ctx, {left}, {right}, options).ValueOrDie();
  EXPECT_EQ(r.left_indices, (std::vector<index_t>{0, 2}));
}

TEST(JoinTest, AntiKeepsNullKeyRows) {
  // NOT EXISTS semantics: a NULL key never matches, so the row survives.
  auto left = Column::FromInt64({1, 0}, {true, false});
  auto right = Column::FromInt64({1});
  auto ctx = Ctx();
  JoinOptions options;
  options.type = JoinType::kAnti;
  auto r = HashJoin(ctx, {left}, {right}, options).ValueOrDie();
  EXPECT_EQ(r.left_indices, (std::vector<index_t>{1}));
}

TEST(JoinTest, MultiKeyJoin) {
  auto l1 = Column::FromInt64({1, 1, 2});
  auto l2 = Column::FromInt64({10, 20, 10});
  auto r1 = Column::FromInt64({1, 2});
  auto r2 = Column::FromInt64({20, 10});
  auto ctx = Ctx();
  JoinOptions options;
  auto r = HashJoin(ctx, {l1, l2}, {r1, r2}, options).ValueOrDie();
  ASSERT_EQ(r.left_indices.size(), 2u);  // (1,20) and (2,10)
}

TEST(JoinTest, StringKeys) {
  auto left = Column::FromStrings({"x", "y", "z"});
  auto right = Column::FromStrings({"y", "q"});
  auto ctx = Ctx();
  JoinOptions options;
  auto r = HashJoin(ctx, {left}, {right}, options).ValueOrDie();
  ASSERT_EQ(r.left_indices.size(), 1u);
  EXPECT_EQ(r.left_indices[0], 1);
}

TEST(JoinTest, ResidualPredicateFiltersPairs) {
  // Q21 pattern: equi-join on key with l.v <> r.v residual.
  auto lk = Column::FromInt64({1, 1});
  auto lv = Column::FromInt64({7, 8});
  auto rk = Column::FromInt64({1});
  auto rv = Column::FromInt64({7});
  auto left = MakeTable({{"k", format::Int64()}, {"v", format::Int64()}}, {lk, lv});
  auto right = MakeTable({{"k", format::Int64()}, {"v", format::Int64()}}, {rk, rv});
  // residual over combined schema: left.v (#1) <> right.v (#3)
  auto residual = expr::Ne(expr::ColIdx(1, format::Int64()),
                           expr::ColIdx(3, format::Int64()));
  format::Schema combined({{"k", format::Int64()},
                           {"v", format::Int64()},
                           {"k2", format::Int64()},
                           {"v2", format::Int64()}});
  SIRIUS_CHECK_OK(expr::Bind(residual, combined));
  auto ctx = Ctx();
  JoinOptions options;
  options.residual = residual.get();
  options.left_table = left;
  options.right_table = right;
  auto inner = HashJoin(ctx, {lk}, {rk}, options).ValueOrDie();
  ASSERT_EQ(inner.left_indices.size(), 1u);
  EXPECT_EQ(inner.left_indices[0], 1);  // only v=8 survives <>7

  options.type = JoinType::kAnti;
  auto anti = HashJoin(ctx, {lk}, {rk}, options).ValueOrDie();
  EXPECT_EQ(anti.left_indices, (std::vector<index_t>{0}));  // v=7 fails residual
}

TEST(JoinTest, CrossJoinAllPairs) {
  auto ctx = Ctx();
  auto r = CrossJoin(ctx, 2, 3).ValueOrDie();
  EXPECT_EQ(r.left_indices.size(), 6u);
  EXPECT_EQ(r.left_indices[0], 0);
  EXPECT_EQ(r.right_indices[5], 2);
}

TEST(JoinTest, EmptyInputs) {
  auto left = Column::FromInt64({});
  auto right = Column::FromInt64({1, 2});
  auto ctx = Ctx();
  JoinOptions options;
  auto r = HashJoin(ctx, {left}, {right}, options).ValueOrDie();
  EXPECT_TRUE(r.left_indices.empty());
  auto r2 = HashJoin(ctx, {right}, {left}, options).ValueOrDie();
  EXPECT_TRUE(r2.left_indices.empty());
}

TEST(JoinTest, KeyCountMismatchRejected) {
  auto a = Column::FromInt64({1});
  auto ctx = Ctx();
  JoinOptions options;
  EXPECT_FALSE(HashJoin(ctx, {a, a}, {a}, options).ok());
  EXPECT_FALSE(HashJoin(ctx, {}, {}, options).ok());
}

// ---------------------------------------------------------------------------
// Group-by
// ---------------------------------------------------------------------------

TablePtr ValuesTable() {
  return MakeTable(
      {{"v", format::Int64()}, {"d", format::Decimal(2)}},
      {Column::FromInt64({1, 2, 3, 4, 5}),
       Column::FromDecimal({100, 200, 300, 400, 500}, 2)});
}

TEST(GroupByTest, SumCountMinMaxAvg) {
  auto keys = Column::FromInt64({1, 1, 2, 2, 2});
  auto values = ValuesTable();
  auto ctx = Ctx();
  std::vector<AggRequest> aggs{{AggKind::kSum, 0, "s"},
                               {AggKind::kCountStar, -1, "c"},
                               {AggKind::kMin, 0, "mn"},
                               {AggKind::kMax, 0, "mx"},
                               {AggKind::kAvg, 0, "a"}};
  auto out = GroupByAggregate(ctx, {keys}, {"k"}, values, aggs).ValueOrDie();
  ASSERT_EQ(out->num_rows(), 2u);
  // Group 1: rows {1,2}; group 2: rows {3,4,5} (first-seen order).
  EXPECT_EQ(out->ColumnByName("s")->data<int64_t>()[0], 3);
  EXPECT_EQ(out->ColumnByName("s")->data<int64_t>()[1], 12);
  EXPECT_EQ(out->ColumnByName("c")->data<int64_t>()[1], 3);
  EXPECT_EQ(out->ColumnByName("mn")->data<int64_t>()[1], 3);
  EXPECT_EQ(out->ColumnByName("mx")->data<int64_t>()[1], 5);
  EXPECT_DOUBLE_EQ(out->ColumnByName("a")->data<double>()[1], 4.0);
}

TEST(GroupByTest, DecimalSumKeepsScale) {
  auto keys = Column::FromInt64({1, 1, 2, 2, 2});
  auto values = ValuesTable();
  auto ctx = Ctx();
  std::vector<AggRequest> aggs{{AggKind::kSum, 1, "s"}};
  auto out = GroupByAggregate(ctx, {keys}, {"k"}, values, aggs);
  ASSERT_TRUE(out.ok());
  auto t = out.ValueOrDie();
  EXPECT_EQ(t->ColumnByName("s")->type(), format::Decimal(2));
  EXPECT_EQ(t->ColumnByName("s")->data<int64_t>()[0], 300);   // 1.00+2.00
  EXPECT_EQ(t->ColumnByName("s")->data<int64_t>()[1], 1200);  // 3+4+5
}

TEST(GroupByTest, CountSkipsNulls) {
  auto keys = Column::FromInt64({1, 1, 1});
  auto vals = MakeTable({{"v", format::Int64()}},
                        {Column::FromInt64({1, 2, 3}, {true, false, true})});
  auto ctx = Ctx();
  std::vector<AggRequest> aggs{{AggKind::kCount, 0, "c"},
                               {AggKind::kCountStar, -1, "cs"},
                               {AggKind::kSum, 0, "s"}};
  auto out = GroupByAggregate(ctx, {keys}, {"k"}, vals, aggs).ValueOrDie();
  EXPECT_EQ(out->ColumnByName("c")->data<int64_t>()[0], 2);
  EXPECT_EQ(out->ColumnByName("cs")->data<int64_t>()[0], 3);
  EXPECT_EQ(out->ColumnByName("s")->data<int64_t>()[0], 4);  // nulls skipped
}

TEST(GroupByTest, NullKeysFormTheirOwnGroup) {
  auto keys = Column::FromInt64({1, 0, 0}, {true, false, false});
  auto vals = MakeTable({{"v", format::Int64()}}, {Column::FromInt64({1, 2, 3})});
  auto ctx = Ctx();
  std::vector<AggRequest> aggs{{AggKind::kSum, 0, "s"}};
  auto out = GroupByAggregate(ctx, {keys}, {"k"}, vals, aggs).ValueOrDie();
  ASSERT_EQ(out->num_rows(), 2u);  // group {1} and group {NULL, NULL}
}

TEST(GroupByTest, StringKeysUseSortPathSameResults) {
  auto keys = Column::FromStrings({"b", "a", "b", "a"});
  auto vals = MakeTable({{"v", format::Int64()}},
                        {Column::FromInt64({1, 2, 3, 4})});
  auto ctx = Ctx();
  std::vector<AggRequest> aggs{{AggKind::kSum, 0, "s"}};
  auto out = GroupByAggregate(ctx, {keys}, {"k"}, vals, aggs).ValueOrDie();
  ASSERT_EQ(out->num_rows(), 2u);
  // Sort path: groups come out in key order (a before b).
  EXPECT_EQ(out->ColumnByName("k")->StringAt(0), "a");
  EXPECT_EQ(out->ColumnByName("s")->data<int64_t>()[0], 6);
  EXPECT_EQ(out->ColumnByName("s")->data<int64_t>()[1], 4);
}

TEST(GroupByTest, StringSortPathCostsMoreThanHash) {
  const size_t n = 4096;
  format::ColumnBuilder sb(format::String());
  format::ColumnBuilder ib(format::Int64());
  format::ColumnBuilder vb(format::Int64());
  for (size_t i = 0; i < n; ++i) {
    sb.AppendString("k" + std::to_string(i % 64));
    ib.AppendInt(static_cast<int64_t>(i % 64));
    vb.AppendInt(1);
  }
  auto vals = MakeTable({{"v", format::Int64()}}, {vb.Finish()});
  std::vector<AggRequest> aggs{{AggKind::kSum, 0, "s"}};

  sim::Timeline t_str, t_int;
  Context cs = Ctx(), ci = Ctx();
  cs.sim.device = sim::Gh200Gpu();
  cs.sim.timeline = &t_str;
  ci.sim.device = sim::Gh200Gpu();
  ci.sim.timeline = &t_int;
  (void)GroupByAggregate(cs, {sb.Finish()}, {"k"}, vals, aggs).ValueOrDie();
  (void)GroupByAggregate(ci, {ib.Finish()}, {"k"}, vals, aggs).ValueOrDie();
  EXPECT_GT(t_str.seconds(sim::OpCategory::kGroupBy),
            t_int.seconds(sim::OpCategory::kGroupBy));
}

TEST(GroupByTest, CountDistinctIntAndString) {
  auto keys = Column::FromInt64({1, 1, 1, 2});
  auto vals = MakeTable({{"i", format::Int64()}, {"s", format::String()}},
                        {Column::FromInt64({5, 5, 7, 5}),
                         Column::FromStrings({"x", "x", "y", "x"})});
  auto ctx = Ctx();
  std::vector<AggRequest> aggs{{AggKind::kCountDistinct, 0, "di"},
                               {AggKind::kCountDistinct, 1, "ds"}};
  auto out = GroupByAggregate(ctx, {keys}, {"k"}, vals, aggs).ValueOrDie();
  EXPECT_EQ(out->ColumnByName("di")->data<int64_t>()[0], 2);
  EXPECT_EQ(out->ColumnByName("ds")->data<int64_t>()[0], 2);
  EXPECT_EQ(out->ColumnByName("di")->data<int64_t>()[1], 1);
}

TEST(GroupByTest, GlobalAggregateAlwaysOneRow) {
  auto vals = MakeTable({{"v", format::Int64()}}, {Column::FromInt64({1, 2, 3})});
  auto ctx = Ctx();
  std::vector<AggRequest> aggs{{AggKind::kSum, 0, "s"}};
  auto out = GroupByAggregate(ctx, {}, {}, vals, aggs).ValueOrDie();
  ASSERT_EQ(out->num_rows(), 1u);
  EXPECT_EQ(out->column(0)->data<int64_t>()[0], 6);

  // Empty input: one row, NULL sum, 0 counts (SQL semantics).
  auto empty = MakeTable({{"v", format::Int64()}}, {Column::FromInt64({})});
  std::vector<AggRequest> aggs2{{AggKind::kSum, 0, "s"},
                                {AggKind::kCountStar, -1, "c"}};
  auto out2 = GroupByAggregate(ctx, {}, {}, empty, aggs2).ValueOrDie();
  ASSERT_EQ(out2->num_rows(), 1u);
  EXPECT_TRUE(out2->column(0)->IsNull(0));
  EXPECT_EQ(out2->column(1)->data<int64_t>()[0], 0);
}

TEST(GroupByTest, GroupedEmptyInputYieldsNoRows) {
  auto keys = Column::FromInt64({});
  auto vals = MakeTable({{"v", format::Int64()}}, {Column::FromInt64({})});
  auto ctx = Ctx();
  std::vector<AggRequest> aggs{{AggKind::kSum, 0, "s"}};
  auto out = GroupByAggregate(ctx, {keys}, {"k"}, vals, aggs).ValueOrDie();
  EXPECT_EQ(out->num_rows(), 0u);
}

TEST(GroupByTest, FewGroupsContentionOnlyOnGpu) {
  const size_t n = 100000;
  format::ColumnBuilder kb(format::Int64());
  format::ColumnBuilder vb(format::Int64());
  for (size_t i = 0; i < n; ++i) {
    kb.AppendInt(static_cast<int64_t>(i % 4));
    vb.AppendInt(1);
  }
  auto keys = kb.Finish();
  auto vals = MakeTable({{"v", format::Int64()}}, {vb.Finish()});
  std::vector<AggRequest> aggs{{AggKind::kSum, 0, "s"}};

  sim::Timeline gpu_t, cpu_t;
  Context gpu = Ctx(), cpu = Ctx();
  gpu.sim.device = sim::Gh200Gpu();
  gpu.sim.timeline = &gpu_t;
  cpu.sim.device = sim::M7i16xlarge();
  cpu.sim.timeline = &cpu_t;
  (void)GroupByAggregate(gpu, {keys}, {"k"}, vals, aggs).ValueOrDie();
  (void)GroupByAggregate(cpu, {keys}, {"k"}, vals, aggs).ValueOrDie();
  // With 4 groups the GPU pays contention; per-byte it should lose more of
  // its bandwidth advantage than the raw 10x ratio suggests.
  double gpu_s = gpu_t.seconds(sim::OpCategory::kGroupBy);
  double cpu_s = cpu_t.seconds(sim::OpCategory::kGroupBy);
  EXPECT_GT(gpu_s, 0.0);
  EXPECT_LT(cpu_s / gpu_s, 10.0);
}

TEST(DistinctTest, FirstOccurrenceOrder) {
  auto c = Column::FromInt64({3, 1, 3, 2, 1});
  auto ctx = Ctx();
  auto idx = DistinctIndices(ctx, {c}).ValueOrDie();
  EXPECT_EQ(idx, (std::vector<index_t>{0, 1, 3}));
}

// ---------------------------------------------------------------------------
// Sort
// ---------------------------------------------------------------------------

TEST(SortTest, AscendingDescendingStable) {
  auto k1 = Column::FromInt64({2, 1, 2, 1});
  auto k2 = Column::FromStrings({"b", "x", "a", "y"});
  auto ctx = Ctx();
  auto asc = SortIndices(ctx, {k1}).ValueOrDie();
  // stable: ties keep original order
  EXPECT_EQ(asc, (std::vector<index_t>{1, 3, 0, 2}));
  auto both = SortIndices(ctx, {k1, k2}, {false, true}).ValueOrDie();
  // k1 asc, k2 desc: (1,"y"), (1,"x"), (2,"b"), (2,"a")
  EXPECT_EQ(both, (std::vector<index_t>{3, 1, 0, 2}));
}

TEST(SortTest, NullsSortLast) {
  auto c = Column::FromInt64({5, 0, 1}, {true, false, true});
  auto ctx = Ctx();
  auto asc = SortIndices(ctx, {c}).ValueOrDie();
  EXPECT_EQ(asc, (std::vector<index_t>{2, 0, 1}));
  auto desc = SortIndices(ctx, {c}, {true}).ValueOrDie();
  EXPECT_EQ(desc, (std::vector<index_t>{0, 2, 1}));
}

TEST(SortTest, SortTableGathersAllColumns) {
  auto t = MakeTable({{"k", format::Int64()}, {"v", format::String()}},
                     {Column::FromInt64({3, 1, 2}),
                      Column::FromStrings({"c", "a", "b"})});
  auto ctx = Ctx();
  auto out = SortTable(ctx, t, {0}).ValueOrDie();
  EXPECT_EQ(out->column(1)->StringAt(0), "a");
  EXPECT_EQ(out->column(1)->StringAt(2), "c");
}

// ---------------------------------------------------------------------------
// Partition
// ---------------------------------------------------------------------------

TEST(PartitionTest, UnionOfPartsEqualsInput) {
  format::ColumnBuilder kb(format::Int64());
  for (int i = 0; i < 1000; ++i) kb.AppendInt(i * 37 % 101);
  auto t = MakeTable({{"k", format::Int64()}}, {kb.Finish()});
  auto ctx = Ctx();
  auto parts = HashPartition(ctx, t, {0}, 4).ValueOrDie();
  ASSERT_EQ(parts.size(), 4u);
  size_t total = 0;
  for (const auto& p : parts) total += p->num_rows();
  EXPECT_EQ(total, 1000u);
  auto glued = ConcatTables(ctx, parts).ValueOrDie();
  EXPECT_TRUE(glued->EqualsUnordered(*t));
}

TEST(PartitionTest, SameKeySamePartition) {
  auto t = MakeTable({{"k", format::Int64()}},
                     {Column::FromInt64({7, 7, 7, 9, 9})});
  auto ctx = Ctx();
  auto parts = HashPartition(ctx, t, {0}, 3).ValueOrDie();
  int parts_with_7 = 0, parts_with_9 = 0;
  for (const auto& p : parts) {
    bool has7 = false, has9 = false;
    for (size_t i = 0; i < p->num_rows(); ++i) {
      has7 |= p->column(0)->data<int64_t>()[i] == 7;
      has9 |= p->column(0)->data<int64_t>()[i] == 9;
    }
    parts_with_7 += has7;
    parts_with_9 += has9;
  }
  EXPECT_EQ(parts_with_7, 1);
  EXPECT_EQ(parts_with_9, 1);
}

TEST(PartitionTest, NullKeysGoToPartitionZero) {
  auto c = Column::FromInt64({1, 0}, {true, false});
  auto t = MakeTable({{"k", format::Int64()}}, {c});
  auto ctx = Ctx();
  auto parts = HashPartition(ctx, t, {0}, 2).ValueOrDie();
  bool null_in_zero = false;
  for (size_t i = 0; i < parts[0]->num_rows(); ++i) {
    null_in_zero |= parts[0]->column(0)->IsNull(i);
  }
  EXPECT_TRUE(null_in_zero);
}

TEST(PartitionTest, ZeroPartitionsRejected) {
  auto t = MakeTable({{"k", format::Int64()}}, {Column::FromInt64({1})});
  auto ctx = Ctx();
  EXPECT_FALSE(HashPartition(ctx, t, {0}, 0).ok());
}

}  // namespace
}  // namespace sirius::gdf
