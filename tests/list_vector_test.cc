// Tests for the LIST type and vector search (§3.4: "more complex data
// types, such as LIST" and "vector search").

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "format/builder.h"
#include "format/encoding.h"
#include "gdf/copying.h"
#include "gdf/row_ops.h"
#include "gdf/sort.h"
#include "gdf/vector_search.h"

namespace sirius {
namespace {

using format::Column;
using format::ColumnPtr;

gdf::Context Ctx() {
  gdf::Context ctx;
  ctx.mr = mem::DefaultResource();
  return ctx;
}

// ---------------------------------------------------------------------------
// LIST type
// ---------------------------------------------------------------------------

TEST(ListTypeTest, TypeIdentity) {
  auto t = format::List(format::Float64());
  EXPECT_TRUE(t.is_list());
  EXPECT_EQ(t.ToString(), "LIST<FLOAT64>");
  EXPECT_EQ(t, format::List(format::Float64()));
  EXPECT_NE(t, format::List(format::Int64()));
  auto nested = format::List(format::List(format::Int64()));
  EXPECT_EQ(nested.ToString(), "LIST<LIST<INT64>>");
}

TEST(ListColumnTest, ConstructionAndAccess) {
  auto col = Column::FromListsOfDoubles({{1.0, 2.0}, {}, {3.0}});
  ASSERT_EQ(col->length(), 3u);
  EXPECT_TRUE(col->type().is_list());
  EXPECT_EQ(col->ListLength(0), 2u);
  EXPECT_EQ(col->ListLength(1), 0u);
  EXPECT_EQ(col->ListLength(2), 1u);
  EXPECT_DOUBLE_EQ(col->list_child()->data<double>()[2], 3.0);
  EXPECT_EQ(col->GetScalar(0).string_value(), "[1, 2]");
}

TEST(ListColumnTest, EqualityAndHashing) {
  auto a = Column::FromListsOfDoubles({{1, 2}, {3}});
  auto b = Column::FromListsOfDoubles({{1, 2}, {3}});
  auto c = Column::FromListsOfDoubles({{1, 2}, {4}});
  auto d = Column::FromListsOfDoubles({{1, 2, 3}});
  EXPECT_TRUE(a->Equals(*b));
  EXPECT_FALSE(a->Equals(*c));
  EXPECT_FALSE(a->Equals(*d));
  EXPECT_EQ(gdf::HashValueAt(*a, 0), gdf::HashValueAt(*b, 0));
  EXPECT_NE(gdf::HashValueAt(*a, 1), gdf::HashValueAt(*c, 1));
  EXPECT_TRUE(gdf::ValueEquals(*a, 0, *b, 0, false));
  EXPECT_FALSE(gdf::ValueEquals(*a, 1, *c, 1, false));
  // Lexicographic comparison.
  EXPECT_LT(gdf::ValueCompare(*a, 0, *d, 0), 0);  // [1,2] < [1,2,3]
}

TEST(ListColumnTest, GatherPreservesLists) {
  auto col = Column::FromListsOfDoubles({{1, 2}, {3, 4, 5}, {}, {6}});
  auto table = format::Table::Make(
                   format::Schema({{"v", col->type()}}), {col})
                   .ValueOrDie();
  auto ctx = Ctx();
  auto out = gdf::GatherTable(ctx, table, {3, 1, 1}).ValueOrDie();
  auto g = out->column(0);
  ASSERT_EQ(g->length(), 3u);
  EXPECT_EQ(g->GetScalar(0).string_value(), "[6]");
  EXPECT_EQ(g->GetScalar(1).string_value(), "[3, 4, 5]");
  EXPECT_EQ(g->GetScalar(2).string_value(), "[3, 4, 5]");
}

TEST(ListColumnTest, ConcatAndSlicePreserveLists) {
  auto table = [](const std::vector<std::vector<double>>& lists) {
    auto col = Column::FromListsOfDoubles(lists);
    return format::Table::Make(format::Schema({{"v", col->type()}}), {col})
        .ValueOrDie();
  };
  auto ctx = Ctx();
  auto out = gdf::ConcatTables(ctx, {table({{1, 2}, {}}), table({}),
                                     table({{3}, {4, 5, 6}})})
                 .ValueOrDie();
  auto c = out->column(0);
  ASSERT_EQ(c->length(), 4u);
  EXPECT_EQ(c->GetScalar(0).string_value(), "[1, 2]");
  EXPECT_EQ(c->GetScalar(1).string_value(), "[]");
  EXPECT_EQ(c->GetScalar(2).string_value(), "[3]");
  EXPECT_EQ(c->GetScalar(3).string_value(), "[4, 5, 6]");
  auto s = gdf::SliceTable(ctx, out, {0}, 1, 2).ValueOrDie()->column(0);
  ASSERT_EQ(s->length(), 2u);
  EXPECT_EQ(s->GetScalar(0).string_value(), "[]");
  EXPECT_EQ(s->GetScalar(1).string_value(), "[3]");
}

TEST(ListColumnTest, SortByListKeysLexicographic) {
  auto col = Column::FromListsOfDoubles({{2}, {1, 5}, {1}});
  auto ctx = Ctx();
  auto order = gdf::SortIndices(ctx, {col}).ValueOrDie();
  EXPECT_EQ(order, (std::vector<gdf::index_t>{2, 1, 0}));  // [1] < [1,5] < [2]
}

TEST(ListColumnTest, EncodingPassthroughRoundTrip) {
  auto col = Column::FromListsOfDoubles({{1, 2}, {3}});
  auto encoded = format::Encode(col).ValueOrDie();
  EXPECT_EQ(encoded.codec(), format::Codec::kPlain);
  auto back = format::Decode(encoded).ValueOrDie();
  EXPECT_TRUE(back->Equals(*col));
}

// ---------------------------------------------------------------------------
// Vector search
// ---------------------------------------------------------------------------

TEST(VectorSearchTest, CosineTopK) {
  auto embeddings = Column::FromListsOfDoubles({
      {1, 0, 0},   // 0: aligned with query
      {0, 1, 0},   // 1: orthogonal
      {0.9, 0.1, 0},  // 2: close
      {-1, 0, 0},  // 3: opposite
  });
  auto ctx = Ctx();
  auto r = gdf::VectorTopK(ctx, embeddings, {1, 0, 0}, 2).ValueOrDie();
  ASSERT_EQ(r.indices.size(), 2u);
  EXPECT_EQ(r.indices[0], 0);
  EXPECT_EQ(r.indices[1], 2);
  EXPECT_NEAR(r.scores[0], 1.0, 1e-12);
  EXPECT_GT(r.scores[0], r.scores[1]);
}

TEST(VectorSearchTest, L2AndDotMetrics) {
  auto embeddings = Column::FromListsOfDoubles({{0, 0}, {3, 4}, {1, 1}});
  auto ctx = Ctx();
  auto l2 = gdf::VectorTopK(ctx, embeddings, {0.6, 0.6}, 3, gdf::Metric::kL2)
                .ValueOrDie();
  EXPECT_EQ(l2.indices[0], 2);  // (1,1) closest to (0.6,0.6)
  EXPECT_EQ(l2.indices[1], 0);
  auto dot = gdf::VectorTopK(ctx, embeddings, {1, 1}, 1, gdf::Metric::kDot)
                 .ValueOrDie();
  EXPECT_EQ(dot.indices[0], 1);  // 3+4 = 7 is the largest inner product
}

TEST(VectorSearchTest, SkipsNullsAndDimensionMismatches) {
  std::vector<std::vector<double>> lists = {{1, 0}, {1, 0, 0}, {0.5, 0.5}};
  auto base = Column::FromListsOfDoubles(lists);
  auto ctx = Ctx();
  auto r = gdf::VectorTopK(ctx, base, {1, 0}, 10).ValueOrDie();
  ASSERT_EQ(r.indices.size(), 2u);  // the 3-d row is skipped
  EXPECT_EQ(r.indices[0], 0);
}

TEST(VectorSearchTest, MatchesBruteForceOnRandomData) {
  std::mt19937_64 rng(3);
  const size_t n = 500, dim = 16;
  std::vector<std::vector<double>> lists(n, std::vector<double>(dim));
  for (auto& v : lists) {
    for (auto& x : v) x = std::uniform_real_distribution<double>(-1, 1)(rng);
  }
  std::vector<double> query(dim);
  for (auto& x : query) x = std::uniform_real_distribution<double>(-1, 1)(rng);

  auto ctx = Ctx();
  auto col = Column::FromListsOfDoubles(lists);
  auto r = gdf::VectorTopK(ctx, col, query, 10, gdf::Metric::kDot).ValueOrDie();

  // Brute-force reference.
  std::vector<std::pair<double, size_t>> ref;
  for (size_t i = 0; i < n; ++i) {
    double dot = 0;
    for (size_t d = 0; d < dim; ++d) dot += lists[i][d] * query[d];
    ref.push_back({dot, i});
  }
  std::sort(ref.begin(), ref.end(), [](auto& a, auto& b) {
    return a.first > b.first;
  });
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(static_cast<size_t>(r.indices[i]), ref[i].second) << i;
    EXPECT_NEAR(r.scores[i], ref[i].first, 1e-9);
  }
}

TEST(VectorSearchTest, InputValidation) {
  auto ctx = Ctx();
  EXPECT_FALSE(gdf::VectorTopK(ctx, Column::FromInt64({1}), {1.0}, 1).ok());
  auto emb = Column::FromListsOfDoubles({{1, 0}});
  EXPECT_FALSE(gdf::VectorTopK(ctx, emb, {}, 1).ok());
  EXPECT_FALSE(
      gdf::VectorTopK(ctx, emb, {0, 0}, 1, gdf::Metric::kCosine).ok());
  // k larger than row count clamps.
  auto r = gdf::VectorTopK(ctx, emb, {1, 0}, 99).ValueOrDie();
  EXPECT_EQ(r.indices.size(), 1u);
}

}  // namespace
}  // namespace sirius
