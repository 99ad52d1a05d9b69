// Cell-by-cell comparison of two result tables in canonical row order,
// shared by the suites that check one execution path against another (GPU
// vs CPU, fused vs materialized, out of core vs the host executor). ORDER BY
// ties are not fully determined, so both tables are put into one canonical
// row order before their rows are paired. FLOAT64 cells compare within a
// relative epsilon; every other type must match exactly.

#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "format/table.h"

namespace sirius::cells {

/// Three-way cell comparison with exact double ordering; used only to put
/// both result tables into one canonical row order before pairing.
inline int CompareCell(const format::Column& a, size_t i, const format::Column& b,
                       size_t j) {
  const bool na = a.IsNull(i);
  const bool nb = b.IsNull(j);
  if (na != nb) return na ? -1 : 1;
  if (na) return 0;
  auto cmp = [](auto x, auto y) { return x < y ? -1 : (y < x ? 1 : 0); };
  switch (a.type().id) {
    case format::TypeId::kBool:
      return cmp(a.data<uint8_t>()[i], b.data<uint8_t>()[j]);
    case format::TypeId::kInt32:
    case format::TypeId::kDate32:
      return cmp(a.data<int32_t>()[i], b.data<int32_t>()[j]);
    case format::TypeId::kInt64:
    case format::TypeId::kDecimal64:
      return cmp(a.data<int64_t>()[i], b.data<int64_t>()[j]);
    case format::TypeId::kFloat64:
      return cmp(a.data<double>()[i], b.data<double>()[j]);
    case format::TypeId::kString:
      return cmp(a.StringAt(i), b.StringAt(j));
    default:
      return 0;
  }
}

/// Type-aware equality: FLOAT64 cells compare within a relative epsilon
/// (aggregation order differs between execution paths); every other type
/// must match exactly.
inline bool CellsAgree(const format::Column& a, size_t i, const format::Column& b,
                       size_t j) {
  if (a.type().id == format::TypeId::kFloat64 && !a.IsNull(i) && !b.IsNull(j)) {
    const double x = a.data<double>()[i];
    const double y = b.data<double>()[j];
    const double eps = 1e-6 * std::max({1.0, std::fabs(x), std::fabs(y)});
    return std::fabs(x - y) <= eps;
  }
  return CompareCell(a, i, b, j) == 0;
}

/// Row indices of `t` in canonical (all-columns lexicographic) order.
inline std::vector<size_t> CanonicalOrder(const format::Table& t) {
  std::vector<size_t> idx(t.num_rows());
  std::iota(idx.begin(), idx.end(), size_t{0});
  std::stable_sort(idx.begin(), idx.end(), [&](size_t x, size_t y) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      int r = CompareCell(*t.column(c), x, *t.column(c), y);
      if (r != 0) return r < 0;
    }
    return false;
  });
  return idx;
}

/// Pairs the rows of `a` and `b` in canonical order and demands cell-level
/// agreement, reporting up to five mismatching cells under `label` with the
/// two sides named `a_name` and `b_name`.
inline void ExpectSameCells(const format::Table& a, const format::Table& b,
                            const std::string& label, const char* a_name,
                            const char* b_name) {
  ASSERT_EQ(a.num_columns(), b.num_columns()) << label;
  ASSERT_EQ(a.num_rows(), b.num_rows()) << label;
  std::vector<size_t> ai = CanonicalOrder(a);
  std::vector<size_t> bi = CanonicalOrder(b);
  int mismatches = 0;
  for (size_t r = 0; r < a.num_rows() && mismatches < 5; ++r) {
    for (size_t col = 0; col < a.num_columns(); ++col) {
      if (!CellsAgree(*a.column(col), ai[r], *b.column(col), bi[r])) {
        ++mismatches;
        ADD_FAILURE() << label << " row " << r << " column " << col << " ("
                      << a.schema().field(col).name << "): " << a_name << "="
                      << a.column(col)->GetScalar(ai[r]).ToString() << " "
                      << b_name << "="
                      << b.column(col)->GetScalar(bi[r]).ToString();
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << label;
}

}  // namespace sirius::cells
