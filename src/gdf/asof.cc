#include "gdf/asof.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "gdf/row_ops.h"

namespace sirius::gdf {

using format::ColumnPtr;

Result<JoinResult> AsofJoin(const Context& ctx, const ColumnPtr& left_on,
                            const ColumnPtr& right_on,
                            const std::vector<ColumnPtr>& left_by,
                            const std::vector<ColumnPtr>& right_by) {
  if (left_by.size() != right_by.size()) {
    return Status::Invalid("AsofJoin: by-key count mismatch");
  }
  if (left_on->type().is_string() || right_on->type().is_string()) {
    return Status::TypeError("AsofJoin: ordering keys must be orderable scalars");
  }
  SIRIUS_RETURN_NOT_OK(CheckKeyTypes("AsofJoin ordering", {left_on}, {right_on}));
  SIRIUS_RETURN_NOT_OK(CheckKeyTypes("AsofJoin", left_by, right_by));
  const size_t nl = left_on->length();
  const size_t nr = right_on->length();

  // Group right rows by the hash of their "by" keys; exactness is restored
  // by comparing the keys when probing. Without by keys there is one group.
  RowOps right_ops(right_by);
  RowOps left_ops(left_by);
  const std::vector<uint64_t> right_hashes = right_ops.HashAll();
  const std::vector<uint64_t> left_hashes = left_ops.HashAll();
  const bool right_nulls = right_ops.has_nulls();
  const bool left_nulls = left_ops.has_nulls();
  std::map<uint64_t, std::vector<index_t>> right_groups;
  for (size_t j = 0; j < nr; ++j) {
    if (right_on->IsNull(j) || (right_nulls && right_ops.AnyNull(j))) continue;
    right_groups[right_by.empty() ? 0 : right_hashes[j]].push_back(
        static_cast<index_t>(j));
  }
  // Sort each group by the ordering key.
  for (auto& [h, rows] : right_groups) {
    (void)h;
    std::stable_sort(rows.begin(), rows.end(), [&](index_t a, index_t b) {
      return ValueCompare(*right_on, static_cast<size_t>(a), *right_on,
                          static_cast<size_t>(b)) < 0;
    });
  }

  JoinResult result;
  result.left_indices.reserve(nl);
  result.right_indices.reserve(nl);
  WithRowEquality(left_ops, right_ops, [&](const auto& by_equal) {
    for (size_t i = 0; i < nl; ++i) {
      result.left_indices.push_back(static_cast<index_t>(i));
      index_t match = -1;
      if (!left_on->IsNull(i) && !(left_nulls && left_ops.AnyNull(i))) {
        auto it = right_groups.find(left_by.empty() ? 0 : left_hashes[i]);
        if (it != right_groups.end()) {
          const auto& rows = it->second;
          // Largest j with right_on[j] <= left_on[i]: binary search.
          size_t lo = 0, hi = rows.size();
          while (lo < hi) {
            size_t mid = (lo + hi) / 2;
            if (ValueCompare(*right_on, static_cast<size_t>(rows[mid]), *left_on,
                             i) <= 0) {
              lo = mid + 1;
            } else {
              hi = mid;
            }
          }
          // Verify by-key equality exactly (hash groups may collide).
          for (size_t k = lo; k-- > 0;) {
            if (by_equal(i, static_cast<size_t>(rows[k]))) {
              match = rows[k];
              break;
            }
          }
        }
      }
      result.right_indices.push_back(match);
    }
  });

  sim::KernelCost cost;
  const double lognr = nr > 2 ? std::log2(static_cast<double>(nr)) : 1.0;
  cost.seq_bytes = left_on->MemoryUsage() + right_on->MemoryUsage();
  cost.rand_bytes = static_cast<uint64_t>(nl * lognr * 8) +
                    static_cast<uint64_t>(nr * lognr);
  cost.rows = static_cast<uint64_t>(nl + nr * lognr);
  cost.ops_per_row = 2.0;
  cost.launches = 3;
  ctx.Charge(sim::OpCategory::kJoin, cost);
  return result;
}

}  // namespace sirius::gdf
