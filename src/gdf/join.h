// Hash join kernels (cudf::inner_join / left_join / semi/anti analogues),
// with optional residual (non-equi) predicates evaluated over candidate
// pairs — needed for decorrelated TPC-H Q21-style EXISTS subqueries.

#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "expr/expr.h"
#include "format/table.h"
#include "gdf/context.h"

namespace sirius::gdf {

enum class JoinType {
  kInner,
  kLeft,   ///< left outer: unmatched left rows pair with right index -1
  kSemi,   ///< left rows with >=1 match (EXISTS)
  kAnti,   ///< left rows with no match (NOT EXISTS)
};

const char* JoinTypeName(JoinType t);

/// \brief Matching row-index pairs produced by a join.
///
/// For kSemi/kAnti only `left_indices` is populated. For kLeft a right index
/// of -1 marks an unmatched left row.
struct JoinResult {
  std::vector<index_t> left_indices;
  std::vector<index_t> right_indices;
};

/// \brief Options for HashJoin.
struct JoinOptions {
  JoinType type = JoinType::kInner;
  /// Residual predicate over the concatenated (left ++ right) schema,
  /// evaluated on candidate equi-key pairs. Must be bound against
  /// that combined schema. Null = pure equi join.
  const expr::Expr* residual = nullptr;
  /// Full input tables; required when `residual` is set.
  format::TablePtr left_table;
  format::TablePtr right_table;
};

/// \brief A join's build side, hashed: the chained table together with the
/// build keys it was built over. BuildJoinTable makes one, and any number of
/// ProbeJoinTable calls read it, so a probe side streamed in batches (the
/// §3.4 out-of-core scan) probes one table instead of rebuilding it per batch.
class JoinTable {
 public:
  JoinTable(JoinTable&&) noexcept;
  ~JoinTable();

  /// The build-side key columns the table indexes.
  const std::vector<format::ColumnPtr>& keys() const { return keys_; }

 private:
  class Chains;  ///< the open-addressing slots and duplicate chains (join.cc)
  friend Result<JoinTable> BuildJoinTable(const std::vector<format::ColumnPtr>& right_keys);
  friend Result<JoinResult> ProbeJoinTable(const Context& ctx, const JoinTable& table,
                                           const std::vector<format::ColumnPtr>& left_keys,
                                           const JoinOptions& options);
  JoinTable(std::vector<format::ColumnPtr> keys, std::unique_ptr<const Chains> chains);

  std::vector<format::ColumnPtr> keys_;
  std::unique_ptr<const Chains> chains_;
};

/// Hashes `right_keys` into a table. NULL keys are left out (they never
/// match). Charges nothing: each probe prices the build it relies on.
Result<JoinTable> BuildJoinTable(const std::vector<format::ColumnPtr>& right_keys);

/// \brief Probes `table` with `left_keys`, pairing left rows with build rows.
///
/// Key columns must be positionally type-compatible with the table's keys
/// (a TypeError otherwise). NULL keys never match (SQL join semantics).
/// Charges kJoin with build + probe traffic, as if the probe had built the
/// table itself, so the model still prices one build per probe call.
Result<JoinResult> ProbeJoinTable(const Context& ctx, const JoinTable& table,
                                  const std::vector<format::ColumnPtr>& left_keys,
                                  const JoinOptions& options);

/// \brief Hash join: builds on `right_keys`, probes with `left_keys`
/// (BuildJoinTable, then ProbeJoinTable).
Result<JoinResult> HashJoin(const Context& ctx,
                            const std::vector<format::ColumnPtr>& left_keys,
                            const std::vector<format::ColumnPtr>& right_keys,
                            const JoinOptions& options);

/// Cross join (used for uncorrelated scalar-subquery plans where one side is
/// a single row). Emits every pair; intended for tiny inputs.
Result<JoinResult> CrossJoin(const Context& ctx, size_t left_rows,
                             size_t right_rows);

}  // namespace sirius::gdf
