// Bloom filters for predicate transfer (paper §3.4, refs [29, 30]: Bloom
// filters built on join build sides pre-filter probe inputs before the
// expensive join).

#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "format/column.h"
#include "gdf/context.h"

namespace sirius::gdf {

/// \brief A blocked Bloom filter over the hashed values of key columns.
class BloomFilter {
 public:
  /// Sizes the filter for `expected_keys` at ~1% false-positive rate
  /// (~10 bits/key, 4 probes).
  explicit BloomFilter(size_t expected_keys);

  /// Inserts every (non-NULL) row of the key set.
  void InsertColumn(const format::ColumnPtr& key);

  /// Membership test for row `i` of `key` (false -> definitely absent).
  bool MightContain(const format::Column& key, size_t i) const;

  size_t size_bytes() const { return bits_.size(); }

 private:
  static constexpr int kProbes = 4;
  void Insert(uint64_t hash);
  bool Test(uint64_t hash) const;

  uint64_t mask_;
  std::vector<uint8_t> bits_;
};

/// \brief Predicate transfer: tests each row of `probe_key` against a Bloom
/// filter built from `build_key` and returns the surviving rows as a
/// selection; false positives are fine — the join re-checks exactly.
/// Charges the build and probe passes to kJoin: two launches standalone,
/// none inside a fused pass (`ctx.fused_reads` set), where a resident probe
/// key is not re-read and the selection write is charged instead.
Result<std::vector<index_t>> BloomPrefilter(const Context& ctx,
                                            const format::ColumnPtr& probe_key,
                                            const format::ColumnPtr& build_key);

}  // namespace sirius::gdf
