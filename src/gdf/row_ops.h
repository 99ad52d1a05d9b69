// Row-wise hashing, equality and comparison over sets of key columns.
// Shared by hash join, hash group-by, partitioning, distinct and sort.

#pragma once

#include <cstdint>
#include <vector>

#include "common/bitutil.h"
#include "common/hash.h"
#include "common/result.h"
#include "format/column.h"

namespace sirius::gdf {

/// \brief Hashes and compares rows across a fixed set of key columns.
///
/// NULL handling: a NULL key slot hashes to a fixed tag; two NULLs compare
/// equal under WithRowEquality (group-by semantics). Join kernels skip rows
/// with a NULL key, so NULLs never match there.
class RowOps {
 public:
  explicit RowOps(std::vector<format::ColumnPtr> keys) : keys_(std::move(keys)) {}

  size_t num_keys() const { return keys_.size(); }
  const std::vector<format::ColumnPtr>& keys() const { return keys_; }

  /// Combined hash of every row's key values (one entry per row of the first
  /// key; empty without keys). One typed loop per key column folds its
  /// values in with HashCombine, starting from 0; entry i equals
  /// HashCombine over HashValueAt(key, i) in key order.
  std::vector<uint64_t> HashAll() const;

  /// True when some key column has NULLs. Without them no row needs AnyNull.
  bool has_nulls() const;

  /// True when any key of row `i` is NULL.
  bool AnyNull(size_t i) const;

  /// Three-way comparison of key values for sorting: <0, 0, >0.
  /// `descending[k]` flips key k; NULLs sort last regardless of direction.
  int Compare(size_t i, size_t j, const std::vector<bool>& descending) const;

 private:
  std::vector<format::ColumnPtr> keys_;
};

/// Hashes a single column value (type-aware, NULL -> fixed tag).
uint64_t HashValueAt(const format::Column& col, size_t i);

/// Equality of two values possibly from different columns of the same type.
/// NULL == NULL yields `null_equal`.
bool ValueEquals(const format::Column& a, size_t i, const format::Column& b,
                 size_t j, bool null_equal);

/// Three-way value comparison (NULLs last).
int ValueCompare(const format::Column& a, size_t i, const format::Column& b,
                 size_t j);

/// TypeError naming both types unless `left[k]` and `right[k]` have the same
/// representation (format::SameRepresentation) for every k (the key counts
/// must already match). The typed key kernels read both sides of a key pair
/// with one type.
Status CheckKeyTypes(const char* kernel, const std::vector<format::ColumnPtr>& left,
                     const std::vector<format::ColumnPtr>& right);

/// \name Tagged hash-table slots
/// An open-addressing slot packs a row or group id (below 2^31) with the high
/// 32 bits of its hash, so a probe reads keys only when the tags match.
/// @{
inline constexpr uint64_t kEmptySlot = ~uint64_t{0};
inline uint64_t PackSlot(uint64_t hash, size_t id) {
  return (hash & 0xffffffff00000000ULL) | static_cast<uint32_t>(id);
}
inline bool SlotTagMatches(uint64_t slot, uint64_t hash) {
  return ((slot ^ hash) >> 32) == 0;
}
inline size_t SlotId(uint64_t slot) { return static_cast<uint32_t>(slot); }
/// @}

namespace row_eq {

/// One int32/date32 or int64/decimal key without NULLs: raw values.
template <typename T>
struct Raw {
  const T* a;
  const T* b;
  bool operator()(size_t i, size_t j) const { return a[i] == b[j]; }
};

/// Any other shape: key by key, each key's type switch resolved up front.
class KeyByKey {
 public:
  KeyByKey(const std::vector<format::ColumnPtr>& a,
           const std::vector<format::ColumnPtr>& b);
  bool operator()(size_t i, size_t j) const {
    for (const Key& k : keys_) {
      const bool an = k.a.validity != nullptr && !bit::GetBit(k.a.validity, i);
      const bool bn = k.b.validity != nullptr && !bit::GetBit(k.b.validity, j);
      if (an || bn) {
        if (an && bn) continue;
        return false;
      }
      if (!Equal(k, i, j)) return false;
    }
    return true;
  }

 private:
  struct Side {
    const uint8_t* validity;  ///< null when the column has no NULLs
    const void* values;
    const format::Column* column;
  };
  struct Key {
    format::TypeId id;
    Side a, b;
  };
  template <typename T>
  static bool RawEqual(const Key& k, size_t i, size_t j) {
    return static_cast<const T*>(k.a.values)[i] == static_cast<const T*>(k.b.values)[j];
  }
  /// Non-NULL values of one key.
  static bool Equal(const Key& k, size_t i, size_t j) {
    switch (k.id) {
      case format::TypeId::kBool:
        return (static_cast<const uint8_t*>(k.a.values)[i] != 0) ==
               (static_cast<const uint8_t*>(k.b.values)[j] != 0);
      case format::TypeId::kInt32:
      case format::TypeId::kDate32:
        return RawEqual<int32_t>(k, i, j);
      case format::TypeId::kInt64:
      case format::TypeId::kDecimal64:
        return RawEqual<int64_t>(k, i, j);
      case format::TypeId::kFloat64:
        return RawEqual<double>(k, i, j);
      case format::TypeId::kString:
        return k.a.column->StringAt(i) == k.b.column->StringAt(j);
      case format::TypeId::kList:
        return ValueEquals(*k.a.column, i, *k.b.column, j, /*null_equal=*/true);
    }
    return false;
  }
  std::vector<Key> keys_;
};

}  // namespace row_eq

/// \brief Typed row equality between key sets `a` and `b`, whose keys are
/// stored alike position by position (CheckKeyTypes). NULL == NULL
/// (group-by / distinct semantics).
///
/// Picks the comparison shape once per kernel call and calls `fn(eq)` with
/// an `eq(i, j)` functor (row i of `a` vs row j of `b`) specialized for it,
/// so the caller's loop is compiled once per shape.
template <typename Fn>
void WithRowEquality(const RowOps& a, const RowOps& b, Fn&& fn) {
  const auto& ka = a.keys();
  const auto& kb = b.keys();
  if (ka.size() == 1 && !ka[0]->has_nulls() && !kb[0]->has_nulls()) {
    switch (ka[0]->type().id) {
      case format::TypeId::kInt32:
      case format::TypeId::kDate32:
        return fn(row_eq::Raw<int32_t>{ka[0]->data<int32_t>(), kb[0]->data<int32_t>()});
      case format::TypeId::kInt64:
      case format::TypeId::kDecimal64:
        return fn(row_eq::Raw<int64_t>{ka[0]->data<int64_t>(), kb[0]->data<int64_t>()});
      default:
        break;
    }
  }
  return fn(row_eq::KeyByKey(ka, kb));
}

}  // namespace sirius::gdf
