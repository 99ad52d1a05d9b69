// Column: an immutable Arrow-layout column (values + optional validity
// bitmap; strings are int64 offsets + UTF-8 chars).

#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/bitutil.h"
#include "common/result.h"
#include "format/scalar.h"
#include "format/types.h"
#include "mem/buffer.h"

namespace sirius::format {

class Column;
using ColumnPtr = std::shared_ptr<Column>;

/// \brief An immutable typed column.
///
/// Fixed-width types store `length * byte_width` bytes in `data`. Strings
/// store `length + 1` int64 offsets in `data` and the character payload in
/// `chars`. A missing validity buffer means all values are valid.
class Column {
 public:
  /// Wraps buffers into a fixed-width column.
  static ColumnPtr MakeFixed(DataType type, mem::Buffer data, size_t length,
                             mem::Buffer validity = {}, size_t null_count = 0);

  /// Wraps buffers into a string column (`offsets` has length+1 int64s).
  static ColumnPtr MakeString(mem::Buffer offsets, mem::Buffer chars, size_t length,
                              mem::Buffer validity = {}, size_t null_count = 0);

  /// Wraps a list column: `offsets` (length+1 int64s) index into `child`.
  static ColumnPtr MakeList(mem::Buffer offsets, ColumnPtr child, size_t length,
                            mem::Buffer validity = {}, size_t null_count = 0);

  /// \name Convenience constructors (tests / small data).
  /// @{
  static ColumnPtr FromInt32(const std::vector<int32_t>& values);
  static ColumnPtr FromInt64(const std::vector<int64_t>& values);
  static ColumnPtr FromDouble(const std::vector<double>& values);
  static ColumnPtr FromBool(const std::vector<bool>& values);
  /// Raw decimal units with the given scale.
  static ColumnPtr FromDecimal(const std::vector<int64_t>& raw, int scale);
  static ColumnPtr FromDate(const std::vector<int32_t>& days);
  static ColumnPtr FromStrings(const std::vector<std::string>& values);
  /// As above but with a validity vector (false == NULL).
  static ColumnPtr FromInt64(const std::vector<int64_t>& values,
                             const std::vector<bool>& valid);
  static ColumnPtr FromStrings(const std::vector<std::string>& values,
                               const std::vector<bool>& valid);
  /// A LIST<FLOAT64> column (embedding vectors and similar).
  static ColumnPtr FromListsOfDoubles(
      const std::vector<std::vector<double>>& lists);
  /// @}

  const DataType& type() const { return type_; }
  size_t length() const { return length_; }
  size_t null_count() const { return null_count_; }
  bool has_nulls() const { return null_count_ > 0; }

  /// Raw value pointer, reinterpreted as T (caller matches the type).
  template <typename T>
  const T* data() const {
    return data_.data_as<T>();
  }
  template <typename T>
  T* mutable_data() {
    return data_.data_as<T>();
  }

  /// Bytes in the values buffer (the offsets, for strings and lists).
  size_t data_size() const { return data_.size(); }

  /// String offsets (int64, length+1 entries). String columns only.
  const int64_t* offsets() const { return data_.data_as<int64_t>(); }
  const char* chars() const { return chars_.data_as<char>(); }
  size_t chars_size() const { return chars_.size(); }

  /// Child values of a list column (nullptr otherwise).
  const ColumnPtr& list_child() const { return child_; }
  /// Number of elements in the i-th list.
  size_t ListLength(size_t i) const {
    return static_cast<size_t>(offsets()[i + 1] - offsets()[i]);
  }

  /// Validity bitmap, or nullptr when the column has no nulls.
  const uint8_t* validity() const {
    return validity_.empty() ? nullptr : validity_.data();
  }

  bool IsNull(size_t i) const {
    return null_count_ > 0 && !bit::GetBit(validity_.data(), i);
  }

  /// The i-th string value. String columns only; undefined for NULL slots.
  std::string_view StringAt(size_t i) const {
    const int64_t* off = offsets();
    return std::string_view(chars() + off[i], static_cast<size_t>(off[i + 1] - off[i]));
  }

  /// Boxes the i-th value into a Scalar (NULL-aware).
  Scalar GetScalar(size_t i) const;

  /// Total bytes across all buffers (the unit charged to the cost model).
  uint64_t MemoryUsage() const {
    return data_.size() + chars_.size() + validity_.size() +
           (child_ == nullptr ? 0 : child_->MemoryUsage());
  }

  /// Deep value equality (types, lengths, nulls, values).
  bool Equals(const Column& other) const;

 private:
  Column() = default;

  DataType type_;
  size_t length_ = 0;
  size_t null_count_ = 0;
  mem::Buffer data_;
  mem::Buffer chars_;
  mem::Buffer validity_;
  ColumnPtr child_;  ///< list element values
};

/// Builds a validity buffer from a bool vector; returns an empty buffer and
/// *null_count = 0 when everything is valid.
mem::Buffer ValidityFromBools(const std::vector<bool>& valid, size_t* null_count);

}  // namespace sirius::format
