// Logical data types of the Sirius columnar format.
//
// Both Sirius and libcudf derive their columnar format from Apache Arrow
// (paper §3.2.3); this module is the shared in-memory representation.

#pragma once

#include <cstdint>
#include <memory>
#include <string>

namespace sirius::format {

enum class TypeId : uint8_t {
  kBool,
  kInt32,
  kInt64,
  kFloat64,
  kDecimal64,  ///< fixed-point int64 with a per-type scale (money columns)
  kDate32,     ///< days since 1970-01-01
  kString,     ///< UTF-8, offsets + chars (Arrow layout)
  kList,       ///< variable-length list of a child type (offsets + child)
};

/// \brief A logical type: a TypeId plus decimal scale and, for lists, the
/// element type.
struct DataType {
  TypeId id = TypeId::kInt64;
  /// Number of fractional digits for kDecimal64 (value = raw / 10^scale).
  int scale = 0;
  /// Element type for kList (null otherwise).
  std::shared_ptr<DataType> child;

  DataType() = default;
  DataType(TypeId tid) : id(tid) {}  // NOLINT(google-explicit-constructor)
  DataType(TypeId tid, int s) : id(tid), scale(s) {}

  bool operator==(const DataType& o) const {
    if (id != o.id || scale != o.scale) return false;
    if (id != TypeId::kList) return true;
    if ((child == nullptr) != (o.child == nullptr)) return false;
    return child == nullptr || *child == *o.child;
  }
  bool operator!=(const DataType& o) const { return !(*this == o); }

  bool is_string() const { return id == TypeId::kString; }
  bool is_list() const { return id == TypeId::kList; }
  bool is_decimal() const { return id == TypeId::kDecimal64; }
  bool is_numeric() const {
    return id == TypeId::kInt32 || id == TypeId::kInt64 || id == TypeId::kFloat64 ||
           id == TypeId::kDecimal64;
  }
  /// Width in bytes of the fixed-size physical representation (offsets width
  /// for strings).
  int byte_width() const;

  std::string ToString() const;
};

inline DataType Bool() { return DataType(TypeId::kBool); }
inline DataType Int32() { return DataType(TypeId::kInt32); }
inline DataType Int64() { return DataType(TypeId::kInt64); }
inline DataType Float64() { return DataType(TypeId::kFloat64); }
inline DataType Decimal(int scale) { return DataType(TypeId::kDecimal64, scale); }
inline DataType Date32() { return DataType(TypeId::kDate32); }
inline DataType String() { return DataType(TypeId::kString); }
inline DataType List(DataType element) {
  DataType t(TypeId::kList);
  t.child = std::make_shared<DataType>(std::move(element));
  return t;
}

/// True when values of `a` and `b` are stored, hashed and compared alike:
/// the same storage (DATE32 is stored as INT32, DECIMAL64 as INT64), the
/// same decimal scale, and list elements alike. The key kernels read both
/// sides of a key pair with one type, so join key pairs must satisfy this.
bool SameRepresentation(const DataType& a, const DataType& b);

/// 10^scale for decimal rescaling, scale in [0, 18].
int64_t DecimalPow10(int scale);

/// \name Date helpers (proleptic Gregorian, days since 1970-01-01).
/// @{
int32_t DaysFromCivil(int year, int month, int day);
void CivilFromDays(int32_t days, int* year, int* month, int* day);
/// Parses "YYYY-MM-DD"; returns INT32_MIN on malformed input.
int32_t ParseDate(const std::string& s);
std::string FormatDate(int32_t days);
/// @}

}  // namespace sirius::format
