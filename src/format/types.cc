#include "format/types.h"

#include <cstdio>

namespace sirius::format {

int DataType::byte_width() const {
  switch (id) {
    case TypeId::kBool:
      return 1;
    case TypeId::kInt32:
    case TypeId::kDate32:
      return 4;
    case TypeId::kInt64:
    case TypeId::kFloat64:
    case TypeId::kDecimal64:
      return 8;
    case TypeId::kString:
    case TypeId::kList:
      return 8;  // int64 offsets
  }
  return 8;
}

std::string DataType::ToString() const {
  switch (id) {
    case TypeId::kBool:
      return "BOOL";
    case TypeId::kInt32:
      return "INT32";
    case TypeId::kInt64:
      return "INT64";
    case TypeId::kFloat64:
      return "FLOAT64";
    case TypeId::kDecimal64:
      return "DECIMAL64(" + std::to_string(scale) + ")";
    case TypeId::kDate32:
      return "DATE32";
    case TypeId::kString:
      return "STRING";
    case TypeId::kList:
      return "LIST<" + (child == nullptr ? std::string("?") : child->ToString()) +
             ">";
  }
  return "?";
}

namespace {

/// The type a value of type `id` is stored as.
TypeId StorageId(TypeId id) {
  switch (id) {
    case TypeId::kDate32:
      return TypeId::kInt32;
    case TypeId::kDecimal64:
      return TypeId::kInt64;
    default:
      return id;
  }
}

}  // namespace

bool SameRepresentation(const DataType& a, const DataType& b) {
  if (StorageId(a.id) != StorageId(b.id) || a.scale != b.scale) return false;
  if (a.id != TypeId::kList) return true;
  if ((a.child == nullptr) != (b.child == nullptr)) return false;
  return a.child == nullptr || SameRepresentation(*a.child, *b.child);
}

int64_t DecimalPow10(int scale) {
  static const int64_t kPow10[19] = {1LL,
                                     10LL,
                                     100LL,
                                     1000LL,
                                     10000LL,
                                     100000LL,
                                     1000000LL,
                                     10000000LL,
                                     100000000LL,
                                     1000000000LL,
                                     10000000000LL,
                                     100000000000LL,
                                     1000000000000LL,
                                     10000000000000LL,
                                     100000000000000LL,
                                     1000000000000000LL,
                                     10000000000000000LL,
                                     100000000000000000LL,
                                     1000000000000000000LL};
  if (scale < 0) scale = 0;
  if (scale > 18) scale = 18;
  return kPow10[scale];
}

// Howard Hinnant's algorithms for civil<->days conversion.
int32_t DaysFromCivil(int y, int m, int d) {
  y -= m <= 2;
  const int era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<int>(doe) - 719468;
}

void CivilFromDays(int32_t z, int* year, int* month, int* day) {
  z += 719468;
  const int era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int y = static_cast<int>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;
  const unsigned m = mp + (mp < 10 ? 3 : -9);
  *year = y + (m <= 2);
  *month = static_cast<int>(m);
  *day = static_cast<int>(d);
}

int32_t ParseDate(const std::string& s) {
  int y = 0, m = 0, d = 0;
  if (std::sscanf(s.c_str(), "%d-%d-%d", &y, &m, &d) != 3) return INT32_MIN;
  if (m < 1 || m > 12 || d < 1 || d > 31) return INT32_MIN;
  return DaysFromCivil(y, m, d);
}

std::string FormatDate(int32_t days) {
  int y, m, d;
  CivilFromDays(days, &y, &m, &d);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", y, m, d);
  return buf;
}

}  // namespace sirius::format
