#include "gdf/row_ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

namespace sirius::gdf {

using format::Column;
using format::TypeId;

namespace {
constexpr uint64_t kNullHash = 0x9ae16a3b2f90404fULL;
}

uint64_t HashValueAt(const Column& col, size_t i) {
  if (col.IsNull(i)) return kNullHash;
  switch (col.type().id) {
    case TypeId::kBool:
      return HashMix64(col.data<uint8_t>()[i]);
    case TypeId::kInt32:
    case TypeId::kDate32:
      return HashMix64(static_cast<uint64_t>(col.data<int32_t>()[i]));
    case TypeId::kInt64:
    case TypeId::kDecimal64:
      return HashMix64(static_cast<uint64_t>(col.data<int64_t>()[i]));
    case TypeId::kFloat64: {
      double d = col.data<double>()[i];
      if (d == 0) d = 0;  // normalize -0.0
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      std::memcpy(&bits, &d, sizeof(d));
      return HashMix64(bits);
    }
    case TypeId::kString:
      return HashString(col.StringAt(i));
    case TypeId::kList: {
      uint64_t h = 0x51ed270b; 
      const int64_t* off = col.offsets();
      for (int64_t k = off[i]; k < off[i + 1]; ++k) {
        h = HashCombine(h, HashValueAt(*col.list_child(), static_cast<size_t>(k)));
      }
      return h;
    }
  }
  return kNullHash;
}

bool ValueEquals(const Column& a, size_t i, const Column& b, size_t j,
                 bool null_equal) {
  const bool an = a.IsNull(i), bn = b.IsNull(j);
  if (an || bn) return an && bn && null_equal;
  switch (a.type().id) {
    case TypeId::kBool:
      return (a.data<uint8_t>()[i] != 0) == (b.data<uint8_t>()[j] != 0);
    case TypeId::kInt32:
    case TypeId::kDate32:
      return a.data<int32_t>()[i] == b.data<int32_t>()[j];
    case TypeId::kInt64:
    case TypeId::kDecimal64:
      return a.data<int64_t>()[i] == b.data<int64_t>()[j];
    case TypeId::kFloat64:
      return a.data<double>()[i] == b.data<double>()[j];
    case TypeId::kString:
      return a.StringAt(i) == b.StringAt(j);
    case TypeId::kList: {
      if (a.ListLength(i) != b.ListLength(j)) return false;
      const int64_t ao = a.offsets()[i], bo = b.offsets()[j];
      for (size_t k = 0; k < a.ListLength(i); ++k) {
        if (!ValueEquals(*a.list_child(), static_cast<size_t>(ao) + k,
                         *b.list_child(), static_cast<size_t>(bo) + k,
                         null_equal)) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

int ValueCompare(const Column& a, size_t i, const Column& b, size_t j) {
  const bool an = a.IsNull(i), bn = b.IsNull(j);
  if (an || bn) {
    if (an && bn) return 0;
    return an ? 1 : -1;  // NULLs last
  }
  auto cmp = [](auto x, auto y) { return x < y ? -1 : (x > y ? 1 : 0); };
  switch (a.type().id) {
    case TypeId::kBool:
      return cmp(a.data<uint8_t>()[i] != 0, b.data<uint8_t>()[j] != 0);
    case TypeId::kInt32:
    case TypeId::kDate32:
      return cmp(a.data<int32_t>()[i], b.data<int32_t>()[j]);
    case TypeId::kInt64:
    case TypeId::kDecimal64:
      return cmp(a.data<int64_t>()[i], b.data<int64_t>()[j]);
    case TypeId::kFloat64:
      return cmp(a.data<double>()[i], b.data<double>()[j]);
    case TypeId::kString: {
      int c = a.StringAt(i).compare(b.StringAt(j));
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case TypeId::kList: {
      // Lexicographic over elements.
      const size_t la = a.ListLength(i), lb = b.ListLength(j);
      const int64_t ao = a.offsets()[i], bo = b.offsets()[j];
      for (size_t k = 0; k < std::min(la, lb); ++k) {
        int c = ValueCompare(*a.list_child(), static_cast<size_t>(ao) + k,
                             *b.list_child(), static_cast<size_t>(bo) + k);
        if (c != 0) return c;
      }
      return la < lb ? -1 : (la > lb ? 1 : 0);
    }
  }
  return 0;
}

namespace {

/// Folds `col`'s value hashes into h[i], exactly as
/// h[i] = HashCombine(h[i], HashValueAt(col, i)), one typed loop per type.
void CombineColumnHashes(const Column& col, uint64_t* h) {
  const size_t n = col.length();
  const uint8_t* valid = col.has_nulls() ? col.validity() : nullptr;
  auto fold = [&](auto value_hash) {
    if (valid == nullptr) {
      for (size_t i = 0; i < n; ++i) h[i] = HashCombine(h[i], value_hash(i));
    } else {
      for (size_t i = 0; i < n; ++i) {
        h[i] = HashCombine(h[i], bit::GetBit(valid, i) ? value_hash(i) : kNullHash);
      }
    }
  };
  switch (col.type().id) {
    case TypeId::kBool: {
      const uint8_t* v = col.data<uint8_t>();
      fold([v](size_t i) { return HashMix64(v[i]); });
      return;
    }
    case TypeId::kInt32:
    case TypeId::kDate32: {
      const int32_t* v = col.data<int32_t>();
      fold([v](size_t i) { return HashMix64(static_cast<uint64_t>(v[i])); });
      return;
    }
    case TypeId::kInt64:
    case TypeId::kDecimal64: {
      const int64_t* v = col.data<int64_t>();
      fold([v](size_t i) { return HashMix64(static_cast<uint64_t>(v[i])); });
      return;
    }
    case TypeId::kFloat64: {
      const double* v = col.data<double>();
      fold([v](size_t i) {
        double d = v[i];
        if (d == 0) d = 0;  // normalize -0.0
        uint64_t bits;
        std::memcpy(&bits, &d, sizeof(d));
        return HashMix64(bits);
      });
      return;
    }
    case TypeId::kString: {
      const int64_t* off = col.offsets();
      const char* chars = col.chars();
      fold([off, chars](size_t i) {
        return HashBytes(chars + off[i], static_cast<size_t>(off[i + 1] - off[i]));
      });
      return;
    }
    case TypeId::kList:
      fold([&col](size_t i) { return HashValueAt(col, i); });
      return;
  }
}

}  // namespace

std::vector<uint64_t> RowOps::HashAll() const {
  std::vector<uint64_t> h(keys_.empty() ? 0 : keys_[0]->length(), 0);
  for (const auto& k : keys_) CombineColumnHashes(*k, h.data());
  return h;
}

bool RowOps::has_nulls() const {
  for (const auto& k : keys_) {
    if (k->has_nulls()) return true;
  }
  return false;
}

bool RowOps::AnyNull(size_t i) const {
  for (const auto& k : keys_) {
    if (k->IsNull(i)) return true;
  }
  return false;
}

int RowOps::Compare(size_t i, size_t j, const std::vector<bool>& descending) const {
  for (size_t k = 0; k < keys_.size(); ++k) {
    int c = ValueCompare(*keys_[k], i, *keys_[k], j);
    if (c != 0) {
      const bool null_involved = keys_[k]->IsNull(i) || keys_[k]->IsNull(j);
      if (!null_involved && k < descending.size() && descending[k]) c = -c;
      return c;
    }
  }
  return 0;
}

Status CheckKeyTypes(const char* kernel, const std::vector<format::ColumnPtr>& left,
                     const std::vector<format::ColumnPtr>& right) {
  for (size_t k = 0; k < left.size(); ++k) {
    if (!format::SameRepresentation(left[k]->type(), right[k]->type())) {
      return Status::TypeError(std::string(kernel) + ": key " + std::to_string(k) +
                               " compares " + left[k]->type().ToString() + " with " +
                               right[k]->type().ToString());
    }
  }
  return Status::OK();
}

namespace row_eq {

KeyByKey::KeyByKey(const std::vector<format::ColumnPtr>& a,
                   const std::vector<format::ColumnPtr>& b) {
  auto side = [](const Column& c) {
    return Side{c.has_nulls() ? c.validity() : nullptr, c.data<uint8_t>(), &c};
  };
  keys_.reserve(a.size());
  for (size_t k = 0; k < a.size(); ++k) {
    keys_.push_back({a[k]->type().id, side(*a[k]), side(*b[k])});
  }
}

}  // namespace row_eq

}  // namespace sirius::gdf
