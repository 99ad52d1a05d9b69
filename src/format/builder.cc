#include "format/builder.h"

#include <cstring>

namespace sirius::format {

void ColumnBuilder::Reserve(size_t n) {
  valid_.reserve(n);
  if (type_.id == TypeId::kString) {
    offsets_.reserve(n + 1);
  } else if (type_.id == TypeId::kFloat64) {
    doubles_.reserve(n);
  } else {
    ints_.reserve(n);
  }
}

void ColumnBuilder::AppendNull() {
  ++null_count_;
  valid_.push_back(false);
  switch (type_.id) {
    case TypeId::kString:
      offsets_.push_back(offsets_.back());
      break;
    case TypeId::kFloat64:
      doubles_.push_back(0.0);
      break;
    default:
      ints_.push_back(0);
  }
}

void ColumnBuilder::AppendInt(int64_t v) {
  valid_.push_back(true);
  if (type_.id == TypeId::kFloat64) {
    doubles_.push_back(static_cast<double>(v));
  } else {
    ints_.push_back(v);
  }
}

void ColumnBuilder::AppendDouble(double v) {
  valid_.push_back(true);
  if (type_.id == TypeId::kFloat64) {
    doubles_.push_back(v);
  } else {
    ints_.push_back(static_cast<int64_t>(v));
  }
}

void ColumnBuilder::AppendString(std::string_view v) {
  valid_.push_back(true);
  chars_.append(v.data(), v.size());
  offsets_.push_back(static_cast<int64_t>(chars_.size()));
}

Status ColumnBuilder::AppendScalar(const Scalar& s) {
  if (s.is_null()) {
    AppendNull();
    return Status::OK();
  }
  switch (type_.id) {
    case TypeId::kString:
      if (s.type().id != TypeId::kString) {
        return Status::TypeError("AppendScalar: expected string, got " +
                                 s.type().ToString());
      }
      AppendString(s.string_value());
      return Status::OK();
    case TypeId::kFloat64:
      AppendDouble(s.AsDouble());
      return Status::OK();
    case TypeId::kDecimal64: {
      if (s.type().id == TypeId::kString) {
        return Status::TypeError("AppendScalar: expected numeric, got string");
      }
      if (s.type().is_decimal()) {
        int diff = type_.scale - s.type().scale;
        if (diff >= 0) {
          AppendInt(s.int_value() * DecimalPow10(diff));
        } else {
          AppendInt(s.int_value() / DecimalPow10(-diff));
        }
      } else if (s.type().id == TypeId::kFloat64) {
        AppendInt(static_cast<int64_t>(s.double_value() *
                                       static_cast<double>(DecimalPow10(type_.scale)) +
                                       (s.double_value() >= 0 ? 0.5 : -0.5)));
      } else {
        AppendInt(s.int_value() * DecimalPow10(type_.scale));
      }
      return Status::OK();
    }
    default:
      if (s.type().id == TypeId::kString) {
        return Status::TypeError("AppendScalar: expected numeric, got string");
      }
      if (s.type().id == TypeId::kFloat64) {
        AppendInt(static_cast<int64_t>(s.double_value()));
      } else if (s.type().is_decimal()) {
        AppendInt(s.int_value() / DecimalPow10(s.type().scale));
      } else {
        AppendInt(s.int_value());
      }
      return Status::OK();
  }
}

ColumnPtr ColumnBuilder::Finish() {
  const size_t n = valid_.size();
  size_t null_count = 0;
  mem::Buffer validity;
  if (null_count_ > 0) {
    validity = ValidityFromBools(valid_, &null_count);
  }

  ColumnPtr result;
  if (type_.id == TypeId::kString) {
    mem::Buffer off =
        mem::Buffer::Allocate(offsets_.size() * sizeof(int64_t)).ValueOrDie();
    std::memcpy(off.data(), offsets_.data(), offsets_.size() * sizeof(int64_t));
    mem::Buffer chars = mem::Buffer::Allocate(chars_.size()).ValueOrDie();
    if (!chars_.empty()) std::memcpy(chars.data(), chars_.data(), chars_.size());
    result = Column::MakeString(std::move(off), std::move(chars), n,
                                std::move(validity), null_count);
  } else if (type_.id == TypeId::kFloat64) {
    mem::Buffer data = mem::Buffer::Allocate(n * sizeof(double)).ValueOrDie();
    if (n > 0) std::memcpy(data.data(), doubles_.data(), n * sizeof(double));
    result = Column::MakeFixed(type_, std::move(data), n, std::move(validity),
                               null_count);
  } else {
    const int width = type_.byte_width();
    mem::Buffer data = mem::Buffer::Allocate(n * width).ValueOrDie();
    if (width == 8) {
      if (n > 0) std::memcpy(data.data(), ints_.data(), n * 8);
    } else if (width == 4) {
      auto* out = data.data_as<int32_t>();
      for (size_t i = 0; i < n; ++i) out[i] = static_cast<int32_t>(ints_[i]);
    } else {  // bool, 1 byte
      auto* out = data.data_as<uint8_t>();
      for (size_t i = 0; i < n; ++i) out[i] = ints_[i] != 0 ? 1 : 0;
    }
    result = Column::MakeFixed(type_, std::move(data), n, std::move(validity),
                               null_count);
  }

  ints_.clear();
  doubles_.clear();
  offsets_.assign(1, 0);
  chars_.clear();
  valid_.clear();
  null_count_ = 0;
  return result;
}

TableBuilder::TableBuilder(Schema schema) : schema_(std::move(schema)) {
  builders_.reserve(schema_.num_fields());
  for (const auto& f : schema_.fields()) builders_.emplace_back(f.type);
}

Result<TablePtr> TableBuilder::Finish() {
  std::vector<ColumnPtr> cols;
  cols.reserve(builders_.size());
  for (auto& b : builders_) cols.push_back(b.Finish());
  return Table::Make(schema_, std::move(cols));
}

}  // namespace sirius::format
