#include "gdf/copying.h"

#include <cstring>

#include "common/bitutil.h"
#include "format/builder.h"

namespace sirius::gdf {

using format::Column;
using format::ColumnPtr;
using format::TablePtr;
using format::TypeId;

namespace {

// Gather output buffers come from ctx.mr — the processing region's pool when
// the engine drives the kernel. Allocation failures (a failed heap
// allocation or an injected pressure resource) propagate as OutOfMemory;
// they must never abort, since the engine heals them by evicting/spilling or
// falling back to the CPU engine (§3.4).
template <typename T>
Result<ColumnPtr> GatherFixed(const Context& ctx, const ColumnPtr& col,
                              const std::vector<index_t>& indices,
                              bool nulls_for_negative) {
  const size_t n = indices.size();
  SIRIUS_ASSIGN_OR_RETURN(mem::Buffer data,
                          mem::Buffer::Allocate(n * sizeof(T), ctx.mr));
  T* out = data.data_as<T>();
  const T* src = col->data<T>();

  std::vector<bool> valid;
  size_t null_count = 0;
  const bool src_nulls = col->has_nulls();
  if (src_nulls || nulls_for_negative) valid.assign(n, true);

  for (size_t k = 0; k < n; ++k) {
    index_t idx = indices[k];
    if (idx < 0) {
      out[k] = T{};
      valid[k] = false;
    } else {
      out[k] = src[idx];
      if (src_nulls && col->IsNull(static_cast<size_t>(idx))) valid[k] = false;
    }
  }
  mem::Buffer validity;
  if (!valid.empty()) validity = format::ValidityFromBools(valid, &null_count);
  return Column::MakeFixed(col->type(), std::move(data), n, std::move(validity),
                           null_count);
}

Result<ColumnPtr> GatherString(const Context& ctx, const ColumnPtr& col,
                               const std::vector<index_t>& indices,
                               bool nulls_for_negative) {
  const size_t n = indices.size();
  const int64_t* src_off = col->offsets();
  const char* src_chars = col->chars();

  std::vector<int64_t> offsets(n + 1, 0);
  size_t total = 0;
  for (size_t k = 0; k < n; ++k) {
    index_t idx = indices[k];
    if (idx >= 0) total += static_cast<size_t>(src_off[idx + 1] - src_off[idx]);
    offsets[k + 1] = static_cast<int64_t>(total);
  }
  SIRIUS_ASSIGN_OR_RETURN(mem::Buffer chars,
                          mem::Buffer::Allocate(total, ctx.mr));
  char* out = chars.data_as<char>();
  size_t pos = 0;
  std::vector<bool> valid;
  size_t null_count = 0;
  const bool src_nulls = col->has_nulls();
  if (src_nulls || nulls_for_negative) valid.assign(n, true);
  for (size_t k = 0; k < n; ++k) {
    index_t idx = indices[k];
    if (idx < 0) {
      valid[k] = false;
      continue;
    }
    size_t len = static_cast<size_t>(src_off[idx + 1] - src_off[idx]);
    // Only empty strings leave `out` null: memcpy must not see it.
    if (len > 0) std::memcpy(out + pos, src_chars + src_off[idx], len);
    pos += len;
    if (src_nulls && col->IsNull(static_cast<size_t>(idx))) valid[k] = false;
  }
  SIRIUS_ASSIGN_OR_RETURN(
      mem::Buffer off_buf,
      mem::Buffer::Allocate((n + 1) * sizeof(int64_t), ctx.mr));
  std::memcpy(off_buf.data(), offsets.data(), (n + 1) * sizeof(int64_t));
  mem::Buffer validity;
  if (!valid.empty()) validity = format::ValidityFromBools(valid, &null_count);
  return Column::MakeString(std::move(off_buf), std::move(chars), n,
                            std::move(validity), null_count);
}

Result<ColumnPtr> GatherList(const Context& ctx, const ColumnPtr& col,
                             const std::vector<index_t>& indices,
                             bool nulls_for_negative);

Result<ColumnPtr> GatherImpl(const Context& ctx, const ColumnPtr& col,
                             const std::vector<index_t>& indices,
                             bool nulls_for_negative) {
  switch (col->type().id) {
    case TypeId::kBool:
      return GatherFixed<uint8_t>(ctx, col, indices, nulls_for_negative);
    case TypeId::kInt32:
    case TypeId::kDate32:
      return GatherFixed<int32_t>(ctx, col, indices, nulls_for_negative);
    case TypeId::kInt64:
    case TypeId::kDecimal64:
      return GatherFixed<int64_t>(ctx, col, indices, nulls_for_negative);
    case TypeId::kFloat64:
      return GatherFixed<double>(ctx, col, indices, nulls_for_negative);
    case TypeId::kString:
      return GatherString(ctx, col, indices, nulls_for_negative);
    case TypeId::kList:
      return GatherList(ctx, col, indices, nulls_for_negative);
  }
  return Status::Internal("gather: unhandled column type");
}

Result<ColumnPtr> GatherList(const Context& ctx, const ColumnPtr& col,
                             const std::vector<index_t>& indices,
                             bool nulls_for_negative) {
  const size_t n = indices.size();
  const int64_t* src_off = col->offsets();
  // New offsets + flattened child gather indices.
  std::vector<int64_t> offsets(n + 1, 0);
  std::vector<index_t> child_idx;
  std::vector<bool> valid;
  size_t null_count = 0;
  const bool src_nulls = col->has_nulls();
  if (src_nulls || nulls_for_negative) valid.assign(n, true);
  for (size_t k = 0; k < n; ++k) {
    index_t idx = indices[k];
    if (idx < 0) {
      valid[k] = false;
    } else {
      for (int64_t e = src_off[idx]; e < src_off[idx + 1]; ++e) {
        child_idx.push_back(static_cast<index_t>(e));
      }
      if (src_nulls && col->IsNull(static_cast<size_t>(idx))) valid[k] = false;
    }
    offsets[k + 1] = static_cast<int64_t>(child_idx.size());
  }
  SIRIUS_ASSIGN_OR_RETURN(ColumnPtr child,
                          GatherImpl(ctx, col->list_child(), child_idx,
                                     /*nulls_for_negative=*/false));
  SIRIUS_ASSIGN_OR_RETURN(
      mem::Buffer off_buf,
      mem::Buffer::Allocate((n + 1) * sizeof(int64_t), ctx.mr));
  std::memcpy(off_buf.data(), offsets.data(), (n + 1) * sizeof(int64_t));
  mem::Buffer validity;
  if (!valid.empty()) validity = format::ValidityFromBools(valid, &null_count);
  return Column::MakeList(std::move(off_buf), std::move(child), n,
                          std::move(validity), null_count);
}

/// GatherTable's charge for `rows` output rows of every column of `table`.
sim::KernelCost GatherTableCost(const format::Table& table, size_t rows) {
  sim::KernelCost cost;
  cost.rows = rows * std::max<size_t>(1, table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    cost.rand_bytes += rows * table.column(c)->type().byte_width();
    cost.seq_bytes += rows * table.column(c)->type().byte_width();
  }
  return cost;
}

/// Bits [offset, offset + n) of `col`'s validity, shifted down to bit 0 with
/// the tail of the last byte cleared. Empty when none of them is NULL, the
/// rule ValidityFromBools applies to a gather.
Result<mem::Buffer> SliceValidity(const Context& ctx, const Column& col,
                                  size_t offset, size_t n, size_t* null_count) {
  *null_count = 0;
  if (!col.has_nulls() || n == 0) return mem::Buffer{};
  const size_t bytes = bit::BytesForBits(n);
  SIRIUS_ASSIGN_OR_RETURN(mem::Buffer out, mem::Buffer::Allocate(bytes, ctx.mr));
  const uint8_t* src = col.validity() + offset / 8;
  const size_t src_bytes = bit::BytesForBits(col.length()) - offset / 8;
  const unsigned shift = offset % 8;
  uint8_t* dst = out.data();
  for (size_t j = 0; j < bytes; ++j) {
    unsigned v = src[j] >> shift;
    if (shift != 0 && j + 1 < src_bytes) v |= unsigned{src[j + 1]} << (8 - shift);
    dst[j] = static_cast<uint8_t>(v);
  }
  if (n % 8 != 0) dst[bytes - 1] &= static_cast<uint8_t>((1u << (n % 8)) - 1);
  *null_count = n - bit::CountSetBits(dst, n);
  if (*null_count == 0) return mem::Buffer{};
  return out;
}

/// Rows [offset, offset + n) of `col` as one contiguous copy per buffer:
/// values (or chars) in one memcpy, offsets rebased to 0, a list's child
/// sliced over its element range. The buffers match GatherImpl's over the
/// same rows byte for byte, and are allocated in the same order.
Result<ColumnPtr> SliceColumn(const Context& ctx, const ColumnPtr& col,
                              size_t offset, size_t n) {
  const format::DataType& type = col->type();
  size_t null_count = 0;
  if (!type.is_string() && !type.is_list()) {
    const size_t width = static_cast<size_t>(type.byte_width());
    SIRIUS_ASSIGN_OR_RETURN(mem::Buffer data,
                            mem::Buffer::Allocate(n * width, ctx.mr));
    if (n > 0) {
      std::memcpy(data.data(), col->data<uint8_t>() + offset * width, n * width);
    }
    SIRIUS_ASSIGN_OR_RETURN(mem::Buffer validity,
                            SliceValidity(ctx, *col, offset, n, &null_count));
    return Column::MakeFixed(type, std::move(data), n, std::move(validity),
                             null_count);
  }

  const int64_t* src_off = n > 0 ? col->offsets() + offset : nullptr;
  const int64_t begin = n > 0 ? src_off[0] : 0;
  const size_t elems = n > 0 ? static_cast<size_t>(src_off[n] - begin) : 0;
  mem::Buffer chars;
  ColumnPtr child;
  if (type.is_string()) {
    SIRIUS_ASSIGN_OR_RETURN(chars, mem::Buffer::Allocate(elems, ctx.mr));
    // Only an all-empty range leaves `chars` null: memcpy must not see it.
    if (elems > 0) std::memcpy(chars.data(), col->chars() + begin, elems);
  } else {
    SIRIUS_ASSIGN_OR_RETURN(
        child, SliceColumn(ctx, col->list_child(), static_cast<size_t>(begin),
                           elems));
  }
  SIRIUS_ASSIGN_OR_RETURN(
      mem::Buffer off_buf,
      mem::Buffer::Allocate((n + 1) * sizeof(int64_t), ctx.mr));
  int64_t* off = off_buf.data_as<int64_t>();
  off[0] = 0;
  for (size_t k = 1; k <= n; ++k) off[k] = src_off[k] - begin;
  SIRIUS_ASSIGN_OR_RETURN(mem::Buffer validity,
                          SliceValidity(ctx, *col, offset, n, &null_count));
  if (type.is_string()) {
    return Column::MakeString(std::move(off_buf), std::move(chars), n,
                              std::move(validity), null_count);
  }
  return Column::MakeList(std::move(off_buf), std::move(child), n,
                          std::move(validity), null_count);
}

/// Column `c` of every table, stacked into the buffers ColumnBuilder::Finish
/// produces from the boxed values: BOOLs as 0/1, NULL slots zero (empty for
/// strings), and a validity bitmap only when some row is NULL. The output
/// lives on the default resource, like the builder's.
ColumnPtr ConcatColumn(const std::vector<TablePtr>& tables, size_t c,
                       const format::DataType& type) {
  size_t n = 0;
  bool any_null = false;
  for (const auto& t : tables) {
    n += t->column(c)->length();
    any_null = any_null || t->column(c)->has_nulls();
  }
  mem::Buffer validity;
  size_t null_count = 0;
  if (any_null) {
    validity = mem::Buffer::AllocateZeroed(bit::BytesForBits(n)).ValueOrDie();
    size_t row = 0;
    for (const auto& t : tables) {
      const ColumnPtr& col = t->column(c);
      for (size_t i = 0; i < col->length(); ++i, ++row) {
        if (col->IsNull(i)) {
          ++null_count;
        } else {
          bit::SetBit(validity.data(), row);
        }
      }
    }
  }

  if (type.is_string()) {
    mem::Buffer offsets =
        mem::Buffer::Allocate((n + 1) * sizeof(int64_t)).ValueOrDie();
    int64_t* off = offsets.data_as<int64_t>();
    off[0] = 0;
    size_t row = 0;
    for (const auto& t : tables) {
      const ColumnPtr& col = t->column(c);
      const int64_t* src = col->offsets();
      for (size_t i = 0; i < col->length(); ++i, ++row) {
        off[row + 1] = off[row] + (col->IsNull(i) ? 0 : src[i + 1] - src[i]);
      }
    }
    mem::Buffer chars =
        mem::Buffer::Allocate(static_cast<size_t>(off[n])).ValueOrDie();
    row = 0;
    for (const auto& t : tables) {
      const ColumnPtr& col = t->column(c);
      for (size_t i = 0; i < col->length(); ++i, ++row) {
        const size_t len = static_cast<size_t>(off[row + 1] - off[row]);
        if (len > 0) {
          std::memcpy(chars.data() + off[row],
                      col->chars() + col->offsets()[i], len);
        }
      }
    }
    return Column::MakeString(std::move(offsets), std::move(chars), n,
                              std::move(validity), null_count);
  }

  const size_t width = static_cast<size_t>(type.byte_width());
  mem::Buffer data = mem::Buffer::Allocate(n * width).ValueOrDie();
  uint8_t* out = data.data();
  for (const auto& t : tables) {
    const ColumnPtr& col = t->column(c);
    const size_t len = col->length();
    if (type.id == TypeId::kBool) {
      const uint8_t* src = col->data<uint8_t>();
      for (size_t i = 0; i < len; ++i) out[i] = !col->IsNull(i) && src[i] != 0;
    } else if (len > 0) {
      std::memcpy(out, col->data<uint8_t>(), len * width);
      if (col->has_nulls()) {
        for (size_t i = 0; i < len; ++i) {
          if (col->IsNull(i)) std::memset(out + i * width, 0, width);
        }
      }
    }
    out += len * width;
  }
  return Column::MakeFixed(type, std::move(data), n, std::move(validity),
                           null_count);
}

}  // namespace

Result<ColumnPtr> GatherColumn(const Context& ctx, const ColumnPtr& col,
                               const std::vector<index_t>& indices) {
  for (index_t i : indices) {
    if (i < 0 || static_cast<size_t>(i) >= col->length()) {
      return Status::IndexError("gather index out of bounds: " + std::to_string(i));
    }
  }
  sim::KernelCost cost;
  cost.rand_bytes = indices.size() * col->type().byte_width();
  cost.seq_bytes = indices.size() * (sizeof(index_t) + col->type().byte_width());
  cost.rows = indices.size();
  ctx.Charge(sim::OpCategory::kProject, cost);
  return GatherImpl(ctx, col, indices, /*nulls_for_negative=*/false);
}

Result<ColumnPtr> GatherColumnWithNulls(const Context& ctx, const ColumnPtr& col,
                                        const std::vector<index_t>& indices) {
  for (index_t i : indices) {
    if (static_cast<size_t>(i) >= col->length() && i >= 0) {
      return Status::IndexError("gather index out of bounds: " + std::to_string(i));
    }
  }
  sim::KernelCost cost;
  cost.rand_bytes = indices.size() * col->type().byte_width();
  cost.seq_bytes = indices.size() * (sizeof(index_t) + col->type().byte_width());
  cost.rows = indices.size();
  ctx.Charge(sim::OpCategory::kProject, cost);
  return GatherImpl(ctx, col, indices, /*nulls_for_negative=*/true);
}

Result<ColumnPtr> GatherColumnUncharged(const Context& ctx, const ColumnPtr& col,
                                        const std::vector<index_t>& indices,
                                        bool nulls_for_negative) {
  for (index_t i : indices) {
    if (static_cast<size_t>(i) >= col->length() &&
        (i >= 0 || !nulls_for_negative)) {
      return Status::IndexError("gather index out of bounds: " + std::to_string(i));
    }
  }
  return GatherImpl(ctx, col, indices, nulls_for_negative);
}

Result<TablePtr> GatherTable(const Context& ctx, const TablePtr& table,
                             const std::vector<index_t>& indices,
                             sim::OpCategory charge_as, bool nulls_for_negative) {
  ctx.Charge(charge_as, GatherTableCost(*table, indices.size()));

  std::vector<ColumnPtr> cols;
  cols.reserve(table->num_columns());
  for (size_t c = 0; c < table->num_columns(); ++c) {
    SIRIUS_ASSIGN_OR_RETURN(
        ColumnPtr out,
        GatherImpl(ctx, table->column(c), indices, nulls_for_negative));
    cols.push_back(std::move(out));
  }
  return format::Table::Make(table->schema(), std::move(cols));
}

Result<TablePtr> ConcatTables(const Context& ctx,
                              const std::vector<TablePtr>& tables) {
  if (tables.empty()) return Status::Invalid("ConcatTables: no inputs");
  const auto& schema = tables[0]->schema();
  uint64_t bytes = 0;
  for (const auto& t : tables) {
    if (!t->schema().Equals(schema)) {
      return Status::Invalid("ConcatTables: schema mismatch");
    }
    bytes += t->MemoryUsage();
  }
  sim::KernelCost cost;
  cost.seq_bytes = 2 * bytes;
  ctx.Charge(sim::OpCategory::kOther, cost);

  std::vector<ColumnPtr> cols;
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    const format::DataType& type = schema.field(c).type;
    if (!type.is_list()) {
      cols.push_back(ConcatColumn(tables, c, type));
      continue;
    }
    // A list boxes as its rendering, which the builder refuses.
    format::ColumnBuilder b(type);
    for (const auto& t : tables) {
      const ColumnPtr& col = t->column(c);
      for (size_t i = 0; i < col->length(); ++i) {
        SIRIUS_RETURN_NOT_OK(b.AppendScalar(col->GetScalar(i)));
      }
    }
    cols.push_back(b.Finish());
  }
  return format::Table::Make(schema, std::move(cols));
}

Result<TablePtr> SliceTable(const Context& ctx, const TablePtr& table,
                            const std::vector<int>& columns, size_t offset,
                            size_t length) {
  SIRIUS_ASSIGN_OR_RETURN(TablePtr selected, table->SelectColumns(columns));
  offset = std::min(offset, table->num_rows());
  length = std::min(length, table->num_rows() - offset);
  ctx.Charge(sim::OpCategory::kOther, GatherTableCost(*table, length));

  std::vector<ColumnPtr> cols;
  cols.reserve(selected->num_columns());
  for (const ColumnPtr& col : selected->columns()) {
    SIRIUS_ASSIGN_OR_RETURN(ColumnPtr out, SliceColumn(ctx, col, offset, length));
    cols.push_back(std::move(out));
  }
  return format::Table::Make(selected->schema(), std::move(cols));
}

}  // namespace sirius::gdf
