#include "gdf/copying.h"

#include <cstring>

#include "common/bitutil.h"

namespace sirius::gdf {

using format::Column;
using format::ColumnPtr;
using format::TablePtr;

namespace {

/// Rows [offset, offset + length) of `col`: one part of a range copy.
struct Range {
  const Column* col;
  size_t offset;
  size_t length;
};

/// The index rule both gathers share (see GatherColumnUncharged).
Status CheckIndices(const std::vector<index_t>& indices, size_t rows,
                    bool nulls_for_negative) {
  for (index_t i : indices) {
    if (i < 0 ? !nulls_for_negative : static_cast<size_t>(i) >= rows) {
      return Status::IndexError("gather index out of bounds: " + std::to_string(i));
    }
  }
  return Status::OK();
}

/// Wraps a copy's buffers as a column of `type`: `data` holds the values,
/// or the offsets of a string (into `chars`) or a list (into `child`).
ColumnPtr MakeColumn(const format::DataType& type, mem::Buffer data,
                     mem::Buffer chars, ColumnPtr child, size_t n,
                     mem::Buffer validity, size_t null_count) {
  if (type.is_string()) {
    return Column::MakeString(std::move(data), std::move(chars), n,
                              std::move(validity), null_count);
  }
  if (type.is_list()) {
    return Column::MakeList(std::move(data), std::move(child), n,
                            std::move(validity), null_count);
  }
  return Column::MakeFixed(type, std::move(data), n, std::move(validity),
                           null_count);
}

/// The rows of `parts`, stacked, as one new column of `type`: values (or
/// chars) in one memcpy per part, offsets rebased, a list's child copied
/// over each part's element range the same way, NULL slots with their bytes.
Result<ColumnPtr> CopyRanges(const Context& ctx, const std::vector<Range>& parts,
                             const format::DataType& type) {
  size_t n = 0;
  bool may_be_null = false;
  for (const Range& p : parts) {
    n += p.length;
    may_be_null = may_be_null || (p.length > 0 && p.col->has_nulls());
  }

  mem::Buffer data;
  mem::Buffer chars;
  ColumnPtr child;
  if (!type.is_string() && !type.is_list()) {
    const size_t width = static_cast<size_t>(type.byte_width());
    SIRIUS_ASSIGN_OR_RETURN(data, mem::Buffer::Allocate(n * width, ctx.mr));
    size_t row = 0;
    for (const Range& p : parts) {
      if (p.length == 0) continue;
      std::memcpy(data.data() + row * width,
                  p.col->data<uint8_t>() + p.offset * width, p.length * width);
      row += p.length;
    }
  } else {
    SIRIUS_ASSIGN_OR_RETURN(
        data, mem::Buffer::Allocate((n + 1) * sizeof(int64_t), ctx.mr));
    int64_t* off = data.data_as<int64_t>();
    off[0] = 0;
    // Each part's element range of its chars or list child.
    std::vector<Range> elems;
    size_t row = 0;
    for (const Range& p : parts) {
      if (p.length == 0) continue;
      const int64_t* src = p.col->offsets() + p.offset;
      const int64_t shift = off[row] - src[0];
      for (size_t k = 1; k <= p.length; ++k) off[row + k] = src[k] + shift;
      elems.push_back({p.col, static_cast<size_t>(src[0]),
                       static_cast<size_t>(src[p.length] - src[0])});
      row += p.length;
    }
    if (type.is_string()) {
      SIRIUS_ASSIGN_OR_RETURN(
          chars, mem::Buffer::Allocate(static_cast<size_t>(off[n]), ctx.mr));
      size_t pos = 0;
      for (const Range& e : elems) {
        // Only an all-empty copy leaves `chars` null: memcpy must not see it.
        if (e.length > 0) {
          std::memcpy(chars.data() + pos, e.col->chars() + e.offset, e.length);
        }
        pos += e.length;
      }
    } else {
      for (Range& e : elems) e.col = e.col->list_child().get();
      SIRIUS_ASSIGN_OR_RETURN(child, CopyRanges(ctx, elems, *type.child));
    }
  }

  mem::Buffer validity;
  size_t null_count = 0;
  if (may_be_null) {
    SIRIUS_ASSIGN_OR_RETURN(
        validity, mem::Buffer::AllocateZeroed(bit::BytesForBits(n), ctx.mr));
    size_t row = 0;
    for (const Range& p : parts) {
      for (size_t i = 0; i < p.length; ++i, ++row) {
        if (p.col->IsNull(p.offset + i)) {
          ++null_count;
        } else {
          bit::SetBit(validity.data(), row);
        }
      }
    }
    if (null_count == 0) validity = mem::Buffer{};
  }
  return MakeColumn(type, std::move(data), std::move(chars), std::move(child),
                    n, std::move(validity), null_count);
}

/// Copies slot indices[k] of `src` to slot k of `out`, W bytes a slot; a
/// negative index zeroes its slot.
template <size_t W>
void GatherSlots(const uint8_t* src, const std::vector<index_t>& indices,
                 uint8_t* out) {
  for (size_t k = 0; k < indices.size(); ++k, out += W) {
    if (indices[k] < 0) {
      std::memset(out, 0, W);
    } else {
      std::memcpy(out, src + static_cast<size_t>(indices[k]) * W, W);
    }
  }
}

/// Gathers `col` at `indices`, which passed CheckIndices. Values and string
/// or list offsets are written straight into the output buffers; a list's
/// child is a range copy over the gathered rows' element ranges.
Result<ColumnPtr> Gather(const Context& ctx, const Column& col,
                         const std::vector<index_t>& indices,
                         bool nulls_for_negative) {
  const format::DataType& type = col.type();
  const size_t n = indices.size();
  mem::Buffer data;
  mem::Buffer chars;
  ColumnPtr child;
  if (!type.is_string() && !type.is_list()) {
    const size_t width = static_cast<size_t>(type.byte_width());
    SIRIUS_ASSIGN_OR_RETURN(data, mem::Buffer::Allocate(n * width, ctx.mr));
    const uint8_t* src = col.data<uint8_t>();
    if (width == 1) {
      GatherSlots<1>(src, indices, data.data());
    } else if (width == 4) {
      GatherSlots<4>(src, indices, data.data());
    } else {
      GatherSlots<8>(src, indices, data.data());
    }
  } else {
    SIRIUS_ASSIGN_OR_RETURN(
        data, mem::Buffer::Allocate((n + 1) * sizeof(int64_t), ctx.mr));
    int64_t* off = data.data_as<int64_t>();
    const int64_t* src = col.offsets();
    off[0] = 0;
    for (size_t k = 0; k < n; ++k) {
      const index_t i = indices[k];
      off[k + 1] = off[k] + (i < 0 ? 0 : src[i + 1] - src[i]);
    }
    if (type.is_string()) {
      SIRIUS_ASSIGN_OR_RETURN(
          chars, mem::Buffer::Allocate(static_cast<size_t>(off[n]), ctx.mr));
      for (size_t k = 0; k < n; ++k) {
        const size_t len = static_cast<size_t>(off[k + 1] - off[k]);
        // Only empty strings leave `chars` null: memcpy must not see it.
        if (len > 0) {
          std::memcpy(chars.data() + off[k], col.chars() + src[indices[k]], len);
        }
      }
    } else {
      std::vector<Range> elems;
      for (size_t k = 0; k < n; ++k) {
        const size_t len = static_cast<size_t>(off[k + 1] - off[k]);
        if (len > 0) {
          elems.push_back({col.list_child().get(),
                           static_cast<size_t>(src[indices[k]]), len});
        }
      }
      SIRIUS_ASSIGN_OR_RETURN(child, CopyRanges(ctx, elems, *type.child));
    }
  }

  mem::Buffer validity;
  size_t null_count = 0;
  if (col.has_nulls() || nulls_for_negative) {
    SIRIUS_ASSIGN_OR_RETURN(
        validity, mem::Buffer::AllocateZeroed(bit::BytesForBits(n), ctx.mr));
    for (size_t k = 0; k < n; ++k) {
      const index_t i = indices[k];
      if (i < 0 || col.IsNull(static_cast<size_t>(i))) {
        ++null_count;
      } else {
        bit::SetBit(validity.data(), k);
      }
    }
    if (null_count == 0) validity = mem::Buffer{};
  }
  return MakeColumn(type, std::move(data), std::move(chars), std::move(child),
                    n, std::move(validity), null_count);
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

}  // namespace

Result<ColumnPtr> GatherColumnUncharged(const Context& ctx, const ColumnPtr& col,
                                        const std::vector<index_t>& indices,
                                        bool nulls_for_negative) {
  SIRIUS_RETURN_NOT_OK(CheckIndices(indices, col->length(), nulls_for_negative));
  return Gather(ctx, *col, indices, nulls_for_negative);
}

Result<TablePtr> GatherTable(const Context& ctx, const TablePtr& table,
                             const std::vector<index_t>& indices,
                             sim::OpCategory charge_as, bool nulls_for_negative) {
  if (table->num_columns() > 0) {
    SIRIUS_RETURN_NOT_OK(
        CheckIndices(indices, table->num_rows(), nulls_for_negative));
  }
  ctx.Charge(charge_as, GatherTableCost(*table, indices.size()));

  std::vector<ColumnPtr> cols;
  cols.reserve(table->num_columns());
  for (const ColumnPtr& col : table->columns()) {
    SIRIUS_ASSIGN_OR_RETURN(ColumnPtr out,
                            Gather(ctx, *col, indices, nulls_for_negative));
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
  cols.reserve(schema.num_fields());
  std::vector<Range> parts(tables.size());
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    for (size_t t = 0; t < tables.size(); ++t) {
      parts[t] = {tables[t]->column(c).get(), 0, tables[t]->num_rows()};
    }
    SIRIUS_ASSIGN_OR_RETURN(ColumnPtr out,
                            CopyRanges(ctx, parts, schema.field(c).type));
    cols.push_back(std::move(out));
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
    SIRIUS_ASSIGN_OR_RETURN(
        ColumnPtr out, CopyRanges(ctx, {{col.get(), offset, length}}, col->type()));
    cols.push_back(std::move(out));
  }
  return format::Table::Make(selected->schema(), std::move(cols));
}

}  // namespace sirius::gdf
