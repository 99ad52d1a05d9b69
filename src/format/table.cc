#include "format/table.h"

#include <algorithm>
#include <numeric>
#include <sstream>

namespace sirius::format {

int Schema::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

std::string Schema::ToString() const {
  std::ostringstream out;
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out << ", ";
    out << fields_[i].name << ": " << fields_[i].type.ToString();
  }
  return out.str();
}

Result<TablePtr> Table::Make(Schema schema, std::vector<ColumnPtr> columns) {
  if (schema.num_fields() != columns.size()) {
    return Status::Invalid("Table::Make: schema has " +
                           std::to_string(schema.num_fields()) + " fields but " +
                           std::to_string(columns.size()) + " columns given");
  }
  size_t rows = columns.empty() ? 0 : columns[0]->length();
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == nullptr) return Status::Invalid("Table::Make: null column");
    if (columns[i]->length() != rows) {
      return Status::Invalid("Table::Make: column " + std::to_string(i) +
                             " length mismatch");
    }
    if (columns[i]->type() != schema.field(i).type) {
      return Status::TypeError("Table::Make: column '" + schema.field(i).name +
                               "' type " + columns[i]->type().ToString() +
                               " != schema type " +
                               schema.field(i).type.ToString());
    }
  }
  auto t = std::shared_ptr<Table>(new Table());
  t->schema_ = std::move(schema);
  t->columns_ = std::move(columns);
  t->num_rows_ = rows;
  return t;
}

TablePtr Table::Empty() {
  return Make(Schema{}, {}).ValueOrDie();
}

ColumnPtr Table::ColumnByName(const std::string& name) const {
  int idx = schema_.IndexOf(name);
  return idx < 0 ? nullptr : columns_[idx];
}

Result<TablePtr> Table::SelectColumns(const std::vector<int>& indices) const {
  std::vector<Field> fields;
  std::vector<ColumnPtr> cols;
  for (int i : indices) {
    if (i < 0 || static_cast<size_t>(i) >= columns_.size()) {
      return Status::IndexError("SelectColumns: index " + std::to_string(i) +
                                " out of range");
    }
    fields.push_back(schema_.field(i));
    cols.push_back(columns_[i]);
  }
  return Make(Schema(std::move(fields)), std::move(cols));
}

std::vector<int> Table::ColumnIndices() const {
  std::vector<int> indices(columns_.size());
  std::iota(indices.begin(), indices.end(), 0);
  return indices;
}

uint64_t Table::MemoryUsage() const {
  uint64_t total = 0;
  for (const auto& c : columns_) total += c->MemoryUsage();
  return total;
}

bool Table::Equals(const Table& other) const {
  if (!schema_.Equals(other.schema_) || num_rows_ != other.num_rows_) return false;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (!columns_[i]->Equals(*other.columns_[i])) return false;
  }
  return true;
}

namespace {
std::string RenderRow(const Table& t, size_t row) {
  std::string out;
  for (size_t c = 0; c < t.num_columns(); ++c) {
    if (c > 0) out += "|";
    out += t.column(c)->GetScalar(row).ToString();
  }
  return out;
}
}  // namespace

bool Table::EqualsUnordered(const Table& other) const {
  if (num_rows_ != other.num_rows_ || num_columns() != other.num_columns()) {
    return false;
  }
  std::vector<std::string> a(num_rows_), b(num_rows_);
  for (size_t i = 0; i < num_rows_; ++i) {
    a[i] = RenderRow(*this, i);
    b[i] = RenderRow(other, i);
  }
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

std::string Table::ToString(size_t limit) const {
  std::ostringstream out;
  const size_t rows = std::min(limit, num_rows_);
  std::vector<std::vector<std::string>> cells(rows + 1);
  cells[0].reserve(num_columns());
  for (size_t c = 0; c < num_columns(); ++c) cells[0].push_back(schema_.field(c).name);
  for (size_t r = 0; r < rows; ++r) {
    cells[r + 1].reserve(num_columns());
    for (size_t c = 0; c < num_columns(); ++c) {
      cells[r + 1].push_back(columns_[c]->GetScalar(r).ToString());
    }
  }
  std::vector<size_t> widths(num_columns(), 0);
  for (const auto& row : cells) {
    for (size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());
  }
  auto emit_row = [&](const std::vector<std::string>& row) {
    out << "|";
    for (size_t c = 0; c < row.size(); ++c) {
      out << " " << row[c] << std::string(widths[c] - row[c].size(), ' ') << " |";
    }
    out << "\n";
  };
  if (!cells.empty() && !cells[0].empty()) {
    emit_row(cells[0]);
    out << "|";
    for (size_t c = 0; c < num_columns(); ++c) out << std::string(widths[c] + 2, '-') << "|";
    out << "\n";
    for (size_t r = 1; r < cells.size(); ++r) emit_row(cells[r]);
  }
  if (num_rows_ > rows) {
    out << "... (" << num_rows_ - rows << " more rows)\n";
  }
  return out.str();
}

}  // namespace sirius::format
