// Schema and Table: named, typed collections of columns.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "format/column.h"

namespace sirius::format {

/// \brief A named, typed column slot.
struct Field {
  std::string name;
  DataType type;

  Field() = default;
  Field(std::string n, DataType t) : name(std::move(n)), type(t) {}
  bool operator==(const Field& o) const { return name == o.name && type == o.type; }
};

/// \brief Ordered list of fields.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields) : fields_(std::move(fields)) {}

  size_t num_fields() const { return fields_.size(); }
  const Field& field(size_t i) const { return fields_[i]; }
  const std::vector<Field>& fields() const { return fields_; }

  /// Index of a field by name, -1 when absent.
  int IndexOf(const std::string& name) const;

  void AddField(Field f) { fields_.push_back(std::move(f)); }

  bool Equals(const Schema& other) const { return fields_ == other.fields_; }
  std::string ToString() const;

 private:
  std::vector<Field> fields_;
};

class Table;
using TablePtr = std::shared_ptr<Table>;

/// \brief An immutable table: a schema plus equal-length columns.
class Table {
 public:
  /// Builds a table; column count/lengths must agree with the schema.
  static Result<TablePtr> Make(Schema schema, std::vector<ColumnPtr> columns);

  /// An empty (0-column, 0-row) table.
  static TablePtr Empty();

  const Schema& schema() const { return schema_; }
  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const { return num_rows_; }

  const ColumnPtr& column(size_t i) const { return columns_[i]; }
  const std::vector<ColumnPtr>& columns() const { return columns_; }

  /// Column by name; nullptr when absent.
  ColumnPtr ColumnByName(const std::string& name) const;

  /// Projects a subset of columns (by index) into a new table.
  Result<TablePtr> SelectColumns(const std::vector<int>& indices) const;

  /// Every column index in order, 0 .. num_columns() - 1.
  std::vector<int> ColumnIndices() const;

  /// Total bytes across all column buffers.
  uint64_t MemoryUsage() const;

  /// Deep value equality including column names.
  bool Equals(const Table& other) const;

  /// Renders up to `limit` rows as an aligned ASCII table.
  std::string ToString(size_t limit = 20) const;

  /// Compares value-by-value ignoring row order: sorts a canonical text
  /// rendering of each row on both sides. For cross-engine result checks.
  bool EqualsUnordered(const Table& other) const;

 private:
  Table() = default;
  Schema schema_;
  std::vector<ColumnPtr> columns_;
  size_t num_rows_ = 0;
};

}  // namespace sirius::format
