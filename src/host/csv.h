// CSV import/export for the host database.
//
// The paper (§3.2.3): "Sirius relies on the host database to read data from
// disk" — this is that disk path. One format: comma-separated, RFC-4180-style
// quoting, a header line of column names, and an empty unquoted cell for
// NULL (a quoted empty cell is the empty string). Reads take an explicit
// schema or infer one.

#pragma once

#include <string>

#include "common/result.h"
#include "format/table.h"

namespace sirius::host {

/// Reads a CSV file against an explicit schema (column count must match;
/// names come from the schema, the header line is skipped).
Result<format::TablePtr> ReadCsv(const std::string& path,
                                 const format::Schema& schema);

/// Reads a CSV file, inferring column types (INT64 -> FLOAT64 -> DATE32 ->
/// STRING) from the first 100 rows; the header names the columns.
Result<format::TablePtr> ReadCsvInferSchema(const std::string& path);

/// Writes a table as CSV (header + quoted strings where needed).
Status WriteCsv(const format::TablePtr& table, const std::string& path);

/// \name In-memory variants (testing and embedding).
/// @{
Result<format::TablePtr> ParseCsv(const std::string& text,
                                  const format::Schema& schema);
Result<format::TablePtr> ParseCsvInferSchema(const std::string& text);
Result<std::string> FormatCsv(const format::TablePtr& table);
/// @}

}  // namespace sirius::host
