#include "host/csv.h"

#include <cctype>
#include <fstream>
#include <sstream>

#include "format/builder.h"

namespace sirius::host {

using format::ColumnBuilder;
using format::DataType;
using format::Schema;
using format::TablePtr;
using format::TypeId;

namespace {

constexpr char kDelimiter = ',';
/// Rows examined for type inference (schema-less reads).
constexpr size_t kInferenceRows = 100;

/// Splits one CSV record (RFC-4180 quoting: "" escapes a quote inside a
/// quoted cell). Returns cell texts plus per-cell "was quoted" flags.
Status SplitRecord(const std::string& line, std::vector<std::string>* cells,
                   std::vector<bool>* quoted) {
  cells->clear();
  quoted->clear();
  std::string cell;
  bool in_quotes = false, cell_quoted = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cell += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cell += c;
      }
    } else if (c == '"' && cell.empty()) {
      in_quotes = true;
      cell_quoted = true;
    } else if (c == kDelimiter) {
      cells->push_back(std::move(cell));
      quoted->push_back(cell_quoted);
      cell.clear();
      cell_quoted = false;
    } else {
      cell += c;
    }
  }
  if (in_quotes) return Status::ParseError("unterminated quote in CSV record");
  cells->push_back(std::move(cell));
  quoted->push_back(cell_quoted);
  return Status::OK();
}

bool LooksLikeInt(const std::string& s) {
  if (s.empty()) return false;
  size_t i = s[0] == '-' || s[0] == '+' ? 1 : 0;
  if (i == s.size()) return false;
  for (; i < s.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(s[i]))) return false;
  }
  return true;
}

bool LooksLikeDouble(const std::string& s) {
  if (s.empty()) return false;
  char* end = nullptr;
  std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

bool LooksLikeDate(const std::string& s) {
  return s.size() == 10 && s[4] == '-' && s[7] == '-' &&
         format::ParseDate(s) != INT32_MIN;
}

Status AppendCell(ColumnBuilder* b, const DataType& type, const std::string& cell,
                  bool was_quoted, size_t line_no) {
  if (!was_quoted && cell.empty()) {
    b->AppendNull();
    return Status::OK();
  }
  auto fail = [&](const char* what) {
    return Status::ParseError("CSV line " + std::to_string(line_no) + ": '" +
                              cell + "' is not a valid " + what);
  };
  switch (type.id) {
    case TypeId::kInt32:
    case TypeId::kInt64: {
      if (!LooksLikeInt(cell)) return fail("integer");
      b->AppendInt(std::stoll(cell));
      return Status::OK();
    }
    case TypeId::kFloat64: {
      if (!LooksLikeDouble(cell)) return fail("number");
      b->AppendDouble(std::stod(cell));
      return Status::OK();
    }
    case TypeId::kDecimal64: {
      if (!LooksLikeDouble(cell)) return fail("decimal");
      return b->AppendScalar(format::Scalar::FromDouble(std::stod(cell)));
    }
    case TypeId::kDate32: {
      int32_t days = format::ParseDate(cell);
      if (days == INT32_MIN) return fail("date");
      b->AppendInt(days);
      return Status::OK();
    }
    case TypeId::kBool: {
      if (cell == "true" || cell == "1") {
        b->AppendBool(true);
      } else if (cell == "false" || cell == "0") {
        b->AppendBool(false);
      } else {
        return fail("bool");
      }
      return Status::OK();
    }
    case TypeId::kString:
      b->AppendString(cell);
      return Status::OK();
    case TypeId::kList:
      return Status::NotImplemented("CSV does not support LIST columns");
  }
  return Status::Internal("unhandled CSV type");
}

Result<std::vector<std::string>> ReadLines(std::istream& in) {
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!line.empty()) lines.push_back(std::move(line));
  }
  return lines;
}

/// Parses every line after the header against `schema`.
Result<TablePtr> ParseLines(const std::vector<std::string>& lines,
                            const Schema& schema) {
  format::TableBuilder builder(schema);
  std::vector<std::string> cells;
  std::vector<bool> quoted;
  for (size_t i = 1; i < lines.size(); ++i) {
    SIRIUS_RETURN_NOT_OK(SplitRecord(lines[i], &cells, &quoted));
    if (cells.size() != schema.num_fields()) {
      return Status::ParseError(
          "CSV line " + std::to_string(i + 1) + ": expected " +
          std::to_string(schema.num_fields()) + " cells, got " +
          std::to_string(cells.size()));
    }
    for (size_t c = 0; c < cells.size(); ++c) {
      SIRIUS_RETURN_NOT_OK(AppendCell(&builder.column(c), schema.field(c).type,
                                      cells[c], quoted[c], i + 1));
    }
  }
  return builder.Finish();
}

Result<Schema> InferSchema(const std::vector<std::string>& lines) {
  if (lines.empty()) return Status::ParseError("CSV: empty input");
  std::vector<std::string> names;
  std::vector<bool> quoted;
  SIRIUS_RETURN_NOT_OK(SplitRecord(lines[0], &names, &quoted));

  const size_t cols = names.size();
  // Per-column candidate lattice: int -> double -> date -> string.
  std::vector<bool> can_int(cols, true), can_double(cols, true),
      can_date(cols, true), saw_value(cols, false);
  std::vector<std::string> cells;
  const size_t limit = std::min(lines.size(), kInferenceRows + 1);
  for (size_t i = 1; i < limit; ++i) {
    SIRIUS_RETURN_NOT_OK(SplitRecord(lines[i], &cells, &quoted));
    if (cells.size() != cols) {
      return Status::ParseError("CSV line " + std::to_string(i + 1) +
                                ": ragged row during inference");
    }
    for (size_t c = 0; c < cols; ++c) {
      if (!quoted[c] && cells[c].empty()) continue;  // NULL
      saw_value[c] = true;
      if (quoted[c]) {  // quoted cells are strings by intent
        can_int[c] = can_double[c] = can_date[c] = false;
        continue;
      }
      can_int[c] = can_int[c] && LooksLikeInt(cells[c]);
      can_double[c] = can_double[c] && LooksLikeDouble(cells[c]);
      can_date[c] = can_date[c] && LooksLikeDate(cells[c]);
    }
  }
  Schema schema;
  for (size_t c = 0; c < cols; ++c) {
    DataType t = format::String();
    if (saw_value[c]) {
      if (can_int[c]) {
        t = format::Int64();
      } else if (can_date[c]) {
        t = format::Date32();
      } else if (can_double[c]) {
        t = format::Float64();
      }
    }
    schema.AddField({names[c], t});
  }
  return schema;
}

bool NeedsQuoting(const std::string& s) {
  return s.find(kDelimiter) != std::string::npos ||
         s.find('"') != std::string::npos || s.find('\n') != std::string::npos;
}

std::string QuoteCell(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

Result<TablePtr> ParseCsv(const std::string& text, const Schema& schema) {
  std::istringstream in(text);
  SIRIUS_ASSIGN_OR_RETURN(std::vector<std::string> lines, ReadLines(in));
  return ParseLines(lines, schema);
}

Result<TablePtr> ParseCsvInferSchema(const std::string& text) {
  std::istringstream in(text);
  SIRIUS_ASSIGN_OR_RETURN(std::vector<std::string> lines, ReadLines(in));
  SIRIUS_ASSIGN_OR_RETURN(Schema schema, InferSchema(lines));
  return ParseLines(lines, schema);
}

Result<TablePtr> ReadCsv(const std::string& path, const Schema& schema) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::IOError("cannot open '" + path + "'");
  SIRIUS_ASSIGN_OR_RETURN(std::vector<std::string> lines, ReadLines(in));
  return ParseLines(lines, schema);
}

Result<TablePtr> ReadCsvInferSchema(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::IOError("cannot open '" + path + "'");
  SIRIUS_ASSIGN_OR_RETURN(std::vector<std::string> lines, ReadLines(in));
  SIRIUS_ASSIGN_OR_RETURN(Schema schema, InferSchema(lines));
  return ParseLines(lines, schema);
}

Result<std::string> FormatCsv(const TablePtr& table) {
  std::ostringstream out;
  for (size_t c = 0; c < table->num_columns(); ++c) {
    if (c > 0) out << kDelimiter;
    out << table->schema().field(c).name;
  }
  out << "\n";
  for (size_t r = 0; r < table->num_rows(); ++r) {
    for (size_t c = 0; c < table->num_columns(); ++c) {
      if (c > 0) out << kDelimiter;
      const auto& col = table->column(c);
      if (col->IsNull(r)) continue;  // NULL is an empty unquoted cell
      if (col->type().is_string()) {
        std::string cell(col->StringAt(r));
        out << (NeedsQuoting(cell) ? QuoteCell(cell) : cell);
      } else {
        format::Scalar s = col->GetScalar(r);
        std::string rendered = s.ToString();
        // Scalar::ToString quotes strings; everything else is plain.
        out << rendered;
      }
    }
    out << "\n";
  }
  return out.str();
}

Status WriteCsv(const TablePtr& table, const std::string& path) {
  SIRIUS_ASSIGN_OR_RETURN(std::string text, FormatCsv(table));
  std::ofstream out(path);
  if (!out.is_open()) return Status::IOError("cannot open '" + path + "'");
  out << text;
  return out.good() ? Status::OK()
                    : Status::IOError("write failed for '" + path + "'");
}

}  // namespace sirius::host
