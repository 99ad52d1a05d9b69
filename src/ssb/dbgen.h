// Deterministic in-repo Star Schema Benchmark (SSB) data generator.
//
// Second first-class workload family next to src/tpch: one denormalized
// fact table (lineorder) surrounded by four dimension tables (customer,
// supplier, part, date), following the SSB specification's schema, key
// structure and value domains (O'Neil et al., "Star Schema Benchmark").
// Cardinalities scale with `sf`: customer 30k*sf, supplier 2k*sf,
// part 200k*sf, lineorder ~6M*sf (1-7 lines per order); the date dimension
// is fixed at one row per day of 1992-01-01 .. 1998-12-31.
//
// Two knobs the TPC-H family does not have (the paper's §4.2 pain points):
//
//  * `skew` — Zipf exponent applied to the fact table's dimension foreign
//    keys (lo_custkey / lo_partkey / lo_suppkey). 0 = uniform (the SSB
//    default); 1-2 concentrate the join build sides onto a few hot keys.
//  * `string_heavy` — lengthens the payload/group-by string columns
//    (names, cities, p_brand1) with a deterministic per-value suffix, so
//    string sort-based group-bys and string predicates dominate. Padded
//    values keep their logical prefix: range predicates written as
//    [value, next-prefix) match identically in both variants.
//
// Same options => identical bytes, across processes and platforms.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "format/table.h"

namespace sirius::ssb {

/// Generation knobs; the default is the plain SSB configuration.
struct SsbOptions {
  double sf = 0.01;
  /// Zipf exponent on lo_custkey / lo_partkey / lo_suppkey (0 = uniform).
  double skew = 0.0;
  /// Lengthen group-by/payload strings (names, cities, p_brand1).
  bool string_heavy = false;
  /// Extra characters appended to each padded value when string_heavy.
  int string_pad = 64;
  /// Salt mixed into every per-table generator stream.
  uint64_t seed = 0;
};

/// Table schemas (SSB column names; money columns are integer cents).
format::Schema CustomerSchema();
format::Schema SupplierSchema();
format::Schema PartSchema();
format::Schema DateSchema();
format::Schema LineorderSchema();

/// \brief Generates one SSB table (deterministic: same options => identical
/// bytes). Valid names: ssb_customer, ssb_supplier, ssb_part, dwdate,
/// lineorder. The ssb_ prefix keeps the dimensions disjoint from the TPC-H
/// tables of the same role, so both families coexist in one catalog
/// (heterogeneous serving workloads).
Result<format::TablePtr> GenerateTable(const std::string& name,
                                       const SsbOptions& options);

/// All five table names in generation order.
const std::vector<std::string>& TableNames();

/// Number of days in the date dimension (1992-01-01 .. 1998-12-31).
int NumDateRows();

}  // namespace sirius::ssb
