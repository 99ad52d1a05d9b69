// Plan + result caching for the serving layer, keyed on normalized SQL.
//
// Serving workloads repeat: dashboards refresh the same queries, many
// sessions issue textually-near-identical SQL. The cache stores optimized
// plans (skipping parse/bind/optimize) and, for fully repeated statements,
// the result table itself (skipping execution entirely).
//
// Every entry is stamped with the catalog write-version it was built under
// (host::Catalog::version()); a lookup presenting a newer version treats the
// entry as invalid — any catalog write may change any cached answer, so the
// invalidation is coarse and correct rather than precise.

#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <string>

#include "format/table.h"
#include "plan/plan.h"

namespace sirius::serve {

/// Canonicalizes SQL for cache keying: lowercases everything outside
/// single-quoted string literals and collapses runs of whitespace to one
/// space (trimmed). "SELECT  *\nFROM t" and "select * from t" share a key;
/// literal case ('BRAZIL') is preserved.
std::string NormalizeSql(const std::string& sql);

/// \brief LRU cache of optimized plans and result tables, version-stamped
/// against the catalog. Thread-safe.
class QueryCache {
 public:
  /// One cached result: the table plus the simulated execution cost the
  /// original run charged (reports attribute saved device-seconds to hits).
  struct CachedResult {
    format::TablePtr table;
    double exec_seconds = 0;
  };

  /// `cache_results` false caches plans only: result lookups find nothing
  /// and result inserts are dropped.
  explicit QueryCache(bool cache_results) : cache_results_(cache_results) {}

  /// Plan for `normalized_sql` built under `catalog_version`, or null on
  /// miss. A version mismatch discards the entry (counted as invalidation).
  plan::PlanPtr LookupPlan(const std::string& normalized_sql,
                           uint64_t catalog_version);
  void InsertPlan(const std::string& normalized_sql, uint64_t catalog_version,
                  plan::PlanPtr plan);

  /// Result lookup with the same version discipline.
  bool LookupResult(const std::string& normalized_sql,
                    uint64_t catalog_version, CachedResult* out);
  void InsertResult(const std::string& normalized_sql,
                    uint64_t catalog_version, CachedResult result);

  /// True when a live (version-matching) entry exists for `normalized_sql`
  /// — plan or result. The placement policy reads this as "this statement
  /// ran recently against the current catalog", one of the warm-device
  /// signals; it does not touch LRU order.
  bool HasLiveEntry(const std::string& normalized_sql,
                    uint64_t catalog_version) const;

  /// Drops every entry stamped with a version older than `current_version`
  /// and returns how many were dropped (counted as invalidations). Version
  /// stamping already makes lazy invalidation correct; the cluster tier
  /// calls this eagerly when a catalog-write invalidation arrives over the
  /// fabric so replica occupancy reflects live entries only.
  size_t EvictStale(uint64_t current_version);

  /// Entries discarded for a stale catalog version, lazily on lookup or
  /// eagerly through EvictStale.
  uint64_t invalidations() const;
  size_t size() const;

 private:
  struct Entry {
    uint64_t version = 0;
    plan::PlanPtr plan;  ///< may be null (result cached via a bypassed plan)
    bool has_result = false;
    CachedResult result;
    std::list<std::string>::iterator lru_it;
  };

  /// Returns the live entry for `key`/`version`, dropping a stale one.
  /// Caller holds mu_.
  Entry* FindLive(const std::string& key, uint64_t version);
  /// Returns (creating if needed) the entry for `key`, moving it to the LRU
  /// front and evicting from the tail past capacity. Caller holds mu_.
  Entry* Touch(const std::string& key, uint64_t version);

  /// LRU capacity in entries (plans and results together).
  static constexpr size_t kMaxEntries = 256;

  const bool cache_results_;
  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
  std::list<std::string> lru_;  ///< front = most recent
  uint64_t invalidations_ = 0;
};

}  // namespace sirius::serve
