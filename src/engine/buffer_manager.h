// Sirius buffer manager (paper §3.2.3).
//
// Splits device memory into a pre-allocated *caching* region (input
// columns, hot across queries) and an RMM-pool *processing* region
// (intermediates). Caching is column-granular with LRU eviction. Cached
// columns are held lightweight-compressed (paper §3.4, format::Encode), and
// the region's accounting uses their real encoded size. A scan decodes the
// columns it reads; the decode runs outside the manager's mutex, so
// concurrent scans of hot columns decode in parallel. Each entry is stamped
// with the host column it was loaded from, so a table replaced in the host
// catalog reloads instead of serving the old rows. Also owns the format
// boundaries: the encode from the host database's format on cold load, and
// the uint64 (engine) <-> int32 (GDF/libcudf) row index conversion the
// paper calls out.

#pragma once

#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "format/encoding.h"
#include "format/table.h"
#include "gdf/context.h"
#include "mem/buffer.h"
#include "mem/memory_resource.h"
#include "mem/reservation.h"
#include "sim/cost_model.h"
#include "sim/interconnect.h"

namespace sirius::engine {

/// \brief Device-memory manager with caching/processing regions.
class BufferManager {
 public:
  struct Options {
    /// Modeled device memory, bytes (defaults from the device profile).
    uint64_t device_capacity_bytes = 92ull << 30;
    /// Host<->device link used for cold loads.
    sim::Link host_link = sim::NvlinkC2c();
    /// When set, processing_resource() returns this instead of the built-in
    /// pool — the hook for injecting allocation pressure (fault tests) or an
    /// instrumented allocator. Not owned.
    mem::MemoryResource* processing_override = nullptr;
  };

  explicit BufferManager(Options options);

  /// \brief Returns the requested columns of `name` as a device-resident
  /// table, loading missing columns from `host_table` over the host link.
  ///
  /// Cold columns charge transfer time to `sim`; hot columns charge no
  /// transfer (the evaluation's "hot run" methodology, §4.1). Every column
  /// returned is decoded from its cached encoding, which charges a scan of
  /// the compressed plus the decoded bytes. A column cached from a
  /// different host column than `host_table` now holds (the table was
  /// replaced) is dropped and reloaded as a miss. When the caching region
  /// is full, least-recently-used columns are evicted; if the requested
  /// columns alone cannot fit, returns OutOfMemory (the out-of-core batch
  /// path or host fallback takes over, §3.4).
  Result<format::TablePtr> GetOrCacheColumns(const std::string& name,
                                             const format::TablePtr& host_table,
                                             const std::vector<int>& columns,
                                             const sim::SimContext& sim);

  /// Drops every cached column (cold-run ablations, OOM recovery). Returns
  /// the number of columns evicted. A scan that already took a column keeps
  /// reading its own shared copy.
  size_t EvictAll();

  /// True when column `col` of `name` is resident.
  bool IsCached(const std::string& name, int col = 0) const;

  /// Modeled compressed bytes resident in the caching region.
  uint64_t cached_modeled_bytes() const;
  uint64_t cache_capacity_bytes() const { return cache_capacity_; }
  uint64_t processing_capacity_bytes() const { return processing_capacity_; }
  /// Number of LRU evictions performed (cache-pressure diagnostics).
  uint64_t eviction_count() const;

  /// Checks that an intermediate of `bytes` (modeled) fits the processing
  /// region; OutOfMemory otherwise (drives out-of-core / fallback, §3.4).
  Status ReserveProcessing(uint64_t modeled_bytes) const;

  /// Admission-time reservation budget over the processing region. The
  /// serving layer reserves a query's estimated working set here before
  /// dispatch and releases it on every exit path; the engine grows a
  /// query's reservation when an intermediate exceeds the estimate.
  mem::ReservationPool& processing_reservations() {
    return processing_reservations_;
  }

  /// The allocator backing the processing region (RMM pool equivalent), or
  /// the configured override. It recycles blocks but enforces no capacity:
  /// ReserveProcessing and the reservation pool bound the modeled region.
  mem::MemoryResource* processing_resource() {
    return options_.processing_override != nullptr
               ? options_.processing_override
               : &pool_;
  }

  /// \brief Prices §3.2.3's row-index boundary for a selection of `rows`
  /// indices: Sirius keeps uint64 row ids and libcudf takes int32, so each
  /// selection is widened to uint64 and narrowed back. Charges both copies
  /// to `sim` (kOther, 12 bytes a row and one launch each); the int32
  /// indices themselves are used as they are.
  static void ChargeIndexBoundary(size_t rows, const sim::SimContext& sim);

 private:
  struct CacheKey {
    std::string table;
    int column;
    bool operator<(const CacheKey& o) const {
      return table != o.table ? table < o.table : column < o.column;
    }
  };
  struct CacheEntry {
    /// Compressed representation; immutable once cached, so scans decode a
    /// shared copy of the pointer without holding mu_.
    std::shared_ptr<const format::EncodedColumn> encoded;
    /// The host column the entry was loaded from. Compared by owner, so a
    /// new column allocated at a recycled address never matches.
    std::weak_ptr<const format::Column> source;
    uint64_t modeled_bytes = 0;  ///< resident (compressed) bytes * data_scale
    std::list<CacheKey>::iterator lru_pos;
    /// Hazard-tracker resource id (sim::NewResourceId), minted at load; a
    /// reload after an eviction is a new resource.
    uint64_t resource = 0;
    /// Hazard-tracker event recorded by the loading stream; readers on other
    /// streams wait on it (the ordering edge a real device inserts with a
    /// stream sync after the H2D copy). Only meaningful while the tracker
    /// whose id() == ready_tracker is the active one — entries outlive
    /// per-query trackers, and a stale EventId must not be waited on.
    sim::EventId ready_event = -1;
    uint64_t ready_tracker = 0;
  };
  using CacheMap = std::map<CacheKey, CacheEntry>;

  /// Caller holds mu_. Removes `it`: makes `hazards` (may be null) forget
  /// its resource and returns its bytes to the region.
  void DropEntry(CacheMap::iterator it, sim::HazardTracker* hazards);

  /// Caller holds mu_. Evicts LRU entries not in `pinned` (the columns of
  /// the request being served) until `needed` fits. Returns false if
  /// impossible. `hazards` (may be null) forgets the evicted resources.
  bool EvictUntilFits(uint64_t needed, const std::vector<CacheKey>& pinned,
                      sim::HazardTracker* hazards);

  Options options_;
  uint64_t cache_capacity_;
  uint64_t processing_capacity_;
  mem::PoolMemoryResource pool_;
  mem::ReservationPool processing_reservations_;

  /// Guards the cache bookkeeping below: lookup, load, LRU order, eviction
  /// and hazard events. Decoding a cached column does not need it.
  mutable std::mutex mu_;
  CacheMap cache_;
  std::list<CacheKey> lru_;  ///< front = most recent
  uint64_t cached_modeled_bytes_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace sirius::engine
