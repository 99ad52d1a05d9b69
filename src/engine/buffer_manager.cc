#include "engine/buffer_manager.h"

#include <algorithm>

namespace sirius::engine {

using format::ColumnPtr;
using format::TablePtr;

BufferManager::BufferManager(Options options)
    : options_(options),
      cache_capacity_(static_cast<uint64_t>(
          static_cast<double>(options.device_capacity_bytes) *
          options.cache_fraction)),
      processing_capacity_(options.device_capacity_bytes - cache_capacity_),
      pool_(mem::DefaultResource()),
      processing_reservations_(processing_capacity_, "processing-region") {}

namespace {

/// True when `entry_source` was taken from `column` itself (owner equality:
/// an expired stamp never matches a live column).
bool SameSource(const std::weak_ptr<const format::Column>& entry_source,
                const ColumnPtr& column) {
  return !entry_source.owner_before(column) &&
         !column.owner_before(entry_source);
}

}  // namespace

void BufferManager::DropEntry(CacheMap::iterator it,
                              sim::HazardTracker* hazards) {
  // Retire the generation: any handle stamped with it is now stale, and
  // validating one reports use-after-evict.
  mem::LifetimeTracker::Global().OnFree(it->second.generation);
  if (hazards != nullptr) hazards->ReleaseResource(it->second.generation);
  cached_modeled_bytes_ -= it->second.modeled_bytes;
  lru_.erase(it->second.lru_pos);
  cache_.erase(it);
}

bool BufferManager::EvictUntilFits(uint64_t needed,
                                   const std::vector<CacheKey>& pinned,
                                   sim::HazardTracker* hazards) {
  auto is_pinned = [&](const CacheKey& k) {
    for (const auto& p : pinned) {
      if (!(p < k) && !(k < p)) return true;
    }
    return cache_.find(k)->second.pins > 0;
  };
  while (cached_modeled_bytes_ + needed > cache_capacity_) {
    // Find the least-recently-used unpinned entry.
    auto victim = lru_.end();
    for (auto it = std::prev(lru_.end());; --it) {
      if (!is_pinned(*it)) {
        victim = it;
        break;
      }
      if (it == lru_.begin()) break;
    }
    if (victim == lru_.end()) return false;
    auto entry = cache_.find(*victim);
    // In a tiered system a pressure eviction is a writeback (the column
    // re-loads from the tier below); account it for the per-tier gauges.
    if (options_.tiers != nullptr) {
      options_.tiers->NoteEvictionWriteback(entry->second.modeled_bytes);
    }
    DropEntry(entry, hazards);
    ++evictions_;
  }
  return true;
}

Result<TablePtr> BufferManager::GetOrCacheColumns(
    const std::string& name, const TablePtr& host_table,
    const std::vector<int>& columns, const sim::SimContext& sim) {
  std::vector<CacheKey> keys;
  keys.reserve(columns.size());
  for (int c : columns) keys.push_back({name, c});

  // Filled under mu_: one shared encoded column per requested column, in
  // request order. A failure stops the loop; the columns before it are
  // still decoded and charged below, as a scan that read them would be.
  std::vector<std::shared_ptr<const format::EncodedColumn>> encoded;
  encoded.reserve(columns.size());
  Status status;
  format::Schema schema;
  uint64_t cold_bytes_raw = 0;
  size_t hits = 0;
  size_t misses = 0;
  uint64_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t evictions_before = evictions_;
    for (size_t i = 0; i < columns.size(); ++i) {
      const int c = columns[i];
      if (c < 0 || static_cast<size_t>(c) >= host_table->num_columns()) {
        status = Status::IndexError("GetOrCacheColumns: bad column " +
                                    std::to_string(c));
        break;
      }
      schema.AddField(host_table->schema().field(c));
      const ColumnPtr& host_col = host_table->column(c);
      auto it = cache_.find(keys[i]);
      if (it != cache_.end() && !SameSource(it->second.source, host_col)) {
        // The host replaced the table since this column was cached: the
        // entry holds the old rows. Drop it like an eviction and reload.
        DropEntry(it, sim.hazards);
        it = cache_.end();
      }
      if (it == cache_.end()) {
        ++misses;
        // Cold column: load over the host link, encode into the caching
        // region (lightweight compression, §3.4).
        Result<format::EncodedColumn> encoded_col = format::Encode(host_col);
        if (!encoded_col.ok()) {
          status = encoded_col.status();
          break;
        }
        CacheEntry entry;
        entry.encoded = std::make_shared<const format::EncodedColumn>(
            std::move(encoded_col).ValueOrDie());
        entry.source = host_col;
        entry.modeled_bytes = static_cast<uint64_t>(
            static_cast<double>(entry.encoded->CompressedBytes()) *
            sim.data_scale);
        if (!EvictUntilFits(entry.modeled_bytes, keys, sim.hazards)) {
          status = Status::OutOfMemory(
              "caching region cannot fit column " + name + "." +
              std::to_string(c) + " (" + std::to_string(entry.modeled_bytes) +
              " resident bytes of " + std::to_string(cache_capacity_) + ")");
          break;
        }
        entry.generation = mem::LifetimeTracker::Global().OnAlloc(
            entry.modeled_bytes,
            name + "." + std::to_string(c) + " cache entry");
        // The load populates the entry on this stream; record the event that
        // readers on other streams must order after (the stream-sync a real
        // device inserts after the H2D copy + decompress).
        if (sim.hazards != nullptr) {
          sim.NoteWrite(entry.generation, "cold load " + name + "." +
                                              std::to_string(c));
          entry.ready_event = sim.hazards->RecordEvent(sim.stream);
          entry.ready_tracker = sim.hazards->id();
        }
        cold_bytes_raw += host_col->MemoryUsage();
        lru_.push_front(keys[i]);
        entry.lru_pos = lru_.begin();
        cached_modeled_bytes_ += entry.modeled_bytes;
        it = cache_.emplace(keys[i], std::move(entry)).first;
      } else {
        // Hot hit: refresh LRU position.
        ++hits;
        lru_.erase(it->second.lru_pos);
        lru_.push_front(keys[i]);
        it->second.lru_pos = lru_.begin();
        mem::LifetimeTracker::Global().OnAccess(
            it->second.generation,
            "hot read " + name + "." + std::to_string(c));
        if (sim.hazards != nullptr) {
          // Only wait on the ready event if it belongs to the active
          // tracker; entries loaded by a previous query are ordered by the
          // query boundary itself (the runner drains all pipelines between
          // runs).
          if (it->second.ready_event >= 0 &&
              it->second.ready_tracker == sim.hazards->id()) {
            sim.hazards->StreamWaitEvent(sim.stream, it->second.ready_event);
          }
          sim.NoteRead(it->second.generation,
                       "hot read " + name + "." + std::to_string(c));
        }
      }
      encoded.push_back(it->second.encoded);
    }
    evicted = evictions_ - evictions_before;
  }

  // Decode on access, outside mu_: reads the compressed bytes at device
  // bandwidth plus a per-value unpack op.
  std::vector<ColumnPtr> out;
  out.reserve(encoded.size());
  for (const auto& column : encoded) {
    SIRIUS_ASSIGN_OR_RETURN(ColumnPtr decoded, format::Decode(*column));
    sim::KernelCost cost;
    cost.seq_bytes = column->CompressedBytes() + decoded->MemoryUsage();
    cost.rows = decoded->length();
    cost.ops_per_row = 2.0;
    sim.Charge(sim::OpCategory::kScan, cost);
    out.push_back(std::move(decoded));
  }
  SIRIUS_RETURN_NOT_OK(status);
  if (cold_bytes_raw > 0) {
    // Cold-path host->device transfer, bracketed by a "buffer" span so a
    // trace distinguishes reloads from cache hits (hits emit no span).
    obs::Span load_span(sim.trace, sim.track, "load:" + name, "buffer",
                        sim.TraceClock());
    sim.ChargeSeconds(
        sim::OpCategory::kOther,
        options_.host_link.TransferSeconds(cold_bytes_raw, sim.data_scale));
    load_span.SetAttr("bytes", static_cast<double>(cold_bytes_raw));
    load_span.SetAttr("columns", static_cast<double>(misses));
  }
  if (sim.trace != nullptr) {
    if (hits > 0) sim.trace->AddCounter("buffer.hits", hits);
    if (misses > 0) sim.trace->AddCounter("buffer.misses", misses);
    if (evicted > 0) sim.trace->AddCounter("buffer.evictions", evicted);
  }
  return format::Table::Make(std::move(schema), std::move(out));
}

size_t BufferManager::EvictAll() {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t evicted = cache_.size();
  for (const auto& [key, entry] : cache_) {
    // OnFree flags free-while-pinned when a kernel still holds the column.
    mem::LifetimeTracker::Global().OnFree(entry.generation);
  }
  cache_.clear();
  lru_.clear();
  cached_modeled_bytes_ = 0;
  evictions_ += evicted;
  return evicted;
}

Result<BufferManager::ColumnHandle> BufferManager::HandleFor(
    const std::string& name, int col) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find({name, col});
  if (it == cache_.end()) {
    return Status::KeyError("HandleFor: " + name + "." + std::to_string(col) +
                            " is not cached");
  }
  return ColumnHandle{name, col, it->second.generation};
}

Status BufferManager::ValidateHandle(const ColumnHandle& handle) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find({handle.table, handle.column});
    if (it != cache_.end() && it->second.generation == handle.generation) {
      return Status::OK();
    }
  }
  // Stale: the column was evicted (and possibly reloaded under a new
  // generation). Report outside mu_ — the tracker may abort.
  mem::LifetimeTracker::Global().OnAccess(
      handle.generation, "handle " + handle.table + "." +
                             std::to_string(handle.column));
  return Status::ExecutionError(
      "use-after-evict: " + handle.table + "." +
      std::to_string(handle.column) + " generation " +
      std::to_string(handle.generation) + " is no longer resident");
}

Status BufferManager::PinColumn(const std::string& name, int col) {
  uint64_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find({name, col});
    if (it == cache_.end()) {
      return Status::KeyError("PinColumn: " + name + "." +
                              std::to_string(col) + " is not cached");
    }
    ++it->second.pins;
    generation = it->second.generation;
  }
  mem::LifetimeTracker::Global().OnPin(generation);
  return Status::OK();
}

Status BufferManager::UnpinColumn(const std::string& name, int col) {
  uint64_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find({name, col});
    if (it == cache_.end() || it->second.pins <= 0) {
      return Status::KeyError("UnpinColumn: " + name + "." +
                              std::to_string(col) + " has no pin to release");
    }
    --it->second.pins;
    generation = it->second.generation;
  }
  mem::LifetimeTracker::Global().OnUnpin(generation);
  return Status::OK();
}

bool BufferManager::IsCached(const std::string& name, int col) const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.count({name, col}) > 0;
}

uint64_t BufferManager::cached_modeled_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cached_modeled_bytes_;
}

uint64_t BufferManager::eviction_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

Status BufferManager::ReserveProcessing(uint64_t modeled_bytes) const {
  if (modeled_bytes > processing_capacity_) {
    return Status::OutOfMemory(
        "processing region: intermediate of " + std::to_string(modeled_bytes) +
        " bytes exceeds " + std::to_string(processing_capacity_));
  }
  return Status::OK();
}

Result<std::vector<gdf::index_t>> BufferManager::ToGdfIndices(
    const std::vector<uint64_t>& rows, const sim::SimContext& sim) {
  std::vector<gdf::index_t> out(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i] > static_cast<uint64_t>(INT32_MAX)) {
      return Status::Invalid("row index " + std::to_string(rows[i]) +
                             " exceeds the GDF int32 index range");
    }
    out[i] = static_cast<gdf::index_t>(rows[i]);
  }
  // The uint64->int32 narrowing is a real copy in Sirius (§3.2.3).
  sim::KernelCost cost;
  cost.seq_bytes = rows.size() * (sizeof(uint64_t) + sizeof(gdf::index_t));
  cost.rows = rows.size();
  sim.Charge(sim::OpCategory::kOther, cost);
  return out;
}

std::vector<uint64_t> BufferManager::FromGdfIndices(
    const std::vector<gdf::index_t>& rows, const sim::SimContext& sim) {
  std::vector<uint64_t> out(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) out[i] = static_cast<uint64_t>(rows[i]);
  sim::KernelCost cost;
  cost.seq_bytes = rows.size() * (sizeof(uint64_t) + sizeof(gdf::index_t));
  cost.rows = rows.size();
  sim.Charge(sim::OpCategory::kOther, cost);
  return out;
}

}  // namespace sirius::engine
