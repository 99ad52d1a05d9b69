// Memory-resource hierarchy, mirroring RMM (paper §2.2, §3.2.3).
//
// Sirius' buffer manager builds two regions on top of these resources: a
// pre-allocated caching region and an RMM-pool-managed processing region.
// On this machine "device memory" is host memory owned by a resource with a
// capacity limit equal to the modeled device's HBM size.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace sirius::mem {

/// \brief Abstract allocator in the style of rmm::mr::device_memory_resource.
class MemoryResource {
 public:
  virtual ~MemoryResource() = default;

  /// Allocates `size` bytes, 64-byte aligned. On success stores the pointer
  /// in *out. Returns OutOfMemory when the resource's capacity is exhausted.
  virtual Status Allocate(size_t size, void** out) = 0;

  /// Returns memory obtained from Allocate. `size` must match.
  virtual void Deallocate(void* ptr, size_t size) = 0;

  /// Human-readable name for diagnostics.
  virtual std::string name() const = 0;

  /// Bytes currently allocated from this resource.
  virtual size_t bytes_allocated() const = 0;
};

/// \brief Heap-backed resource with an optional capacity cap.
///
/// Models raw device memory: capacity equals the device's HBM size, so
/// exceeding it surfaces the same OOM the paper's out-of-core extension
/// (§3.4) exists to handle.
class SystemMemoryResource : public MemoryResource {
 public:
  /// `capacity` = 0 means unlimited.
  explicit SystemMemoryResource(size_t capacity = 0, std::string name = "system");
  ~SystemMemoryResource() override;

  Status Allocate(size_t size, void** out) override;
  void Deallocate(void* ptr, size_t size) override;
  std::string name() const override { return name_; }
  size_t bytes_allocated() const override { return allocated_.load(); }
  size_t capacity() const { return capacity_; }

 private:
  size_t capacity_;
  std::string name_;
  std::atomic<size_t> allocated_{0};
};

/// \brief Pool (arena) resource in the style of rmm::mr::pool_memory_resource.
///
/// Carves allocations out of a pre-reserved arena using power-of-two size
/// classes with per-class free lists. Used for Sirius' data-processing
/// region, where intermediate results churn quickly (§3.2.3).
class PoolMemoryResource : public MemoryResource {
 public:
  /// Pre-reserves `pool_size` bytes from `upstream` (not owned).
  PoolMemoryResource(MemoryResource* upstream, size_t pool_size);
  ~PoolMemoryResource() override;

  Status Allocate(size_t size, void** out) override;
  void Deallocate(void* ptr, size_t size) override;
  std::string name() const override { return "pool(" + upstream_->name() + ")"; }
  size_t bytes_allocated() const override { return allocated_; }

  size_t pool_size() const { return pool_size_; }
  /// Highest concurrent allocation seen, for sizing diagnostics.
  size_t high_water_mark() const { return high_water_; }
  /// Number of allocations served from a free list (vs carved fresh).
  size_t free_list_hits() const { return free_list_hits_; }

 private:
  size_t ClassFor(size_t size) const;

  MemoryResource* upstream_;
  size_t pool_size_;
  uint8_t* arena_ = nullptr;
  size_t bump_ = 0;  // next fresh offset
  mutable std::mutex mu_;
  std::map<size_t, std::vector<void*>> free_lists_;  // size class -> blocks
  size_t allocated_ = 0;
  size_t high_water_ = 0;
  size_t free_list_hits_ = 0;
};

/// \brief Adaptor that injects allocation pressure: every Nth allocation
/// fails with OutOfMemory.
///
/// Deterministic by construction (no RNG): the Nth, 2Nth, ... requests that
/// reach it fail exactly, so chaos tests replay. Wraps the processing-region
/// resource to exercise the §3.4 out-of-core / CPU-fallback paths under real
/// allocation failures, not just capacity pre-checks.
class PressureMemoryResource : public MemoryResource {
 public:
  /// Fails allocation number `fail_every_nth`, 2*Nth, ... (1 = every
  /// request). `skip_first` requests pass untouched before counting starts;
  /// 0 for `fail_every_nth` disables injection entirely.
  PressureMemoryResource(MemoryResource* upstream, size_t fail_every_nth,
                         size_t skip_first = 0);

  Status Allocate(size_t size, void** out) override;
  void Deallocate(void* ptr, size_t size) override;
  std::string name() const override {
    return "pressure(" + upstream_->name() + ")";
  }
  size_t bytes_allocated() const override { return upstream_->bytes_allocated(); }

  /// Allocation requests seen (including injected failures).
  size_t num_requests() const { return requests_.load(); }
  /// OutOfMemory failures injected.
  size_t num_injected_failures() const { return injected_.load(); }

 private:
  MemoryResource* upstream_;
  size_t fail_every_nth_;
  size_t skip_first_;
  std::atomic<size_t> requests_{0};
  std::atomic<size_t> injected_{0};
};

/// Process-wide unlimited resource (host heap).
MemoryResource* DefaultResource();

}  // namespace sirius::mem
