// Memory-resource hierarchy, mirroring RMM (paper §2.2, §3.2.3).
//
// Sirius' buffer manager builds two regions on top of these resources: a
// pre-allocated caching region and an RMM-pool-managed processing region.
// On this machine "device memory" is host memory. These resources enforce
// no capacity of their own: the buffer manager's modeled regions are the
// only memory limit.

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
  /// in *out. Returns OutOfMemory when the allocation fails.
  virtual Status Allocate(size_t size, void** out) = 0;

  /// Returns memory obtained from Allocate. `size` must match.
  virtual void Deallocate(void* ptr, size_t size) = 0;

  /// Human-readable name for diagnostics.
  virtual std::string name() const = 0;

  /// Bytes currently allocated from this resource.
  virtual size_t bytes_allocated() const = 0;
};

/// \brief Heap-backed resource that tracks the bytes it hands out.
class SystemMemoryResource : public MemoryResource {
 public:
  explicit SystemMemoryResource(std::string name = "system");
  ~SystemMemoryResource() override;

  Status Allocate(size_t size, void** out) override;
  void Deallocate(void* ptr, size_t size) override;
  std::string name() const override { return name_; }
  size_t bytes_allocated() const override { return allocated_.load(); }

 private:
  std::string name_;
  std::atomic<size_t> allocated_{0};
};

/// \brief Recycling pool in the style of rmm::mr::pool_memory_resource.
///
/// Rounds each request up to a power-of-two size class and keeps freed
/// blocks on per-class free lists, so the processing region's churning
/// intermediates (§3.2.3) reuse blocks instead of returning them to the
/// upstream. A miss takes a fresh block from the upstream. The pool has no
/// capacity of its own.
class PoolMemoryResource : public MemoryResource {
 public:
  /// `upstream` is not owned and must outlive the pool.
  explicit PoolMemoryResource(MemoryResource* upstream);
  /// Returns every cached free block to the upstream.
  ~PoolMemoryResource() override;

  Status Allocate(size_t size, void** out) override;
  void Deallocate(void* ptr, size_t size) override;
  std::string name() const override { return "pool(" + upstream_->name() + ")"; }
  size_t bytes_allocated() const override { return allocated_.load(); }

 private:
  MemoryResource* upstream_;
  std::mutex mu_;
  std::map<size_t, std::vector<void*>> free_lists_;  // size class -> blocks
  std::atomic<size_t> allocated_{0};
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
