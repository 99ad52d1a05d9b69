#include "mem/memory_resource.h"

#include <cstdlib>

#include "common/bitutil.h"

namespace sirius::mem {

namespace {
constexpr size_t kAlignment = 64;
constexpr size_t kMinClass = 64;

size_t AlignUp(size_t v, size_t a) { return (v + a - 1) / a * a; }
}  // namespace

SystemMemoryResource::SystemMemoryResource(size_t capacity, std::string name)
    : capacity_(capacity), name_(std::move(name)) {}

SystemMemoryResource::~SystemMemoryResource() = default;

Status SystemMemoryResource::Allocate(size_t size, void** out) {
  if (size == 0) size = kAlignment;
  size = AlignUp(size, kAlignment);
  size_t prev = allocated_.fetch_add(size);
  if (capacity_ != 0 && prev + size > capacity_) {
    allocated_.fetch_sub(size);
    return Status::OutOfMemory(name_ + ": allocation of " + std::to_string(size) +
                               " bytes exceeds capacity " +
                               std::to_string(capacity_) + " (in use " +
                               std::to_string(prev) + ")");
  }
  void* p = std::aligned_alloc(kAlignment, size);
  if (p == nullptr) {
    allocated_.fetch_sub(size);
    return Status::OutOfMemory(name_ + ": aligned_alloc failed for " +
                               std::to_string(size) + " bytes");
  }
  *out = p;
  return Status::OK();
}

void SystemMemoryResource::Deallocate(void* ptr, size_t size) {
  if (ptr == nullptr) return;
  if (size == 0) size = kAlignment;
  std::free(ptr);
  allocated_.fetch_sub(AlignUp(size, kAlignment));
}

PoolMemoryResource::PoolMemoryResource(MemoryResource* upstream, size_t pool_size)
    : upstream_(upstream), pool_size_(pool_size) {
  void* p = nullptr;
  Status st = upstream_->Allocate(pool_size_, &p);
  SIRIUS_CHECK_OK(st);
  arena_ = static_cast<uint8_t*>(p);
}

PoolMemoryResource::~PoolMemoryResource() {
  upstream_->Deallocate(arena_, pool_size_);
}

size_t PoolMemoryResource::ClassFor(size_t size) const {
  if (size < kMinClass) size = kMinClass;
  return bit::NextPow2(size);
}

Status PoolMemoryResource::Allocate(size_t size, void** out) {
  const size_t cls = ClassFor(size);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = free_lists_.find(cls);
  if (it != free_lists_.end() && !it->second.empty()) {
    *out = it->second.back();
    it->second.pop_back();
    ++free_list_hits_;
  } else {
    if (bump_ + cls > pool_size_) {
      return Status::OutOfMemory(
          "pool: allocation of " + std::to_string(cls) +
          " bytes exceeds processing region of " + std::to_string(pool_size_) +
          " bytes (bump offset " + std::to_string(bump_) + ")");
    }
    *out = arena_ + bump_;
    bump_ += cls;
  }
  allocated_ += cls;
  high_water_ = std::max(high_water_, allocated_);
  return Status::OK();
}

void PoolMemoryResource::Deallocate(void* ptr, size_t size) {
  if (ptr == nullptr) return;
  const size_t cls = ClassFor(size);
  std::lock_guard<std::mutex> lock(mu_);
  free_lists_[cls].push_back(ptr);
  allocated_ -= cls;
}

PressureMemoryResource::PressureMemoryResource(MemoryResource* upstream,
                                               size_t fail_every_nth,
                                               size_t skip_first)
    : upstream_(upstream),
      fail_every_nth_(fail_every_nth),
      skip_first_(skip_first) {}

Status PressureMemoryResource::Allocate(size_t size, void** out) {
  const size_t request = requests_.fetch_add(1) + 1;
  if (fail_every_nth_ != 0 && request > skip_first_ &&
      (request - skip_first_) % fail_every_nth_ == 0) {
    injected_.fetch_add(1);
    return Status::OutOfMemory(name() + ": injected allocation failure (request #" +
                               std::to_string(request) + ", " +
                               std::to_string(size) + " bytes)");
  }
  return upstream_->Allocate(size, out);
}

void PressureMemoryResource::Deallocate(void* ptr, size_t size) {
  upstream_->Deallocate(ptr, size);
}

MemoryResource* DefaultResource() {
  static SystemMemoryResource resource(0, "host-heap");
  return &resource;
}

}  // namespace sirius::mem
