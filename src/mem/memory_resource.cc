#include "mem/memory_resource.h"

#include <algorithm>
#include <cstdlib>

#include "common/bitutil.h"

namespace sirius::mem {

namespace {
constexpr size_t kAlignment = 64;
constexpr size_t kMinClass = 64;

size_t AlignUp(size_t v, size_t a) { return (v + a - 1) / a * a; }

/// Power-of-two size class of a pool request.
size_t ClassFor(size_t size) { return bit::NextPow2(std::max(size, kMinClass)); }
}  // namespace

SystemMemoryResource::SystemMemoryResource(std::string name)
    : name_(std::move(name)) {}

SystemMemoryResource::~SystemMemoryResource() = default;

Status SystemMemoryResource::Allocate(size_t size, void** out) {
  if (size == 0) size = kAlignment;
  size = AlignUp(size, kAlignment);
  void* p = std::aligned_alloc(kAlignment, size);
  if (p == nullptr) {
    return Status::OutOfMemory(name_ + ": aligned_alloc failed for " +
                               std::to_string(size) + " bytes");
  }
  allocated_.fetch_add(size);
  *out = p;
  return Status::OK();
}

void SystemMemoryResource::Deallocate(void* ptr, size_t size) {
  if (ptr == nullptr) return;
  if (size == 0) size = kAlignment;
  std::free(ptr);
  allocated_.fetch_sub(AlignUp(size, kAlignment));
}

PoolMemoryResource::PoolMemoryResource(MemoryResource* upstream)
    : upstream_(upstream) {}

PoolMemoryResource::~PoolMemoryResource() {
  for (const auto& [cls, blocks] : free_lists_) {
    for (void* p : blocks) upstream_->Deallocate(p, cls);
  }
}

Status PoolMemoryResource::Allocate(size_t size, void** out) {
  const size_t cls = ClassFor(size);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = free_lists_.find(cls);
    if (it != free_lists_.end() && !it->second.empty()) {
      *out = it->second.back();
      it->second.pop_back();
      allocated_.fetch_add(cls);
      return Status::OK();
    }
  }
  // A miss goes to the upstream outside the lock, so concurrent gathers do
  // not queue behind one another's fresh allocations.
  SIRIUS_RETURN_NOT_OK(upstream_->Allocate(cls, out));
  allocated_.fetch_add(cls);
  return Status::OK();
}

void PoolMemoryResource::Deallocate(void* ptr, size_t size) {
  if (ptr == nullptr) return;
  const size_t cls = ClassFor(size);
  std::lock_guard<std::mutex> lock(mu_);
  free_lists_[cls].push_back(ptr);
  allocated_.fetch_sub(cls);
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
  static SystemMemoryResource resource("host-heap");
  return &resource;
}

}  // namespace sirius::mem
