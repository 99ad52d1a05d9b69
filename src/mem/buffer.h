// RAII buffer over a MemoryResource (rmm::device_buffer equivalent).

#pragma once

#include <cstdint>
#include <cstring>
#include <utility>

#include "common/result.h"
#include "common/status.h"
#include "mem/memory_resource.h"

namespace sirius::mem {

/// \brief Owning, resizable byte buffer bound to a MemoryResource.
class Buffer {
 public:
  Buffer() = default;
  ~Buffer() { Release(); }

  Buffer(Buffer&& other) noexcept { *this = std::move(other); }
  Buffer& operator=(Buffer&& other) noexcept {
    if (this != &other) {
      Release();
      resource_ = other.resource_;
      data_ = other.data_;
      size_ = other.size_;
      other.resource_ = nullptr;
      other.data_ = nullptr;
      other.size_ = 0;
    }
    return *this;
  }

  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  /// Allocates a buffer of `size` bytes from `resource` (DefaultResource()
  /// when null). Contents are uninitialized.
  static Result<Buffer> Allocate(size_t size, MemoryResource* resource = nullptr);

  /// Allocates and zero-fills.
  static Result<Buffer> AllocateZeroed(size_t size,
                                       MemoryResource* resource = nullptr);

  uint8_t* data() { return static_cast<uint8_t*>(data_); }
  const uint8_t* data() const { return static_cast<const uint8_t*>(data_); }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  template <typename T>
  T* data_as() {
    return reinterpret_cast<T*>(data_);
  }
  template <typename T>
  const T* data_as() const {
    return reinterpret_cast<const T*>(data_);
  }

 private:
  void Release() {
    if (data_ != nullptr && resource_ != nullptr) {
      resource_->Deallocate(data_, size_);
    }
    data_ = nullptr;
    size_ = 0;
  }

  MemoryResource* resource_ = nullptr;
  void* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace sirius::mem
