#include "mem/buffer.h"

namespace sirius::mem {

Result<Buffer> Buffer::Allocate(size_t size, MemoryResource* resource) {
  if (resource == nullptr) resource = DefaultResource();
  Buffer b;
  b.resource_ = resource;
  b.size_ = size;
  if (size > 0) SIRIUS_RETURN_NOT_OK(resource->Allocate(size, &b.data_));
  return b;
}

Result<Buffer> Buffer::AllocateZeroed(size_t size, MemoryResource* resource) {
  SIRIUS_ASSIGN_OR_RETURN(Buffer b, Allocate(size, resource));
  if (size > 0) std::memset(b.data(), 0, size);
  return b;
}

}  // namespace sirius::mem
