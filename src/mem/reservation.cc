#include "mem/reservation.h"

#include <utility>

namespace sirius::mem {

ReservationPool::ReservationPool(uint64_t capacity, std::string name)
    : capacity_(capacity), name_(std::move(name)) {}

Status ReservationPool::TryReserve(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (reserved_ + bytes > capacity_) {
    ++refused_;
    return Status::ResourceExhausted(
        "reservation of " + std::to_string(bytes) + " bytes exceeds '" +
        name_ + "' budget (" + std::to_string(reserved_) + " of " +
        std::to_string(capacity_) + " reserved)");
  }
  reserved_ += bytes;
  ++granted_;
  return Status::OK();
}

void ReservationPool::Release(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  SIRIUS_CHECK(bytes <= reserved_);
  reserved_ -= bytes;
}

uint64_t ReservationPool::reserved() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reserved_;
}

uint64_t ReservationPool::available() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_ - reserved_;
}

uint64_t ReservationPool::total_granted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return granted_;
}

uint64_t ReservationPool::total_refused() const {
  std::lock_guard<std::mutex> lock(mu_);
  return refused_;
}

Result<Reservation> Reservation::Take(ReservationPool* pool, uint64_t bytes) {
  SIRIUS_RETURN_NOT_OK(pool->TryReserve(bytes));
  return Reservation(pool, bytes);
}

Reservation::Reservation(Reservation&& other) noexcept
    : pool_(other.pool_), bytes_(other.bytes_) {
  other.pool_ = nullptr;
  other.bytes_ = 0;
}

Reservation& Reservation::operator=(Reservation&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    bytes_ = other.bytes_;
    other.pool_ = nullptr;
    other.bytes_ = 0;
  }
  return *this;
}

Status Reservation::EnsureAtLeast(uint64_t bytes) {
  if (pool_ == nullptr) {
    return Status::Internal("EnsureAtLeast on an inactive reservation");
  }
  if (bytes <= bytes_) return Status::OK();
  SIRIUS_RETURN_NOT_OK(pool_->TryReserve(bytes - bytes_));
  bytes_ = bytes;
  return Status::OK();
}

Status Reservation::Grow(uint64_t delta) {
  if (pool_ == nullptr) return Status::OK();
  SIRIUS_RETURN_NOT_OK(pool_->TryReserve(delta));
  bytes_ += delta;
  return Status::OK();
}

void Reservation::Release() {
  if (pool_ != nullptr) {
    pool_->Release(bytes_);
    pool_ = nullptr;
    bytes_ = 0;
  }
}

}  // namespace sirius::mem
