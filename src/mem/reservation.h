// Memory reservations for admission control (serving layer).
//
// A ReservationPool is a thread-safe byte budget laid over a memory region
// (the buffer manager's processing region). Admission control reserves a
// query's estimated working set *before* the query is dispatched; the
// reservation is released — always, on every exit path — when the query
// finishes, times out, or is cancelled. Reservations are accounting only:
// they do not allocate, they bound how much the admission layer promises
// concurrently.

#pragma once

#include <cstdint>
#include <mutex>
#include <string>

#include "common/result.h"

namespace sirius::mem {

/// \brief Thread-safe byte budget for admission-time reservations.
class ReservationPool {
 public:
  /// `capacity` bytes available for reservation; `name` appears in errors.
  explicit ReservationPool(uint64_t capacity, std::string name = "processing");

  /// Reserves `bytes`; ResourceExhausted when it would exceed capacity.
  Status TryReserve(uint64_t bytes);

  /// Returns bytes obtained from TryReserve. Releasing more than is
  /// currently reserved is a programmer error and aborts.
  void Release(uint64_t bytes);

  uint64_t capacity() const { return capacity_; }
  uint64_t reserved() const;
  uint64_t available() const;
  /// Reservations granted / refused since construction.
  uint64_t total_granted() const;
  uint64_t total_refused() const;

 private:
  const uint64_t capacity_;
  const std::string name_;
  mutable std::mutex mu_;
  uint64_t reserved_ = 0;
  uint64_t granted_ = 0;
  uint64_t refused_ = 0;
};

/// \brief RAII handle over one query's reservation. Movable, not copyable;
/// releases its bytes on destruction, so an admitted query can never leak
/// budget regardless of how it exits (completion, timeout, cancellation,
/// engine error).
class Reservation {
 public:
  Reservation() = default;

  /// Reserves `bytes` from `pool`; ResourceExhausted when over budget.
  static Result<Reservation> Take(ReservationPool* pool, uint64_t bytes);

  ~Reservation() { Release(); }
  Reservation(const Reservation&) = delete;
  Reservation& operator=(const Reservation&) = delete;
  Reservation(Reservation&& other) noexcept;
  Reservation& operator=(Reservation&& other) noexcept;

  /// Grows the reservation so it covers at least `bytes` total (used when an
  /// intermediate exceeds the admission-time estimate). No-op when already
  /// large enough; ResourceExhausted when the pool cannot cover the growth.
  Status EnsureAtLeast(uint64_t bytes);

  /// Grows the reservation by `delta` additional bytes. Spill charging uses
  /// this cumulative form: every spilled byte is added on top of whatever is
  /// already held, not clamped to a target. An inactive (default-constructed)
  /// reservation is an unbounded budget and grows for free;
  /// ResourceExhausted when the pool cannot cover the delta.
  Status Grow(uint64_t delta);

  /// Releases the reservation now; idempotent.
  void Release();

  uint64_t bytes() const { return bytes_; }
  bool active() const { return pool_ != nullptr; }

 private:
  Reservation(ReservationPool* pool, uint64_t bytes)
      : pool_(pool), bytes_(bytes) {}

  ReservationPool* pool_ = nullptr;
  uint64_t bytes_ = 0;
};

}  // namespace sirius::mem
