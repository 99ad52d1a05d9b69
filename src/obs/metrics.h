// Process-lifetime metrics registry.
//
// Counters are monotonically increasing atomics that writers bump without a
// lock; nothing ever lowers them. Snapshot() reads every counter under the
// registry mutex. A reader that wants the counts of a window subtracts two
// snapshots. SiriusEngine::Stats is a view over one of these.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace sirius::obs {

/// \brief One lock-free monotone counter. Obtained from a MetricsRegistry;
/// pointers remain stable for the registry's lifetime.
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  /// The monotone total.
  uint64_t raw() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief Named monotone counters.
///
/// Thread-safe. Counter writers never contend with readers; GetCounter() and
/// Snapshot() serialize on one mutex.
class MetricsRegistry {
 public:
  /// Returns the counter named `name`, creating it on first use. The
  /// returned pointer is stable; hot paths should cache it.
  Counter* GetCounter(const std::string& name);

  /// Every counter's total, all read under one lock.
  std::map<std::string, uint64_t> Snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
};

}  // namespace sirius::obs
