#include "obs/metrics.h"

namespace sirius::obs {

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

std::map<std::string, uint64_t> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, uint64_t> out;
  for (const auto& [name, counter] : counters_) out[name] = counter->raw();
  return out;
}

}  // namespace sirius::obs
