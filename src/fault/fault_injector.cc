#include "fault/fault_injector.h"

#include <algorithm>

namespace sirius::fault {

FaultInjector::FaultInjector(uint64_t seed) : rng_(seed) {}

void FaultInjector::Arm(const std::string& site, FaultSpec spec) {
  std::lock_guard<std::mutex> lock(mu_);
  Site& s = sites_[site];
  s.spec = std::move(spec);
  s.armed = true;
  s.counters = SiteStats{};
}

void FaultInjector::Disarm(const std::string& site) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  if (it != sites_.end()) it->second.armed = false;
}

bool FaultInjector::IsArmed(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  return it != sites_.end() && it->second.armed;
}

Status FaultInjector::Check(const std::string& site) {
  std::lock_guard<std::mutex> lock(mu_);
  Site& s = sites_[site];
  ++s.counters.hits;
  if (!s.armed) return Status::OK();

  const FaultSpec& spec = s.spec;
  if (s.counters.hits <= spec.skip_first) return Status::OK();
  if (spec.max_triggers >= 0 &&
      s.counters.injected >= static_cast<uint64_t>(spec.max_triggers)) {
    return Status::OK();
  }
  const uint64_t eligible_hit = s.counters.hits - spec.skip_first;
  if (spec.every_nth > 0 && eligible_hit % spec.every_nth != 0) {
    return Status::OK();
  }
  if (spec.probability < 1.0) {
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    if (dist(rng_) >= spec.probability) return Status::OK();
  }
  ++s.counters.injected;
  std::string msg = spec.message.empty()
                        ? "injected fault at '" + site + "' (hit #" +
                              std::to_string(s.counters.hits) + ")"
                        : spec.message;
  return Status(spec.code, std::move(msg));
}

SiteStats FaultInjector::stats(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  return it == sites_.end() ? SiteStats{} : it->second.counters;
}

uint64_t FaultInjector::injected(const std::string& site) const {
  return stats(site).injected;
}

double FaultInjector::Uniform() {
  std::lock_guard<std::mutex> lock(mu_);
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  return dist(rng_);
}

FaultInjector* FaultInjector::Global() {
  static FaultInjector injector;
  return &injector;
}

ScopedFault::ScopedFault(FaultInjector* injector, std::string site,
                         FaultSpec spec)
    : injector_(injector != nullptr ? injector : FaultInjector::Global()),
      site_(std::move(site)) {
  injector_->Arm(site_, std::move(spec));
}

ScopedFault::~ScopedFault() { injector_->Disarm(site_); }

namespace {

std::mutex& RegistryMutex() {
  static std::mutex mu;
  return mu;
}

std::vector<std::string>& Registry() {
  static std::vector<std::string> sites;
  return sites;
}

}  // namespace

std::vector<std::string> KnownSites() {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  return Registry();
}

namespace internal {

SiteRegistrar::SiteRegistrar(const char* name) {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  auto& sites = Registry();
  auto it = std::lower_bound(sites.begin(), sites.end(), name);
  if (it == sites.end() || *it != name) sites.insert(it, name);
}

}  // namespace internal

}  // namespace sirius::fault
