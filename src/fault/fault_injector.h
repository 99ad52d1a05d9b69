// Deterministic fault injection (chaos harness for the §3.3/§3.4 recovery
// paths).
//
// A FaultInjector owns a seeded RNG and a table of *sites* — named points in
// the code (e.g. "sccl.alltoall", "dist.fragment") that consult the injector
// before doing work. Arming a site schedules failures at it: every Nth hit,
// with a probability per hit, after skipping the first K, for at most M
// triggers. Everything is deterministic under a fixed seed, so chaos tests
// can sweep sites and replay failures exactly.
//
// Layering: fault depends only on common. Retry/backoff jitter at higher
// layers draws from the injector's seeded RNG so whole recovery schedules
// replay deterministically too.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "common/status.h"

namespace sirius::fault {

/// \brief Failure schedule for one armed site.
struct FaultSpec {
  /// Status code injected failures carry. Unavailable and Timeout are the
  /// transient codes retry layers heal; anything else surfaces immediately.
  StatusCode code = StatusCode::kUnavailable;
  /// Message of injected statuses; defaults to "injected fault at '<site>'".
  std::string message;
  /// Chance each eligible hit fires, in [0, 1].
  double probability = 1.0;
  /// Hits to let pass untouched before the site becomes eligible.
  uint64_t skip_first = 0;
  /// When > 0, fire deterministically on every Nth eligible hit (the
  /// "pressure" schedule: 1 = every hit, 3 = hits 3, 6, 9, ...).
  uint64_t every_nth = 0;
  /// Stop firing after this many injections; -1 = unlimited. A finite count
  /// models a transient fault that heals (retries then succeed).
  int64_t max_triggers = -1;
};

/// Per-site hit/injection counters.
struct SiteStats {
  uint64_t hits = 0;      ///< times the site was checked
  uint64_t injected = 0;  ///< times a failure was injected
};

/// \brief A registry of fault sites with deterministic, seeded scheduling.
///
/// Thread-safe: sites are checked concurrently from engine worker threads.
class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed = 0x51b1e5);

  /// Arms `site`: subsequent Check() calls follow `spec`'s schedule.
  void Arm(const std::string& site, FaultSpec spec);
  /// Disarms `site`; its counters survive for post-mortem queries.
  void Disarm(const std::string& site);
  bool IsArmed(const std::string& site) const;

  /// The injection point: returns OK to proceed, or the scheduled failure.
  /// Counts a hit against `site` either way.
  Status Check(const std::string& site);

  /// Counters for one site (zeros when never hit).
  SiteStats stats(const std::string& site) const;
  /// Shorthand: injections fired at `site`.
  uint64_t injected(const std::string& site) const;

  /// One draw from the injector's seeded RNG, uniform in [0, 1). Retry
  /// layers use this for backoff jitter so schedules replay under a seed.
  double Uniform();

  /// Process-wide injector consulted when a component is not handed an
  /// explicit one. Disarmed by default, so production paths pay one map
  /// lookup per site check and nothing else.
  static FaultInjector* Global();

 private:
  struct Site {
    FaultSpec spec;
    bool armed = false;
    SiteStats counters;
  };

  mutable std::mutex mu_;
  std::mt19937_64 rng_;
  std::map<std::string, Site> sites_;
};

/// \brief RAII arm/disarm of one site.
class ScopedFault {
 public:
  /// `injector` == nullptr arms on the global injector.
  ScopedFault(FaultInjector* injector, std::string site, FaultSpec spec);
  ~ScopedFault();

  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

  FaultInjector* injector() const { return injector_; }
  const std::string& site() const { return site_; }

 private:
  FaultInjector* injector_;
  std::string site_;
};

/// All sites compiled into the binary, sorted (the chaos-sweep domain).
/// Populated at static-init time by SIRIUS_FAULT_DEFINE_SITE.
std::vector<std::string> KnownSites();

namespace internal {
struct SiteRegistrar {
  explicit SiteRegistrar(const char* name);
};
}  // namespace internal

}  // namespace sirius::fault

/// Declares a fault site: a file-local name for Check() calls, registered in
/// the global KnownSites() table so chaos tests can sweep every site.
#define SIRIUS_FAULT_DEFINE_SITE(var, name)                   \
  static constexpr const char* var = name;                    \
  static const ::sirius::fault::internal::SiteRegistrar       \
      var##_registrar(name)
