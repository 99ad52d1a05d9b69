// Tiered spill memory: HBM -> pinned host -> simulated NVMe (§3.4).
//
// The engine's out-of-core mode used to round-trip overflow to pinned host
// memory unboundedly: an admitted query could exhaust the host while its
// tenant's Reservation only covered device bytes. The TierManager turns that
// path into a governed hierarchy. Each tier below HBM has a capacity; a
// spilled extent is placed on the first tier with room (host, then NVMe),
// every spilled byte is charged to the owning tenant's Reservation via
// Grow(), and tier exhaustion or quota exhaustion surfaces as a diagnosable
// ResourceExhausted instead of silent growth.
//
// Timing model: each query holds a SpillSession whose per-pipeline *lanes*
// model a dedicated DMA queue. A round trip schedules writeback + prefetch
// on the lane's own time horizon, so transfers overlap with compute; the
// compute thread only stalls on backpressure (the lane is still busy with
// the previous extent) and on the final drain at pipeline end. Horizons are
// per-lane, never shared across pipelines, so concurrent pipelines cannot
// make the modeled clock depend on thread scheduling.
//
// Failure model (fault sites, swept by the chaos harness):
//   mem.spill.write  writeback fails; one in-place retry, then fall back to
//                    the next tier.
//   mem.spill.read   prefetch fails; retried in place (the data has a single
//                    home, there is nowhere to fall back to).
//   mem.tier.lost    the tier dies mid-spill; resident extents are voided
//                    and the query's Join reports Unavailable with
//                    cause kSpillTierLost so the engine can revive + retry,
//                    or the serving layer can re-admit the query on the
//                    survivors. A read or write fault that outlasts its
//                    retries is not a tier loss: it carries no cause.

#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "fault/fault_injector.h"
#include "mem/reservation.h"
#include "sim/interconnect.h"
#include "sim/timeline.h"

namespace sirius::mem {

/// Spill tiers below HBM, in fallback order.
enum class Tier { kHost = 0, kNvme = 1 };
inline constexpr int kTierCount = 2;
const char* TierName(Tier t);

/// \name Pinned-host staging ledger
/// Process-wide accounting of pinned host memory (the cudaHostAlloc registry
/// of a real deployment). All pinned staging bytes in the repo flow through
/// here; a lint rule bans PinnedHostAlloc calls outside src/mem/ so the
/// TierManager stays the single host-spill path.
/// @{
uint64_t PinnedHostAlloc(uint64_t bytes);  ///< returns bytes now in use
void PinnedHostFree(uint64_t bytes);
uint64_t PinnedHostInUse();
/// @}

/// \brief Capacities, occupancy, and failure state of the spill tiers.
///
/// Owned by the engine (one per SiriusEngine); internally synchronized so
/// concurrent pipelines can place and release extents. Byte accounting is
/// commutative, so sharing it across pipelines does not hurt determinism.
class TierManager {
 public:
  struct Options {
    /// Pinned host staging capacity; 0 disables the tier.
    uint64_t host_capacity_bytes = 64ull << 30;
    /// Simulated NVMe capacity; 0 disables the tier.
    uint64_t nvme_capacity_bytes = 512ull << 30;
  };

  /// The one record of a tier: its capacity (fixed at construction),
  /// occupancy and failure state.
  struct TierStats {
    uint64_t capacity_bytes = 0;
    uint64_t used_bytes = 0;
    uint64_t high_water_bytes = 0;
    uint64_t spill_writes = 0;    ///< extents written into this tier
    uint64_t spill_reads = 0;     ///< extents read back out
    uint64_t spilled_bytes = 0;   ///< cumulative bytes written
    uint64_t write_retries = 0;   ///< transient write faults retried in place
    uint64_t read_retries = 0;    ///< transient read faults retried in place
    uint64_t losses = 0;          ///< times the tier was lost
    bool lost = false;            ///< currently lost (until ReviveLostTiers)
  };

  /// `host_link` is the owning engine's device <-> host link: every spill
  /// crosses it. NVMe extents bounce through pinned-host staging, so they
  /// also pay sim::NvmeGen4(). `injector` == nullptr uses the process-global
  /// injector.
  TierManager(Options options, sim::Link host_link,
              fault::FaultInjector* injector = nullptr);

  /// Seconds to write / read one `bytes` extent through `t`.
  double WriteSeconds(Tier t, uint64_t bytes) const;
  double ReadSeconds(Tier t, uint64_t bytes) const;

  /// Marks `tier` failed and voids every extent resident on it: its bytes
  /// are released and its read-back reports the loss.
  void MarkLost(Tier tier);
  bool lost(Tier t) const;
  /// Clears lost flags (the transient tier came back / was remounted); the
  /// voided extents stay voided. The engine calls this before its tier-loss
  /// retry so a healed fault can succeed on the second run.
  void ReviveLostTiers();

  /// A copy of `t`'s record.
  TierStats stats(Tier t) const;

 private:
  friend class SpillSession;

  struct Extent {
    Tier tier = Tier::kHost;
    uint64_t bytes = 0;
  };

  /// Places a `bytes` extent on the first surviving tier with room,
  /// consulting the mem.tier.lost and mem.spill.write fault sites per tier.
  /// `write_retries_out` counts transient write attempts absorbed (the
  /// session charges an extra write per retry). Unavailable with
  /// kSpillTierLost when no surviving tier could take the extent;
  /// ResourceExhausted with kSpillRefused when every configured tier is full.
  Result<Tier> PlaceExtent(uint64_t bytes, uint64_t resource,
                           int* write_retries_out);
  /// Completes the prefetch of `resource` and releases its tier bytes.
  /// Returns the transient read retries absorbed. Unavailable with
  /// kSpillTierLost when the extent was voided by a tier loss.
  Result<int> CompleteReadBack(uint64_t resource);
  /// Releases an extent without a read-back (quota refusal, session abort).
  void AbandonExtent(uint64_t resource);

  void MarkLostLocked(Tier tier);
  void ReleaseBytesLocked(Tier t, uint64_t bytes);

  const sim::Link host_link_;
  fault::FaultInjector* const injector_;
  mutable std::mutex mu_;
  TierStats tiers_[kTierCount];
  /// Resident extents by resource id. An extent leaves it exactly once:
  /// read back, abandoned or voided, each under mu_.
  std::map<uint64_t, Extent> extents_;
};

/// \brief One query's spill state: per-pipeline DMA lanes over a shared
/// TierManager.
///
/// The engine creates a fresh session per run and calls RoundTrip from the
/// out-of-core overflow path; Join drains a lane at pipeline end. Extents
/// still registered when the session dies (a query aborted mid-run) are
/// abandoned so tier capacity and the pinned-host ledger can never leak.
class SpillSession {
 public:
  struct Ticket {
    Tier tier = Tier::kHost;
    uint64_t bytes = 0;
    uint64_t resource = 0;     ///< hazard-tracker id of the staged extent
    double stall_s = 0;        ///< backpressure to charge to compute now
    double write_start_s = 0;  ///< lane-clock transfer window (trace spans)
    double write_end_s = 0;
    double read_end_s = 0;
  };

  explicit SpillSession(TierManager* tiers);
  ~SpillSession();

  SpillSession(const SpillSession&) = delete;
  SpillSession& operator=(const SpillSession&) = delete;

  /// Spills `bytes` out of lane `lane` (the pipeline id) at lane-clock time
  /// `now_s` and schedules the prefetch back. Charges the bytes to `quota`
  /// (when non-null) via Reservation::Grow; on quota exhaustion returns
  /// ResourceExhausted with kSpillRefused and a retry-after hint, and
  /// releases the extent. When `hazards` is non-null the writeback/prefetch
  /// are ordered on the lane's dedicated spill stream with event edges
  /// against `compute_stream`, so the hazard tracker sees the dependency.
  Result<Ticket> RoundTrip(int lane, uint64_t bytes, double now_s,
                           Reservation* quota = nullptr,
                           sim::HazardTracker* hazards = nullptr,
                           sim::StreamId compute_stream = 0);

  /// Drains `lane`: completes every outstanding read-back and returns the
  /// seconds compute must stall for the lane to go idle past `now_s`.
  /// Unavailable with kSpillTierLost when a tier holding this lane's
  /// extents was lost mid-spill.
  Result<double> Join(int lane, double now_s);

 private:
  struct LaneExtent {
    uint64_t resource = 0;
    uint64_t bytes = 0;
    Tier tier = Tier::kHost;
  };
  struct Lane {
    double busy_until[kTierCount] = {0.0, 0.0};
    sim::HazardTracker* hazards = nullptr;
    sim::StreamId spill_stream = -1;
    std::vector<LaneExtent> extents;
  };

  TierManager* const tiers_;
  mutable std::mutex mu_;
  std::map<int, Lane> lanes_;
};

}  // namespace sirius::mem
