// Weighted fair scheduling for the serving layer.
//
// Stride scheduling over per-tenant FIFO queues: each tenant carries a
// virtual "pass" that advances by charged-device-seconds / weight whenever
// one of its queries runs, and dispatch always picks the eligible tenant
// with the smallest pass. Over any busy interval, tenant device time
// converges to the weight ratio regardless of per-query durations.
//
// Two priority lanes ride on top: interactive entries (priority > 0) are
// always considered before batch entries, each lane running its own
// weighted-fair pick. A tenant that goes idle and returns has its pass
// forwarded to the current virtual time so it cannot claim a catch-up burst
// against tenants that kept the device busy.
//
// Not internally synchronized: like sim::StreamSet, decisions must be made
// in simulated-time order, so the owner (serve::QueryServer) serializes.

#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

namespace sirius::serve {

/// \brief One queued admission: everything the dispatcher needs to pick and
/// place a query, opaque to the scheduler beyond tenant/priority/arrival.
struct QueuedEntry {
  uint64_t query_id = 0;
  std::string tenant;
  int priority = 0;      ///< > 0: interactive lane, dispatched first
  double arrival_s = 0;  ///< simulated arrival (admission) time
};

/// \brief Stride scheduler with per-tenant weighted queues + priority lanes.
class FairScheduler {
 public:
  /// Registers `tenant` with a relative `weight` (> 0). Re-registering
  /// updates the weight. Unregistered tenants get weight 1 on first use.
  void RegisterTenant(const std::string& tenant, double weight);

  void Enqueue(const QueuedEntry& entry);

  /// Picks the next entry to dispatch at simulated time `now_s`: interactive
  /// lane first, then batch; within a lane, the smallest-pass tenant among
  /// those with an entry that has already arrived (`arrival_s <= now_s`).
  /// Returns false when nothing is eligible.
  bool PopNext(double now_s, QueuedEntry* out);

  /// Charges `device_seconds` of execution to `tenant`, advancing its pass
  /// by device_seconds / weight. Called once per dispatched query as soon as
  /// its charged duration is known.
  void Charge(const std::string& tenant, double device_seconds);

  size_t depth() const { return depth_; }
  /// Earliest arrival among all queued entries; +inf when empty.
  double EarliestArrival() const;
  bool empty() const { return depth_ == 0; }

  /// Removes and returns every queued entry, ordered by (arrival, query id)
  /// — the deterministic order in which a lost device's work re-enters
  /// admission on the survivors. Pass state is untouched.
  std::vector<QueuedEntry> Drain();

  double weight(const std::string& tenant) const;
  /// Total device seconds charged to `tenant` so far.
  double charged(const std::string& tenant) const;

 private:
  struct Tenant {
    double weight = 1.0;
    double pass = 0;     ///< virtual time; smallest eligible pass runs next
    double charged = 0;  ///< total device seconds charged
    std::deque<QueuedEntry> lanes[2];  ///< [0]=batch, [1]=interactive
  };

  Tenant& GetTenant(const std::string& name);
  /// Smallest pass among tenants with any queued entry (the current virtual
  /// time); 0 when everything is idle.
  double VirtualTime() const;

  std::map<std::string, Tenant> tenants_;
  size_t depth_ = 0;
};

/// \brief Locality-aware device placement over a device group.
///
/// Tracks each tenant's *warm* device — the one its last query was placed
/// on, where the engine's cached inputs and result-cache entries were
/// produced. Placement keeps a tenant on its warm device while (a) the
/// query's inputs are actually resident (the caller consults BufferManager
/// residency and result-cache entry stamps) and (b) the warm device's
/// backlog stays within `imbalance_ratio` of the least-loaded alive
/// device's. Otherwise the query spills to the least-loaded device (ties to
/// the lowest index, so decisions replay deterministically).
class PlacementPolicy {
 public:
  struct Options {
    /// Spill away from the warm device when its backlog exceeds the
    /// least-loaded alive device's by more than this factor.
    double imbalance_ratio = 2.0;
    /// Backlog slack (seconds) ignored by the imbalance test, so a warm
    /// device is not abandoned over sub-millisecond noise.
    double imbalance_slack_s = 1e-3;
  };

  /// Why a device was chosen (stable strings for metrics/trace labels).
  struct Decision {
    int device = -1;          ///< -1: no device alive
    bool warm = false;        ///< kept on the tenant's warm device
    const char* reason = "cold";  ///< "warm" | "cold" | "spill" | "forced"
  };

  PlacementPolicy() = default;
  explicit PlacementPolicy(Options options) : options_(options) {}

  /// Picks a device for `tenant`. `backlog_s[d]` is the projected backlog of
  /// device d in simulated seconds (+inf for lost devices); `alive[d]` its
  /// liveness. `inputs_resident` is the caller's residency consult.
  Decision Place(const std::string& tenant, bool inputs_resident,
                 const std::vector<double>& backlog_s,
                 const std::vector<bool>& alive) const;

  /// Records that `tenant`'s latest query was placed on `device`; that is
  /// its warm device until it runs elsewhere or the device is lost.
  void RecordPlacement(const std::string& tenant, int device);

  /// Device loss: every tenant warm on `device` becomes cold.
  void ForgetDevice(int device);

  /// The tenant's warm device, or -1 when cold.
  int warm_device(const std::string& tenant) const;

 private:
  Options options_;
  std::map<std::string, int> warm_;
};

}  // namespace sirius::serve
