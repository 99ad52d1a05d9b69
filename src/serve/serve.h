// The concurrent query-serving layer (ROADMAP north star: serve heavy
// traffic from many sessions against one shared engine).
//
// QueryServer multiplexes queries from many sessions onto a shared
// SiriusEngine. Three mechanisms:
//
//  * Admission control — every query reserves its estimated processing-region
//    working set from the buffer manager's reservation pool *before*
//    dispatch. When the pool or the queue is full, the submit is shed with
//    Status::ResourceExhausted carrying a retry-after hint; an admitted
//    query's reservation is RAII-held and released on every exit path, so
//    admitted work can always run without device-memory admission deadlock.
//
//  * Fair scheduling — admitted queries enter per-tenant weighted queues
//    (stride scheduling, priority lanes) and are dispatched onto simulated
//    device streams (sim::StreamSet), so queries genuinely overlap and
//    tenant device time converges to the configured weights. Deadlines are
//    charged in simulated time: a query that exceeds its timeout is
//    cancelled mid-pipeline (engine::ExecLimits) and its stream occupancy
//    truncated at the deadline.
//
//  * Multi-GPU placement — with num_devices > 1 the server schedules over a
//    sim::DeviceGroup: every device has its own StreamSet, its own
//    admission reservation pool, and its own per-tenant stride queues. A
//    locality-aware PlacementPolicy keeps a tenant's queries on its warm
//    device while the inputs are resident (BufferManager residency +
//    result-cache entry stamps) and spills to the least-loaded device under
//    imbalance, charging the fabric transfer of the working set. Shed
//    decisions name the device and carry that device's retry-after hint.
//    The "serve.place" fault site forces mis-placement (non-Unavailable
//    codes) or device loss (Unavailable): a lost device's queued work
//    re-enters admission on the survivors.
//
//  * Plan + result caching — keyed on normalized SQL, stamped with the
//    catalog write-version, so catalog writes invalidate exactly.
//
// Timing discipline: executions run for real on a worker pool (kernels do
// real work on host threads), but every reported instant — arrival, queue
// wait, dispatch, completion, deadline — is *simulated* time, derived from
// engine timelines and stream arbitration in deterministic submission
// order. Wall clocks never appear; fixed seeds give identical histograms.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "engine/sirius.h"
#include "fault/fault_injector.h"
#include "host/database.h"
#include "mem/reservation.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/query_cache.h"
#include "serve/scheduler.h"
#include "sim/device_group.h"
#include "sim/streams.h"

namespace sirius::serve {

using QueryId = uint64_t;
using SessionId = uint64_t;

/// Floor, in simulated seconds, of the retry-after hints the server and the
/// cluster compute and of every back-off the load generator takes.
inline constexpr double kMinRetryAfterS = 1e-3;

/// Terminal state of one submitted query.
enum class QueryState {
  kQueued,     ///< admitted, waiting for a stream (non-terminal)
  kRunning,    ///< dispatched (non-terminal)
  kCompleted,  ///< finished with a result (possibly served from cache)
  kShed,       ///< refused at admission (queue or reservation budget full)
  kTimedOut,   ///< cancelled at its deadline (in queue or mid-pipeline)
  kFailed,     ///< execution error other than timeout
};

const char* ToString(QueryState state);

/// \brief Everything the server decided about one query, in simulated time.
struct QueryOutcome {
  QueryId id = 0;
  std::string tenant;
  int priority = 0;
  QueryState state = QueryState::kQueued;
  Status status;  ///< OK for kCompleted; the error otherwise (a shed
                  ///< carries its retry-after hint, retry_after_s())

  double arrival_s = 0;   ///< admission time
  double dispatch_s = 0;  ///< placed on a stream (== finish_s for cache hits)
  double finish_s = 0;    ///< completion / deadline / shed time
  double exec_solo_s = 0;  ///< engine-charged duration, un-stretched
  double slowdown = 1.0;   ///< contention stretch applied on the stream
  int stream = -1;         ///< device stream, -1 for cache hits / shed
  int device = -1;         ///< device placed on, -1 for cache hits / shed
  /// Cluster node the query was routed to; -1 outside the cluster tier
  /// (stamped by ServeCluster, not by QueryServer itself).
  int node = -1;
  bool warm_placed = false;  ///< placed on the tenant's warm device
  /// Fabric transfer charged ahead of execution when the query ran away
  /// from the device holding its resident inputs (spill / mis-placement).
  double migrate_s = 0;

  bool cache_hit = false;
  bool fell_back = false;  ///< device rejected the plan; CPU engine ran it
  size_t result_rows = 0;
  format::TablePtr table;  ///< only when SubmitOptions::keep_result

  double latency_s() const { return finish_s - arrival_s; }
  double queue_wait_s() const { return dispatch_s - arrival_s; }
  bool terminal() const {
    return state != QueryState::kQueued && state != QueryState::kRunning;
  }
};

/// Per-submit knobs; defaults defer to ServeOptions.
struct SubmitOptions {
  /// Simulated arrival time. < 0 means "now" (the server's current frontier).
  /// Arrivals must be non-decreasing across submits; earlier values are
  /// clamped forward.
  double arrival_s = -1;
  /// Deadline, in simulated seconds after arrival; < 0 uses
  /// ServeOptions::default_timeout_s, 0 disables.
  double timeout_s = -1;
  int priority = 0;  ///< > 0: interactive lane
  /// Admission reservation; 0 uses ServeOptions::default_reservation_bytes.
  uint64_t reservation_bytes = 0;
  bool bypass_cache = false;
  bool keep_result = false;  ///< retain the result table on the outcome
};

/// \brief One completed, cacheable result, observed at the instant it is
/// inserted into a server's result cache. The cluster tier subscribes to
/// these to replicate fills to peer replicas over the fabric.
struct ResultFillEvent {
  std::string normalized_sql;
  uint64_t catalog_version = 0;  ///< stamp the result was built under
  QueryCache::CachedResult result;
  double completed_at_s = 0;  ///< simulated completion time of the fill
};

/// \brief Server configuration.
struct ServeOptions {
  /// Simulated devices queries are placed across (the
  /// bench_ablation_multi_gpu model: N GPUs joined by a fabric link).
  int num_devices = 1;
  /// Simulated device streams queries are multiplexed onto, per device.
  int num_streams = 8;
  /// Device utilization of one query running alone (sim::StreamSet).
  double solo_utilization = 0.45;
  /// Device-to-device link pricing warm-input migration on a spill.
  sim::Link fabric = sim::NvlinkC2c();
  /// Host worker threads running admitted queries for real.
  int execution_threads = 8;
  /// Admitted-but-undispatched queries allowed before shedding, per device.
  size_t max_queue_depth = 64;
  /// Admission budget in bytes, per device. 0 = the engine buffer manager's
  /// processing-region pool: with one device that pool is shared directly;
  /// with several, each device owns a private pool of the same capacity
  /// (each simulated GPU has its own processing region).
  uint64_t admission_budget_bytes = 0;
  /// Reservation for submits that do not specify one.
  uint64_t default_reservation_bytes = 256ull << 20;
  /// Deadline applied when a submit does not specify one; 0 = none.
  double default_timeout_s = 0;
  bool result_cache = true;
  /// Simulated cost of serving a result-cache hit.
  double cache_hit_cost_s = 50e-6;
  /// Server-lifetime trace (per-stream query spans, shed/timeout instants);
  /// snapshot via Profile().
  bool tracing = false;
  /// Fault injector for the "serve.admit" / "serve.cancel" sites; nullptr
  /// uses the (disarmed) global injector.
  fault::FaultInjector* injector = nullptr;
  /// Observer of cacheable result completions (fired for every completed,
  /// non-bypassed query with a result table, whether or not the local result
  /// cache stores it). Invoked under the server's internal lock: the
  /// callback must only record the event — it must not call back into any
  /// QueryServer. The cluster tier appends to a pending-replication queue
  /// and flushes it later with no locks held.
  std::function<void(const ResultFillEvent&)> on_result_fill;
};

/// \brief The abstract submit/step/resolve surface of a query service.
///
/// QueryServer (one node) and cluster::ServeCluster (a federation of them)
/// both implement it, so drivers like LoadGenerator run unchanged against
/// either. The causal protocol is shared: arrivals are non-decreasing,
/// NextDispatchTime()/Step() advance simulated time one decision at a time,
/// and Resolve() force-drains to a terminal outcome.
class QueryService {
 public:
  virtual ~QueryService() = default;

  virtual void RegisterTenant(const std::string& tenant, double weight) = 0;
  virtual SessionId OpenSession(const std::string& tenant) = 0;
  virtual Result<QueryId> Submit(SessionId session, const std::string& sql,
                                 const SubmitOptions& options) = 0;
  virtual Result<QueryOutcome> Resolve(QueryId id) = 0;
  virtual double NextDispatchTime() const = 0;
  virtual Result<QueryOutcome> Step() = 0;
  virtual Result<QueryOutcome> Peek(QueryId id) const = 0;
  virtual Status DrainAll() = 0;
  virtual double now_s() const = 0;
};

/// \brief The serving layer: sessions submit SQL; the server admits,
/// schedules, executes, and reports outcomes in simulated time.
///
/// Thread-safe: submits may come from any thread; the DES core serializes
/// on one mutex while executions proceed in parallel on the worker pool.
class QueryServer : public QueryService {
 public:
  /// Queries run on `engine` (attached to `db` for planning and CPU
  /// fallback). Both not owned.
  QueryServer(host::Database* db, engine::SiriusEngine* engine,
              ServeOptions options);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Registers `tenant` with a fair-share `weight` (> 0, relative).
  void RegisterTenant(const std::string& tenant, double weight) override;

  /// Sets `tenant`'s spill quota: how many host/NVMe bytes its running
  /// queries may stage concurrently through the engine's tier hierarchy
  /// (out-of-core mode). 0, or a tenant never set, is unlimited. A query
  /// that exhausts its tenant's quota mid-run is shed with
  /// ResourceExhausted and a retry-after hint. Call before the tenant
  /// submits: the quota pool is created lazily on first use and replaced
  /// here only while it has no outstanding charges.
  void SetTenantSpillQuota(const std::string& tenant, uint64_t bytes);

  /// The spill-quota pool of `tenant` (created on first use; tests assert
  /// reserved()==0 after a drain).
  mem::ReservationPool& spill_quota(const std::string& tenant);

  /// Opens a session for `tenant` (registered implicitly, weight 1).
  SessionId OpenSession(const std::string& tenant) override;

  /// Submits one query. Returns the QueryId of an *admitted* query (resolve
  /// it with Resolve()); a shed submit returns Status::ResourceExhausted
  /// with a retry-after hint (Status::retry_after_s). Planning errors
  /// surface directly.
  Result<QueryId> Submit(SessionId session, const std::string& sql,
                         const SubmitOptions& options = {}) override;

  /// Blocks until `id` is terminal, advancing the simulated-time dispatch
  /// loop as needed, and returns its outcome. Note this force-drains queued
  /// work ahead of `id` without waiting for future arrivals; callers
  /// interleaving submits and completions causally (the closed-loop load
  /// generator) should drive Step() themselves.
  Result<QueryOutcome> Resolve(QueryId id) override;

  /// Simulated time of the next dispatch decision (when the next queued
  /// query would start), or +infinity when nothing is queued. A caller that
  /// still has arrivals earlier than this must submit them first — later
  /// arrivals cannot change a dispatch decision taken before them.
  double NextDispatchTime() const override;

  /// Performs exactly one dispatch decision (the earliest possible) and
  /// returns the outcome of the query it finalized. Invalid when nothing is
  /// queued.
  Result<QueryOutcome> Step() override;

  /// Current outcome of `id`, terminal or not (non-blocking).
  Result<QueryOutcome> Peek(QueryId id) const override;

  /// Dispatches and resolves everything outstanding.
  Status DrainAll() override;

  /// Latest simulated event time the server has processed.
  double now_s() const override;
  /// Terminal outcomes so far, in QueryId order.
  std::vector<QueryOutcome> Outcomes() const;

  /// Admission pool of device 0 (tests assert reserved()==0 after a drain).
  mem::ReservationPool& reservations();
  /// Admission pool of one device.
  mem::ReservationPool& reservations(int device);
  int num_devices() const { return devices_.num_devices(); }
  /// True once `device` was lost through the "serve.place" fault site.
  bool device_lost(int device) const;
  /// Bytes currently reserved across every device pool.
  uint64_t total_reserved_bytes() const;
  /// Admission refusals across every device pool.
  uint64_t total_refused() const;
  obs::MetricsRegistry& metrics() { return metrics_; }
  /// Result-cache entries discarded for a stale catalog version.
  uint64_t cache_invalidations() const { return cache_.invalidations(); }
  const ServeOptions& options() const { return options_; }

  /// \name Replicated-cache hooks (cluster tier).
  ///
  /// The federation treats each node server's result cache as one replica
  /// of a shared region: fills observed on a peer (ServeOptions::
  /// on_result_fill) are installed here once the multicast delivers, and an
  /// exact invalidation (catalog write-version bump) eagerly drops stale
  /// entries. The cache has its own lock; these never take the DES mutex.
  /// @{
  /// Installs a result filled on a peer replica into this server's cache.
  void InstallCachedResult(const std::string& normalized_sql,
                           uint64_t catalog_version,
                           QueryCache::CachedResult result);
  /// Live cached result for `normalized_sql` under `catalog_version`.
  bool LookupCachedResult(const std::string& normalized_sql,
                          uint64_t catalog_version,
                          QueryCache::CachedResult* out);
  /// Eagerly drops entries staler than `current_version`; returns count.
  size_t EvictStaleCache(uint64_t current_version);
  /// @}

  /// Snapshot of the serve-level trace (empty when tracing is off).
  obs::QueryProfile Profile() const;

 private:
  struct ExecResult {
    Status status;             ///< engine status
    double solo_seconds = 0;   ///< charged duration when OK
    format::TablePtr table;
    bool fell_back = false;
  };

  /// Shared with the execution task; outlives both sides.
  struct ExecState {
    std::atomic<bool> cancel{false};
    std::promise<ExecResult> promise;
    mem::Reservation reservation;
    /// Spill-quota charge for this execution (engine::ExecLimits::spill):
    /// taken empty at launch, grown by the engine as the query spills,
    /// released on every exit path like the admission reservation.
    mem::Reservation spill;
  };

  struct Entry {
    QueryOutcome outcome;
    std::string normalized_sql;
    double timeout_s = 0;  ///< resolved deadline budget; 0 = none
    bool keep_result = false;
    bool bypass_cache = false;
    uint64_t catalog_version = 0;
    double migrate_s = 0;      ///< fabric transfer owed before execution
    bool inputs_resident = false;  ///< residency consult taken at admission
    uint64_t reservation_bytes = 0;  ///< admission-time reservation size
    /// Survivor-pool reservation taken when a device loss requeued this
    /// entry (the original reservation stays on the lost pool until the
    /// execution joins — it may still be growing it).
    mem::Reservation requeue_reservation;
    /// The plan LaunchExecution runs; kept so a mid-spill tier loss can
    /// relaunch the execution without re-planning (mirrors the device-loss
    /// re-admission protocol).
    plan::PlanPtr plan;
    /// One tier-loss re-admission per query; a second loss fails it.
    bool tier_requeued = false;
    std::shared_ptr<ExecState> exec;
    std::future<ExecResult> future;
  };

  /// Registers a fresh entry for a submit of `tenant` arriving at
  /// `arrival_s`. Caller holds mu_.
  Entry* AddEntry(const std::string& tenant, const SubmitOptions& sub,
                  double arrival_s);
  /// Launches the real execution of `entry->plan` on the worker pool under
  /// the admission `reservation` (plus an empty spill-quota charge). Caller
  /// holds mu_.
  void LaunchExecution(Entry* entry, mem::Reservation reservation);
  /// Counts (and traces) a submit of `tenant` shed at admission for `why`;
  /// returns `status`. Caller holds mu_.
  Status ShedSubmit(const std::string& tenant, const char* why, double at_s,
                    Status status);
  /// Dispatches queued entries whose start time lands at or before
  /// `until_s`. Caller holds mu_.
  void Pump(double until_s);
  /// Dispatches the earliest queued entry when it starts at or before
  /// `until_s`; returns it, or null when there is none. Caller holds mu_.
  Entry* DispatchNext(double until_s);
  /// Waits for `entry`'s real execution — cancelled first when `cancel`,
  /// its result then discarded — and releases every reservation it held.
  /// Caller holds mu_.
  ExecResult JoinExecution(Entry* entry, bool cancel);
  /// Earliest (start, device) dispatch decision across alive devices;
  /// device -1 when nothing is queued. Caller holds mu_.
  int EarliestDecision(double* start_s) const;
  /// Places `entry` on a stream of its device at `ready_s`, waits for its
  /// real execution, and finalizes its outcome. Caller holds mu_.
  void DispatchEntry(Entry* entry, double ready_s);
  /// Marks `entry` terminal and updates metrics/trace. Caller holds mu_.
  void Finalize(Entry* entry);
  /// Ends `entry` in `state` at `at_s` without a stream (dispatch ==
  /// finish) and finalizes it. Caller holds mu_.
  void FinishUnplaced(Entry* entry, QueryState state, Status status,
                      double at_s);
  /// Projected backlog of `device` in simulated seconds. Caller holds mu_.
  double Backlog(int device) const;
  /// Suggested resubmit delay given `device`'s load. Caller holds mu_.
  double ComputeRetryAfter(int device) const;
  /// ResourceExhausted naming `device` and `why`, with a retry-after hint
  /// from the device's load. Caller holds mu_.
  Status Overloaded(int device, const std::string& why) const;
  /// The placement policy's choice for `tenant` over the alive devices'
  /// backlogs. Caller holds mu_.
  PlacementPolicy::Decision PlaceQuery(const std::string& tenant,
                                       bool resident) const;
  /// True when the query's inputs are warm: every scanned column resident
  /// in the engine's buffer manager, or a live cache entry stamp for the
  /// statement. Caller holds mu_.
  bool InputsResident(const plan::PlanPtr& plan, const std::string& norm,
                      uint64_t version) const;
  /// Marks `device` lost at simulated time `at_s` and re-admits its queued
  /// entries on the survivors (shedding those the survivor pools refuse).
  /// Caller holds mu_.
  void LoseDevice(int device, double at_s);
  /// `tenant`'s spill-quota pool, created lazily from the configured quota
  /// (UINT64_MAX capacity when unlimited). Caller holds mu_.
  mem::ReservationPool* SpillPoolFor(const std::string& tenant);
  void BumpTenantCounter(const std::string& tenant, const char* what);
  fault::FaultInjector* injector() const {
    return options_.injector != nullptr ? options_.injector
                                        : fault::FaultInjector::Global();
  }

  const ServeOptions options_;
  host::Database* db_;
  engine::SiriusEngine* engine_;

  mutable std::mutex mu_;  ///< DES core: schedulers, devices, entries, clock
  std::vector<FairScheduler> scheds_;  ///< one stride scheduler per device
  sim::DeviceGroup devices_;
  PlacementPolicy placer_;
  std::vector<std::unique_ptr<mem::ReservationPool>> owned_pools_;
  std::vector<mem::ReservationPool*> pools_;  ///< one admission pool per device
  /// Per-tenant spill-quota pools (lazily created) and the quotas set.
  std::map<std::string, std::unique_ptr<mem::ReservationPool>> spill_pools_;
  std::map<std::string, uint64_t> spill_quotas_;
  QueryCache cache_;
  ThreadPool exec_pool_;

  std::map<QueryId, std::unique_ptr<Entry>> entries_;
  std::map<SessionId, std::string> sessions_;  ///< session -> tenant
  QueryId next_query_id_ = 1;
  SessionId next_session_id_ = 1;
  double now_s_ = 0;
  /// Mean of every completed execution's charged solo duration, over all
  /// of them (backlog estimates and retry-after hints).
  double mean_exec_s_ = 0;
  uint64_t exec_samples_ = 0;

  obs::MetricsRegistry metrics_;
  obs::TraceRecorder trace_;
  /// Track per (device, stream), indexed device * num_streams + stream.
  std::vector<obs::TrackId> stream_tracks_;
  obs::TrackId admission_track_ = 0;
  obs::TrackId placement_track_ = 0;
};

}  // namespace sirius::serve
