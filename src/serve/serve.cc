#include "serve/serve.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace sirius::serve {

SIRIUS_FAULT_DEFINE_SITE(kAdmitSite, "serve.admit");
SIRIUS_FAULT_DEFINE_SITE(kCancelSite, "serve.cancel");
SIRIUS_FAULT_DEFINE_SITE(kPlaceSite, "serve.place");

const char* ToString(QueryState state) {
  switch (state) {
    case QueryState::kQueued: return "queued";
    case QueryState::kRunning: return "running";
    case QueryState::kCompleted: return "completed";
    case QueryState::kShed: return "shed";
    case QueryState::kTimedOut: return "timed-out";
    case QueryState::kFailed: return "failed";
  }
  return "unknown";
}

namespace {

/// True when every base-table column the plan scans is resident in `bm`.
/// Plans without scans report false (nothing resident to be warm about).
bool ScansResident(const plan::PlanPtr& plan, const engine::BufferManager& bm) {
  if (plan == nullptr) return false;
  bool any_scan = false;
  std::vector<const plan::PlanNode*> stack = {plan.get()};
  while (!stack.empty()) {
    const plan::PlanNode* node = stack.back();
    stack.pop_back();
    if (node->kind == plan::PlanKind::kTableScan) {
      any_scan = true;
      for (int col : node->scan_columns) {
        if (!bm.IsCached(node->table_name, col)) return false;
      }
    }
    for (const auto& child : node->children) stack.push_back(child.get());
  }
  return any_scan;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

QueryServer::QueryServer(host::Database* db, engine::SiriusEngine* engine,
                         ServeOptions options)
    : options_(options),
      db_(db),
      engine_(engine),
      devices_(sim::DeviceGroup::Options{
          options.num_devices,
          sim::StreamSet::Options{options.num_streams,
                                  options.solo_utilization},
          options.fabric}),
      placer_(PlacementPolicy::Options{options.placement_imbalance_ratio,
                                       1e-3}),
      cache_(QueryCache::Options{options.cache_entries, options.result_cache}),
      exec_pool_(static_cast<size_t>(std::max(1, options.execution_threads))),
      trace_(obs::TraceRecorder::Options{options.tracing, 8192,
                                         /*unbounded=*/true}) {
  SIRIUS_CHECK(db_ != nullptr && engine_ != nullptr);
  scheds_.resize(static_cast<size_t>(devices_.num_devices()));
  if (devices_.num_devices() == 1 && options_.admission_budget_bytes == 0) {
    // Single device: share the engine buffer manager's reservation pool so
    // admission and engine-side growth draw from one processing region.
    pools_.push_back(&engine_->buffer_manager().processing_reservations());
  } else {
    // Every simulated device owns a processing region of its own.
    const uint64_t per_device =
        options_.admission_budget_bytes > 0
            ? options_.admission_budget_bytes
            : engine_->buffer_manager().processing_reservations().capacity();
    for (int d = 0; d < devices_.num_devices(); ++d) {
      owned_pools_.push_back(std::make_unique<mem::ReservationPool>(
          per_device, "serve-dev" + std::to_string(d)));
      pools_.push_back(owned_pools_.back().get());
    }
  }
  if (options_.tracing) {
    for (int d = 0; d < devices_.num_devices(); ++d) {
      for (int i = 0; i < options_.num_streams; ++i) {
        const std::string name =
            devices_.num_devices() == 1
                ? "stream-" + std::to_string(i)
                : "dev" + std::to_string(d) + "/stream-" + std::to_string(i);
        stream_tracks_.push_back(trace_.RegisterTrack(name));
      }
    }
    admission_track_ = trace_.RegisterTrack("admission");
    placement_track_ = trace_.RegisterTrack("placement");
  }
}

QueryServer::~QueryServer() {
  // Stop in-flight executions promptly; their ExecStates (and reservations)
  // are kept alive by the tasks themselves and drain before exec_pool_ joins.
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, entry] : entries_) {
    (void)id;
    if (!entry->outcome.terminal() && entry->exec != nullptr) {
      entry->exec->cancel.store(true, std::memory_order_relaxed);
    }
  }
}

void QueryServer::RegisterTenant(const std::string& tenant, double weight) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& sched : scheds_) sched.RegisterTenant(tenant, weight);
}

SessionId QueryServer::OpenSession(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  SessionId id = next_session_id_++;
  sessions_[id] = tenant;
  return id;
}

mem::ReservationPool& QueryServer::reservations() { return *pools_[0]; }

mem::ReservationPool& QueryServer::reservations(int device) {
  SIRIUS_CHECK(device >= 0 && device < static_cast<int>(pools_.size()));
  return *pools_[static_cast<size_t>(device)];
}

mem::ReservationPool* QueryServer::SpillPoolFor(const std::string& tenant) {
  auto it = spill_pools_.find(tenant);
  if (it != spill_pools_.end()) return it->second.get();
  auto oit = spill_quota_overrides_.find(tenant);
  const uint64_t quota = oit != spill_quota_overrides_.end()
                             ? oit->second
                             : options_.tenant_spill_quota_bytes;
  const uint64_t capacity =
      quota > 0 ? quota : std::numeric_limits<uint64_t>::max();
  auto pool = std::make_unique<mem::ReservationPool>(capacity,
                                                     "spill-quota:" + tenant);
  mem::ReservationPool* raw = pool.get();
  spill_pools_.emplace(tenant, std::move(pool));
  return raw;
}

void QueryServer::SetTenantSpillQuota(const std::string& tenant,
                                      uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  spill_quota_overrides_[tenant] = bytes;
  auto it = spill_pools_.find(tenant);
  if (it != spill_pools_.end()) {
    // Replacing a pool with outstanding charges would orphan them: the
    // running queries' Reservations point at the old pool.
    SIRIUS_CHECK(it->second->reserved() == 0);
    spill_pools_.erase(it);
  }
}

mem::ReservationPool& QueryServer::spill_quota(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  return *SpillPoolFor(tenant);
}

bool QueryServer::device_lost(int device) const {
  std::lock_guard<std::mutex> lock(mu_);
  return devices_.lost(device);
}

uint64_t QueryServer::total_reserved_bytes() const {
  uint64_t total = 0;
  for (const auto* pool : pools_) total += pool->reserved();
  return total;
}

uint64_t QueryServer::total_refused() const {
  uint64_t total = 0;
  for (const auto* pool : pools_) total += pool->total_refused();
  return total;
}

double QueryServer::now_s() const {
  std::lock_guard<std::mutex> lock(mu_);
  return now_s_;
}

obs::QueryProfile QueryServer::Profile() const { return trace_.Finish(); }

void QueryServer::BumpTenantCounter(const std::string& tenant,
                                    const char* what) {
  metrics_.GetCounter(std::string("serve.") + what)->Add();
  metrics_.GetCounter("serve.tenant." + tenant + "." + what)->Add();
}

double QueryServer::Backlog(int device) const {
  // Time until one of the device's streams frees up, plus its queued work's
  // expected drain time spread across the streams. Deterministic (simulated
  // state only) so placement decisions replay.
  const double mean = exec_samples_ > 0 ? mean_exec_s_ : 10e-3;
  const double until_free =
      std::max(0.0, devices_.EarliestStart(device, now_s_) - now_s_);
  return until_free +
         static_cast<double>(scheds_[static_cast<size_t>(device)].depth()) *
             mean / devices_.streams_per_device();
}

double QueryServer::ComputeRetryAfter(int device) const {
  return std::max(1e-3, Backlog(device));
}

Status QueryServer::Overloaded(int device, const std::string& why) const {
  return Status::ResourceExhausted("device " + std::to_string(device) + ": " +
                                   why)
      .WithRetryAfter(ComputeRetryAfter(device));
}

PlacementPolicy::Decision QueryServer::PlaceQuery(const std::string& tenant,
                                                  bool resident) const {
  std::vector<double> backlogs;
  std::vector<bool> alive;
  for (int d = 0; d < devices_.num_devices(); ++d) {
    alive.push_back(!devices_.lost(d));
    backlogs.push_back(alive.back() ? Backlog(d) : kInf);
  }
  return placer_.Place(tenant, resident, backlogs, alive);
}

bool QueryServer::InputsResident(const plan::PlanPtr& plan,
                                 const std::string& norm,
                                 uint64_t version) const {
  // A live cache entry stamp means this statement ran against the current
  // catalog recently — its plan (and possibly result) were produced from
  // inputs that were resident then.
  if (cache_.HasLiveEntry(norm, version)) return true;
  return ScansResident(plan, engine_->buffer_manager());
}

void QueryServer::UpdateDeviceGauges() {
  size_t total_depth = 0;
  for (const auto& sched : scheds_) total_depth += sched.depth();
  metrics_.SetGauge("serve.queue_depth", static_cast<double>(total_depth));
  metrics_.SetGauge("serve.reserved_bytes",
                    static_cast<double>(total_reserved_bytes()));
  // Per-tier spill gauges ride along with the device gauges: the engine's
  // tier hierarchy is a shared resource the operator watches next to the
  // queues (mem.tier.host.*, mem.tier.nvme.*, mem.pinned_host.in_use_bytes).
  engine_->tiers().PublishGauges(&metrics_);
  if (devices_.num_devices() == 1) return;
  for (int d = 0; d < devices_.num_devices(); ++d) {
    const std::string prefix = "serve.device." + std::to_string(d);
    metrics_.SetGauge(prefix + ".queue_depth",
                      static_cast<double>(scheds_[static_cast<size_t>(d)].depth()));
    metrics_.SetGauge(
        prefix + ".reserved_bytes",
        static_cast<double>(pools_[static_cast<size_t>(d)]->reserved()));
    metrics_.SetGauge(prefix + ".busy_streams",
                      static_cast<double>(devices_.BusyAt(d, now_s_)));
    metrics_.SetGauge(prefix + ".busy_until_s",
                      devices_.lost(d) ? 0.0
                                       : devices_.streams(d).Horizon());
  }
}

void QueryServer::LoseDevice(int device, double at_s) {
  devices_.MarkLost(device);
  placer_.ForgetDevice(device);
  metrics_.GetCounter("serve.device_lost")->Add();
  if (options_.tracing) {
    trace_.AddInstant(placement_track_, "device-lost dev" + std::to_string(device),
                      "serve.place", at_s);
  }
  std::vector<QueuedEntry> orphans =
      scheds_[static_cast<size_t>(device)].Drain();
  for (QueuedEntry& qe : orphans) {
    auto it = entries_.find(qe.query_id);
    SIRIUS_CHECK(it != entries_.end());
    Entry* entry = it->second.get();

    auto shed_entry = [&](Status status) {
      // The survivor pools cannot carry this admission: join the real
      // execution (cancelled, result discarded) and finalize as shed.
      (void)JoinExecution(entry, /*cancel=*/true);
      metrics_.GetCounter("serve.requeue_shed")->Add();
      FinishUnplaced(entry, QueryState::kShed, std::move(status), at_s);
    };

    const PlacementPolicy::Decision dec =
        PlaceQuery(qe.tenant, entry->inputs_resident);
    if (dec.device < 0) {
      shed_entry(Status::Unavailable(
          "device group lost every device; query cannot be re-placed"));
      continue;
    }
    // Re-enter admission on the survivor: the lost device's reservation is
    // void (its region is gone); the survivor pool must cover the query.
    // The original Reservation object stays put until the execution joins —
    // the engine may still be growing it concurrently.
    auto reservation = mem::Reservation::Take(
        pools_[static_cast<size_t>(dec.device)], entry->reservation_bytes);
    if (!reservation.ok()) {
      shed_entry(Overloaded(dec.device, reservation.status().message()));
      continue;
    }
    entry->requeue_reservation = std::move(reservation).ValueOrDie();
    entry->device = dec.device;
    entry->outcome.device = dec.device;
    entry->outcome.warm_placed = false;
    // Survivors re-fetch the query's resident inputs over the fabric/host
    // link; cold inputs reload through the engine's buffer manager anyway.
    entry->migrate_s = entry->inputs_resident
                           ? devices_.MigrateSeconds(entry->reservation_bytes)
                           : 0;
    placer_.RecordPlacement(qe.tenant, dec.device);
    qe.arrival_s = std::max(qe.arrival_s, at_s);
    scheds_[static_cast<size_t>(dec.device)].Enqueue(qe);
    metrics_.GetCounter("serve.requeued")->Add();
    if (options_.tracing) {
      trace_.AddComplete(placement_track_,
                         "requeue q" + std::to_string(qe.query_id) + " dev" +
                             std::to_string(device) + "->dev" +
                             std::to_string(dec.device),
                         "serve.place", at_s, at_s,
                         {{"device", static_cast<double>(dec.device)}});
    }
  }
}

Result<QueryId> QueryServer::Submit(SessionId session, const std::string& sql,
                                    const SubmitOptions& sub) {
  std::lock_guard<std::mutex> lock(mu_);
  auto sit = sessions_.find(session);
  if (sit == sessions_.end()) {
    return Status::Invalid("Submit: unknown session " + std::to_string(session));
  }
  const std::string& tenant = sit->second;

  // Arrivals are processed in nondecreasing simulated order; an arrival
  // behind the dispatch frontier is clamped forward (the DES already
  // committed decisions up to the frontier).
  double arrival = sub.arrival_s < 0 ? now_s_ : std::max(sub.arrival_s, now_s_);
  Pump(arrival);
  now_s_ = std::max(now_s_, arrival);

  BumpTenantCounter(tenant, "submitted");

  // Overload fault site: chaos tests shed here without real memory pressure.
  Status admit = injector()->Check(kAdmitSite);
  if (!admit.ok()) {
    return ShedSubmit(tenant, "fault", arrival,
                      Status::ResourceExhausted(admit.message())
                          .WithRetryAfter(ComputeRetryAfter(0)));
  }

  const std::string norm = NormalizeSql(sql);
  const uint64_t version = db_->catalog().version();

  // Result cache first: a hit costs no admission, no stream, no execution.
  if (!sub.bypass_cache) {
    QueryCache::CachedResult hit;
    if (cache_.LookupResult(norm, version, &hit)) {
      Entry* entry = AddEntry(tenant, sub, arrival);
      QueryOutcome& out = entry->outcome;
      out.state = QueryState::kCompleted;
      out.dispatch_s = arrival;
      out.finish_s = arrival + options_.cache_hit_cost_s;
      out.cache_hit = true;
      out.exec_solo_s = hit.exec_seconds;  // saved device time
      if (hit.table != nullptr) out.result_rows = hit.table->num_rows();
      if (sub.keep_result) out.table = hit.table;
      BumpTenantCounter(tenant, "cache_hits");
      if (options_.tracing) {
        trace_.AddInstant(admission_track_, "cache-hit " + tenant,
                          "admission", arrival);
      }
      Finalize(entry);
      return out.id;
    }
  }

  // Planned before placement so the residency consult can walk the scans.
  plan::PlanPtr plan =
      sub.bypass_cache ? nullptr : cache_.LookupPlan(norm, version);
  if (plan == nullptr) {
    auto planned = db_->PlanSql(sql);
    if (!planned.ok()) return planned.status();
    plan = std::move(planned).ValueOrDie();
    if (!sub.bypass_cache) cache_.InsertPlan(norm, version, plan);
  }

  // Placement: pick the device this query is admitted against. The
  // "serve.place" fault site forces device loss (Unavailable) or
  // mis-placement (any other code) ahead of the policy's choice.
  const bool resident = InputsResident(plan, norm, version);
  Status place_fault = injector()->Check(kPlaceSite);
  PlacementPolicy::Decision dec = PlaceQuery(tenant, resident);
  if (place_fault.IsUnavailable() && dec.device >= 0) {
    LoseDevice(dec.device, arrival);
    dec = PlaceQuery(tenant, resident);
  } else if (!place_fault.ok() && !place_fault.IsUnavailable()) {
    // Forced mis-placement: the most-loaded alive device (deterministic
    // worst choice), ignoring warmth.
    int worst = -1;
    for (int d = 0; d < devices_.num_devices(); ++d) {
      if (!devices_.lost(d) && (worst < 0 || Backlog(d) > Backlog(worst))) {
        worst = d;
      }
    }
    dec = PlacementPolicy::Decision{worst, false, "forced"};
  }
  if (dec.device < 0) {
    return ShedSubmit(
        tenant, "lost", arrival,
        Status::Unavailable("no device available: every device is lost"));
  }
  const size_t dev = static_cast<size_t>(dec.device);

  // Queue-depth shed: bound admitted-but-waiting work per device.
  if (scheds_[dev].depth() >= options_.max_queue_depth) {
    return ShedSubmit(tenant, "queue", arrival,
                      Overloaded(dec.device,
                                 "admission queue full (depth " +
                                     std::to_string(scheds_[dev].depth()) +
                                     ")"));
  }

  // Memory admission: reserve the estimated working set up front, from the
  // placed device's pool.
  const uint64_t bytes = sub.reservation_bytes > 0
                             ? sub.reservation_bytes
                             : options_.default_reservation_bytes;
  auto reservation = mem::Reservation::Take(pools_[dev], bytes);
  if (!reservation.ok()) {
    return ShedSubmit(tenant, "memory", arrival,
                      Overloaded(dec.device, reservation.status().message()));
  }

  // Spilling away from a warm device drags the resident working set across
  // the fabric; priced ahead of execution on the target device. Computed
  // before RecordPlacement overwrites the warm pointer.
  const int prev_warm = placer_.warm_device(tenant);
  const double migrate_s =
      (resident && !dec.warm && prev_warm >= 0 && prev_warm != dec.device)
          ? devices_.MigrateSeconds(bytes)
          : 0;
  placer_.RecordPlacement(tenant, dec.device);
  metrics_.GetCounter(std::string("serve.placed_") + dec.reason)->Add();
  metrics_.GetCounter("serve.device." + std::to_string(dec.device) + ".placed")
      ->Add();
  if (options_.tracing) {
    trace_.AddComplete(
        placement_track_,
        std::string("place ") + tenant + " dev" + std::to_string(dec.device) +
            " (" + dec.reason + ")",
        "serve.place", arrival, arrival,
        {{"device", static_cast<double>(dec.device)},
         {"warm", dec.warm ? 1.0 : 0.0},
         {"migrate_s", migrate_s}});
  }

  Entry* entry = AddEntry(tenant, sub, arrival);
  entry->outcome.device = dec.device;
  entry->outcome.warm_placed = dec.warm;
  entry->normalized_sql = norm;
  entry->timeout_s =
      sub.timeout_s < 0 ? options_.default_timeout_s : sub.timeout_s;
  entry->bypass_cache = sub.bypass_cache;
  entry->catalog_version = version;
  entry->device = dec.device;
  entry->migrate_s = migrate_s;
  entry->inputs_resident = resident;
  entry->reservation_bytes = bytes;
  entry->plan = std::move(plan);
  LaunchExecution(entry, std::move(reservation).ValueOrDie());

  scheds_[dev].Enqueue(
      QueuedEntry{entry->outcome.id, tenant, sub.priority, arrival});
  UpdateDeviceGauges();
  Pump(arrival);
  return entry->outcome.id;
}

Status QueryServer::ShedSubmit(const std::string& tenant, const char* why,
                               double at_s, Status status) {
  BumpTenantCounter(tenant, "shed");
  if (options_.tracing) {
    trace_.AddInstant(admission_track_,
                      std::string("shed(") + why + ") " + tenant, "admission",
                      at_s);
  }
  return status;
}

QueryServer::Entry* QueryServer::AddEntry(const std::string& tenant,
                                          const SubmitOptions& sub,
                                          double arrival_s) {
  auto entry = std::make_unique<Entry>();
  entry->outcome.id = next_query_id_++;
  entry->outcome.tenant = tenant;
  entry->outcome.priority = sub.priority;
  entry->outcome.arrival_s = arrival_s;
  entry->keep_result = sub.keep_result;
  Entry* raw = entry.get();
  entries_.emplace(raw->outcome.id, std::move(entry));
  return raw;
}

void QueryServer::LaunchExecution(Entry* entry, mem::Reservation reservation) {
  auto exec = std::make_shared<ExecState>();
  exec->reservation = std::move(reservation);
  // Charge this execution's spilled bytes to the tenant's quota pool. The
  // handle starts empty; the engine grows it per spilled extent.
  auto spill = mem::Reservation::Take(SpillPoolFor(entry->outcome.tenant), 0);
  if (spill.ok()) exec->spill = std::move(spill).ValueOrDie();
  entry->exec = exec;
  entry->future = exec->promise.get_future();
  plan::PlanPtr plan = entry->plan;
  engine::SiriusEngine* engine = engine_;
  host::Database* db = db_;
  const double deadline = entry->timeout_s;
  fault::FaultInjector* inj = injector();
  exec_pool_.Submit([exec, plan, engine, db, deadline, inj] {
    ExecResult r;
    // Mid-query cancellation fault site: chaos tests flip the cancel flag
    // through the schedule instead of a timer.
    Status cancel_fault = inj->Check(kCancelSite);
    if (!cancel_fault.ok()) exec->cancel.store(true, std::memory_order_relaxed);

    engine::ExecLimits limits;
    limits.deadline_s = deadline;  // queue wait is enforced by the server
    limits.cancel = &exec->cancel;
    limits.reservation = &exec->reservation;
    limits.spill = &exec->spill;
    auto res = engine->ExecutePlan(plan, limits);
    if (!res.ok() && res.status().IsUnsupportedOnDevice()) {
      auto cpu = db->ExecutePlanCpu(plan);
      if (cpu.ok()) {
        r.fell_back = true;
        res = std::move(cpu);
      }
    }
    if (res.ok()) {
      const host::QueryResult& q = res.ValueOrDie();
      r.status = Status::OK();
      r.solo_seconds = q.timeline.total_seconds();
      r.table = q.table;
    } else {
      r.status = res.status();
    }
    exec->promise.set_value(std::move(r));
  });
}

int QueryServer::EarliestDecision(double* start_s) const {
  int best_device = -1;
  double best_start = kInf;
  for (int d = 0; d < devices_.num_devices(); ++d) {
    if (devices_.lost(d) || scheds_[static_cast<size_t>(d)].empty()) continue;
    const double ready = scheds_[static_cast<size_t>(d)].EarliestArrival();
    const double start = devices_.EarliestStart(d, ready);
    if (start < best_start) {
      best_start = start;
      best_device = d;
    }
  }
  *start_s = best_start;
  return best_device;
}

QueryServer::Entry* QueryServer::DispatchNext(double until_s) {
  double start = kInf;
  const int dev = EarliestDecision(&start);
  QueuedEntry next;
  if (dev < 0 || start > until_s ||
      !scheds_[static_cast<size_t>(dev)].PopNext(start, &next)) {
    return nullptr;
  }
  auto it = entries_.find(next.query_id);
  SIRIUS_CHECK(it != entries_.end());
  DispatchEntry(it->second.get(), start);
  return it->second.get();
}

void QueryServer::Pump(double until_s) {
  while (DispatchNext(until_s) != nullptr) {
  }
  UpdateDeviceGauges();
}

QueryServer::ExecResult QueryServer::JoinExecution(Entry* entry, bool cancel) {
  if (cancel) entry->exec->cancel.store(true, std::memory_order_relaxed);
  ExecResult r = entry->future.get();
  entry->exec->reservation.Release();
  entry->exec->spill.Release();
  entry->requeue_reservation.Release();
  return r;
}

void QueryServer::DispatchEntry(Entry* entry, double ready_s) {
  QueryOutcome& out = entry->outcome;
  out.state = QueryState::kRunning;
  now_s_ = std::max(now_s_, ready_s);
  const double deadline =
      entry->timeout_s > 0 ? out.arrival_s + entry->timeout_s : kInf;
  sim::StreamSet& streams = devices_.streams(entry->device);

  if (ready_s >= deadline) {
    // The deadline passed while the query sat in the queue: cancel the real
    // execution (its result is discarded) and charge nothing to a stream.
    (void)JoinExecution(entry, /*cancel=*/true);
    FinishUnplaced(entry, QueryState::kTimedOut,
                   Status::Timeout(
                       "deadline expired in admission queue (waited " +
                       std::to_string(deadline - out.arrival_s) + "s)"),
                   deadline);
    return;
  }

  // Join the real execution; every simulated instant below derives from its
  // charged timeline plus stream arbitration.
  ExecResult r = JoinExecution(entry, /*cancel=*/false);

  // A mid-spill tier loss voided staged extents out from under the query.
  // The engine already revived the tiers and re-ran once; if the loss still
  // surfaced here, re-admission is the second line of defense (mirroring
  // the device-loss protocol): relaunch the kept plan through a fresh
  // execution, once per query.
  if (r.status.cause() == StatusCause::kSpillTierLost &&
      entry->plan != nullptr && !entry->tier_requeued) {
    entry->tier_requeued = true;
    auto reservation = mem::Reservation::Take(
        pools_[static_cast<size_t>(entry->device)], entry->reservation_bytes);
    if (!reservation.ok()) {
      // Admission cannot cover the relaunch right now: shed with a hint —
      // the loss was the system's fault, not the query's.
      FinishUnplaced(entry, QueryState::kShed,
                     Overloaded(entry->device, reservation.status().message()),
                     ready_s);
      return;
    }
    out.state = QueryState::kQueued;
    LaunchExecution(entry, std::move(reservation).ValueOrDie());
    scheds_[static_cast<size_t>(entry->device)].Enqueue(
        QueuedEntry{out.id, out.tenant, out.priority, ready_s});
    BumpTenantCounter(out.tenant, "tier_requeued");
    if (options_.tracing) {
      trace_.AddInstant(placement_track_,
                        "tier-loss-requeue q" + std::to_string(out.id),
                        "serve.place", ready_s);
    }
    return;
  }

  // A refused spill (the tenant's quota, or every tier full) is an
  // admission-class refusal, not a query failure: shed with the engine's
  // retry-after hint, or the device backlog when the engine gave none, so
  // the tenant backs off while its other queries drain their staged bytes.
  if (r.status.cause() == StatusCause::kSpillRefused) {
    BumpTenantCounter(out.tenant, "spill_quota_shed");
    FinishUnplaced(entry, QueryState::kShed,
                   r.status.retry_after_s() > 0
                       ? r.status
                       : r.status.WithRetryAfter(
                             ComputeRetryAfter(entry->device)),
                   ready_s);
    return;
  }

  // An engine-side Timeout means execution alone exceeded the budget: the
  // lane stays busy up to the deadline, then the cancellation frees it. A
  // cancellation with no deadline (chaos "serve.cancel", shutdown) has no
  // well-defined occupancy — like a failure, it ends where it started.
  const bool engine_timeout = r.status.IsTimeout();
  if (!r.status.ok() && (!engine_timeout || !std::isfinite(deadline))) {
    FinishUnplaced(entry,
                   engine_timeout ? QueryState::kTimedOut : QueryState::kFailed,
                   r.status, ready_s);
    return;
  }
  // A migrating placement pays the fabric transfer ahead of execution on
  // the target device's stream (it stretches under contention like any
  // other occupancy).
  const double solo = engine_timeout
                          ? std::max(deadline - ready_s, 0.0)
                          : r.solo_seconds;
  const double occupancy = engine_timeout ? solo : solo + entry->migrate_s;
  sim::StreamSet::Placement p = streams.Place(ready_s, occupancy);
  out.dispatch_s = p.start_s;
  out.stream = p.stream;
  out.device = entry->device;
  out.slowdown = p.slowdown;
  out.exec_solo_s = solo;
  out.migrate_s = entry->migrate_s;
  now_s_ = std::max(now_s_, p.start_s);

  const bool timed_out = engine_timeout || p.end_s > deadline;
  if (timed_out) {
    streams.Truncate(p.stream, deadline);
    out.state = QueryState::kTimedOut;
    out.finish_s = deadline;
    out.status = engine_timeout
                     ? r.status
                     : Status::Timeout(
                           "deadline exceeded mid-flight (needed until " +
                           std::to_string(p.end_s) + "s)");
    scheds_[static_cast<size_t>(entry->device)].Charge(
        out.tenant, std::max(deadline - p.start_s, 0.0));
  } else {
    out.state = QueryState::kCompleted;
    out.status = Status::OK();
    out.finish_s = p.end_s;
    out.fell_back = r.fell_back;
    if (r.table != nullptr) out.result_rows = r.table->num_rows();
    if (entry->keep_result) out.table = r.table;
    if (!entry->bypass_cache) {
      cache_.InsertResult(entry->normalized_sql, entry->catalog_version,
                          QueryCache::CachedResult{r.table, solo});
      if (options_.on_result_fill && r.table != nullptr) {
        // The cluster tier replicates this fill to peer caches. The
        // callback runs under mu_ and only records the event.
        ResultFillEvent fill;
        fill.normalized_sql = entry->normalized_sql;
        fill.catalog_version = entry->catalog_version;
        fill.result = QueryCache::CachedResult{r.table, solo};
        fill.tenant = out.tenant;
        fill.completed_at_s = out.finish_s;
        options_.on_result_fill(fill);
      }
    }
    scheds_[static_cast<size_t>(entry->device)].Charge(out.tenant,
                                                       p.end_s - p.start_s);
    mean_exec_s_ =
        (mean_exec_s_ * static_cast<double>(exec_samples_) + solo) /
        static_cast<double>(exec_samples_ + 1);
    ++exec_samples_;
  }
  Finalize(entry);
}

void QueryServer::Finalize(Entry* entry) {
  const QueryOutcome& out = entry->outcome;
  switch (out.state) {
    case QueryState::kCompleted:
      BumpTenantCounter(out.tenant, "completed");
      break;
    case QueryState::kTimedOut:
      BumpTenantCounter(out.tenant, "timed_out");
      break;
    case QueryState::kFailed:
      BumpTenantCounter(out.tenant, "failed");
      break;
    case QueryState::kShed:
      BumpTenantCounter(out.tenant, "shed");
      break;
    default:
      break;
  }
  if (options_.tracing) {
    const size_t track =
        static_cast<size_t>(entry->device) *
            static_cast<size_t>(options_.num_streams) +
        static_cast<size_t>(out.stream >= 0 ? out.stream : 0);
    if (out.stream >= 0 && track < stream_tracks_.size()) {
      trace_.AddComplete(
          stream_tracks_[track],
          "q" + std::to_string(out.id) + " " + out.tenant,
          out.state == QueryState::kTimedOut ? "timeout" : "query",
          out.dispatch_s, out.finish_s,
          {{"slowdown", out.slowdown},
           {"queue_wait_s", out.queue_wait_s()},
           {"solo_s", out.exec_solo_s},
           {"device", static_cast<double>(out.device)},
           {"migrate_s", out.migrate_s}});
    } else if (out.state == QueryState::kTimedOut) {
      trace_.AddInstant(admission_track_,
                        "queue-timeout q" + std::to_string(out.id), "timeout",
                        out.finish_s);
    }
  }
  now_s_ = std::max(now_s_, out.dispatch_s);
}

void QueryServer::FinishUnplaced(Entry* entry, QueryState state,
                                 Status status, double at_s) {
  QueryOutcome& out = entry->outcome;
  out.state = state;
  out.status = std::move(status);
  out.dispatch_s = at_s;
  out.finish_s = at_s;
  Finalize(entry);
}

Result<QueryOutcome> QueryServer::Resolve(QueryId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    return Status::KeyError("Resolve: unknown query " + std::to_string(id));
  }
  Entry* target = it->second.get();
  while (!target->outcome.terminal()) {
    if (DispatchNext(kInf) == nullptr) {
      return Status::Internal("Resolve: query " + std::to_string(id) +
                              " is neither queued nor terminal");
    }
  }
  UpdateDeviceGauges();
  return target->outcome;
}

double QueryServer::NextDispatchTime() const {
  std::lock_guard<std::mutex> lock(mu_);
  double start = kInf;
  (void)EarliestDecision(&start);
  return start;
}

Result<QueryOutcome> QueryServer::Step() {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* entry = DispatchNext(kInf);
  if (entry == nullptr) return Status::Invalid("Step: nothing queued");
  UpdateDeviceGauges();
  return entry->outcome;
}

Result<QueryOutcome> QueryServer::Peek(QueryId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    return Status::KeyError("Peek: unknown query " + std::to_string(id));
  }
  return it->second->outcome;
}

Status QueryServer::DrainAll() {
  std::lock_guard<std::mutex> lock(mu_);
  Pump(kInf);
  return Status::OK();
}

void QueryServer::InstallCachedResult(const std::string& normalized_sql,
                                      uint64_t catalog_version,
                                      QueryCache::CachedResult result) {
  cache_.InsertResult(normalized_sql, catalog_version, std::move(result));
}

bool QueryServer::LookupCachedResult(const std::string& normalized_sql,
                                     uint64_t catalog_version,
                                     QueryCache::CachedResult* out) {
  return cache_.LookupResult(normalized_sql, catalog_version, out);
}

size_t QueryServer::EvictStaleCache(uint64_t current_version) {
  return cache_.EvictStale(current_version);
}

std::vector<QueryOutcome> QueryServer::Outcomes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<QueryOutcome> out;
  out.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) {
    (void)id;
    out.push_back(entry->outcome);
  }
  return out;
}

}  // namespace sirius::serve
