#include "mem/tier.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "mem/buffer.h"

namespace sirius::mem {

SIRIUS_FAULT_DEFINE_SITE(kSiteSpillWrite, "mem.spill.write");
SIRIUS_FAULT_DEFINE_SITE(kSiteSpillRead, "mem.spill.read");
SIRIUS_FAULT_DEFINE_SITE(kSiteTierLost, "mem.tier.lost");

namespace {

/// Transient reads are retried in place up to this many attempts; the data
/// has exactly one home, so unlike writes there is no tier to fall back to.
constexpr int kMaxReadAttempts = 4;

std::atomic<uint64_t> g_pinned_host_in_use{0};

}  // namespace

const char* TierName(Tier t) {
  switch (t) {
    case Tier::kHost:
      return "host";
    case Tier::kNvme:
      return "nvme";
  }
  return "unknown";
}

uint64_t PinnedHostAlloc(uint64_t bytes) {
  return g_pinned_host_in_use.fetch_add(bytes, std::memory_order_relaxed) +
         bytes;
}

void PinnedHostFree(uint64_t bytes) {
  g_pinned_host_in_use.fetch_sub(bytes, std::memory_order_relaxed);
}

uint64_t PinnedHostInUse() {
  return g_pinned_host_in_use.load(std::memory_order_relaxed);
}

TierManager::TierManager(Options options, fault::FaultInjector* injector)
    : options_(std::move(options)),
      injector_(injector != nullptr ? injector
                                    : fault::FaultInjector::Global()) {}

uint64_t TierManager::capacity(Tier t) const {
  return t == Tier::kHost ? options_.host_capacity_bytes
                          : options_.nvme_capacity_bytes;
}

double TierManager::WriteSeconds(Tier t, uint64_t bytes) const {
  double s = options_.host_link.TransferSeconds(bytes);
  if (t == Tier::kNvme) s += options_.nvme_link.TransferSeconds(bytes);
  return s;
}

double TierManager::ReadSeconds(Tier t, uint64_t bytes) const {
  return WriteSeconds(t, bytes);  // symmetric links
}

void TierManager::MarkLost(Tier tier) {
  std::lock_guard<std::mutex> lock(mu_);
  MarkLostLocked(tier);
}

void TierManager::MarkLostLocked(Tier tier) {
  TierState& ts = tiers_[static_cast<int>(tier)];
  if (ts.lost) return;
  ts.lost = true;
  ++ts.losses;
  // Void every resident extent: its bytes are gone with the tier. Balance
  // the session's transfer pin before retiring so only extents some other
  // holder still pins (staged data borrowed by a kernel) get flagged.
  auto& tracker = LifetimeTracker::Global();
  for (auto it = extents_.begin(); it != extents_.end();) {
    if (it->second.tier != tier) {
      ++it;
      continue;
    }
    ReleaseBytesLocked(tier, it->second.bytes);
    tracker.OnUnpin(it->first);
    tracker.OnFree(it->first);
    it = extents_.erase(it);
  }
}

bool TierManager::lost(Tier t) const {
  std::lock_guard<std::mutex> lock(mu_);
  return tiers_[static_cast<int>(t)].lost;
}

void TierManager::ReviveLostTiers() {
  std::lock_guard<std::mutex> lock(mu_);
  for (TierState& ts : tiers_) ts.lost = false;
}

TierManager::TierStats TierManager::stats(Tier t) const {
  std::lock_guard<std::mutex> lock(mu_);
  const TierState& ts = tiers_[static_cast<int>(t)];
  TierStats out;
  out.capacity_bytes = capacity(t);
  out.used_bytes = ts.used;
  out.high_water_bytes = ts.high_water;
  out.spill_writes = ts.spill_writes;
  out.spill_reads = ts.spill_reads;
  out.spilled_bytes = ts.spilled_bytes;
  out.write_retries = ts.write_retries;
  out.read_retries = ts.read_retries;
  out.losses = ts.losses;
  out.lost = ts.lost;
  return out;
}

void TierManager::NoteEvictionWriteback(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  ++eviction_writebacks_;
  eviction_writeback_bytes_ += bytes;
}

uint64_t TierManager::eviction_writebacks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return eviction_writebacks_;
}

void TierManager::PublishGauges(obs::MetricsRegistry* metrics) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (int i = 0; i < kTierCount; ++i) {
    const Tier t = static_cast<Tier>(i);
    const TierState& ts = tiers_[i];
    const std::string p = std::string("mem.tier.") + TierName(t) + ".";
    metrics->SetGauge(p + "capacity_bytes", static_cast<double>(capacity(t)));
    metrics->SetGauge(p + "used_bytes", static_cast<double>(ts.used));
    metrics->SetGauge(p + "high_water_bytes",
                      static_cast<double>(ts.high_water));
    metrics->SetGauge(p + "spill_writes", static_cast<double>(ts.spill_writes));
    metrics->SetGauge(p + "spill_reads", static_cast<double>(ts.spill_reads));
    metrics->SetGauge(p + "spilled_bytes",
                      static_cast<double>(ts.spilled_bytes));
    metrics->SetGauge(p + "lost", ts.lost ? 1.0 : 0.0);
  }
  metrics->SetGauge("mem.tier.eviction_writebacks",
                    static_cast<double>(eviction_writebacks_));
  metrics->SetGauge("mem.tier.eviction_writeback_bytes",
                    static_cast<double>(eviction_writeback_bytes_));
  metrics->SetGauge("mem.pinned_host.in_use_bytes",
                    static_cast<double>(PinnedHostInUse()));
}

Result<Tier> TierManager::PlaceExtent(uint64_t bytes, uint64_t generation,
                                      int* write_retries_out) {
  std::lock_guard<std::mutex> lock(mu_);
  *write_retries_out = 0;
  bool saw_loss = false;
  Status last_write_fault = Status::OK();
  std::string why;
  for (int i = 0; i < kTierCount; ++i) {
    const Tier t = static_cast<Tier>(i);
    TierState& ts = tiers_[i];
    const std::string name = TierName(t);
    if (capacity(t) == 0) {
      why += (why.empty() ? "" : ", ") + name + ": disabled";
      continue;
    }
    if (ts.lost) {
      saw_loss = true;
      why += (why.empty() ? "" : ", ") + name + ": lost";
      continue;
    }
    Status loss = injector_->Check(kSiteTierLost);
    if (!loss.ok()) {
      MarkLostLocked(t);
      saw_loss = true;
      why += (why.empty() ? "" : ", ") + name + ": lost mid-spill";
      continue;
    }
    Status wf = injector_->Check(kSiteSpillWrite);
    if (!wf.ok() && wf.IsTransient()) {
      ++ts.write_retries;
      ++*write_retries_out;
      wf = injector_->Check(kSiteSpillWrite);  // one in-place retry
    }
    if (!wf.ok()) {
      if (!wf.IsTransient()) {
        return Status(wf.code(), "spill writeback to " + name +
                                     " tier failed: " + wf.message());
      }
      last_write_fault = wf;
      why += (why.empty() ? "" : ", ") + name + ": write fault";
      continue;
    }
    if (ts.used + bytes > capacity(t)) {
      why += (why.empty() ? "" : ", ") + name + ": full (" +
             std::to_string(ts.used) + " of " + std::to_string(capacity(t)) +
             " used)";
      continue;
    }
    ts.used += bytes;
    ts.high_water = std::max(ts.high_water, ts.used);
    ++ts.spill_writes;
    ts.spilled_bytes += bytes;
    if (t == Tier::kHost) PinnedHostAlloc(bytes);
    extents_[generation] = Extent{t, bytes};
    return t;
  }
  if (saw_loss) {
    return Status::Unavailable(
        "spill tier lost mid-spill; no surviving tier could absorb " +
            std::to_string(bytes) + " bytes (" + why + ")",
        StatusCause::kSpillTierLost);
  }
  if (!last_write_fault.ok()) {
    return Status(last_write_fault.code(),
                  "spill writeback failed on every tier (" + why +
                      "): " + last_write_fault.message());
  }
  return Status::ResourceExhausted(
      "spill of " + std::to_string(bytes) +
          " bytes exceeds every configured tier (" + why +
          "); raise TierManager::Options capacities or lower concurrency",
      StatusCause::kSpillRefused);
}

Result<int> TierManager::CompleteReadBack(uint64_t generation) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = extents_.find(generation);
  if (it == extents_.end()) {
    return Status::Unavailable(
        "spill tier lost mid-spill: staged extent (generation " +
            std::to_string(generation) + ") was voided when its tier failed",
        StatusCause::kSpillTierLost);
  }
  const Tier t = it->second.tier;
  TierState& ts = tiers_[static_cast<int>(t)];
  int retries = 0;
  Status st = Status::OK();
  for (int attempt = 0; attempt < kMaxReadAttempts; ++attempt) {
    st = injector_->Check(kSiteSpillRead);
    if (st.ok() || !st.IsTransient()) break;
    ++retries;
  }
  ts.read_retries += retries;
  const uint64_t bytes = it->second.bytes;
  ReleaseBytesLocked(t, bytes);
  extents_.erase(it);
  auto& tracker = LifetimeTracker::Global();
  tracker.OnUnpin(generation);
  tracker.OnFree(generation);
  if (!st.ok()) {
    return Status(st.code(), "spill read-back of " + std::to_string(bytes) +
                                 " bytes from " + TierName(t) +
                                 " tier failed: " + st.message());
  }
  ++ts.spill_reads;
  return retries;
}

void TierManager::AbandonExtent(uint64_t generation) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = extents_.find(generation);
  if (it == extents_.end()) return;
  ReleaseBytesLocked(it->second.tier, it->second.bytes);
  extents_.erase(it);
  auto& tracker = LifetimeTracker::Global();
  tracker.OnUnpin(generation);
  tracker.OnFree(generation);
}

void TierManager::ReleaseBytesLocked(Tier t, uint64_t bytes) {
  TierState& ts = tiers_[static_cast<int>(t)];
  SIRIUS_CHECK(bytes <= ts.used);
  ts.used -= bytes;
  if (t == Tier::kHost) PinnedHostFree(bytes);
}

SpillSession::SpillSession(TierManager* tiers) : tiers_(tiers) {}

SpillSession::~SpillSession() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, lane] : lanes_) {
    for (const LaneExtent& e : lane.extents) {
      tiers_->AbandonExtent(e.generation);
      if (lane.hazards != nullptr) lane.hazards->ReleaseResource(e.generation);
    }
  }
}

Result<SpillSession::Ticket> SpillSession::RoundTrip(
    int lane, uint64_t bytes, double now_s, Reservation* quota,
    sim::HazardTracker* hazards, sim::StreamId compute_stream) {
  std::lock_guard<std::mutex> lock(mu_);
  Lane& L = lanes_[lane];
  auto& tracker = LifetimeTracker::Global();
  const uint64_t gen = tracker.OnAlloc(
      bytes, "spill extent (lane " + std::to_string(lane) + ")");

  int write_retries = 0;
  Result<Tier> placed = tiers_->PlaceExtent(bytes, gen, &write_retries);
  if (!placed.ok()) {
    tracker.OnFree(gen);  // the minted generation never held memory
    return placed.status();
  }
  const Tier tier = placed.ValueOrDie();
  tracker.OnPin(gen);  // in flight on the lane until Join

  if (quota != nullptr) {
    Status q = quota->Grow(bytes);
    if (!q.ok()) {
      tiers_->AbandonExtent(gen);
      // Retry-after: the time for in-flight lanes to drain and this extent
      // to round-trip — when the tenant retries after that, its finished
      // queries have released their quota.
      const double drain =
          std::max(0.0, std::max(L.busy_until[0], L.busy_until[1]) - now_s) +
          tiers_->WriteSeconds(tier, bytes) + tiers_->ReadSeconds(tier, bytes);
      return Status::ResourceExhausted(
                 "tenant spill quota exhausted while spilling " +
                     std::to_string(bytes) + " bytes to " + TierName(tier) +
                     " tier: " + q.message(),
                 StatusCause::kSpillRefused)
          .WithRetryAfter(drain);
    }
  }

  const int ti = static_cast<int>(tier);
  const double wait = std::max(0.0, L.busy_until[ti] - now_s);
  const double write_s =
      tiers_->WriteSeconds(tier, bytes) * (1 + write_retries);
  const double read_s = tiers_->ReadSeconds(tier, bytes);
  Ticket tk;
  tk.tier = tier;
  tk.bytes = bytes;
  tk.generation = gen;
  tk.stall_s = wait;
  tk.write_start_s = now_s + wait;
  tk.write_end_s = tk.write_start_s + write_s;
  tk.read_end_s = tk.write_end_s + read_s;
  L.busy_until[ti] = tk.read_end_s;

  if (hazards != nullptr) {
    L.hazards = hazards;
    if (L.spill_stream < 0) {
      L.spill_stream =
          hazards->CreateStream("spill-lane-" + std::to_string(lane));
    }
    // compute -> writeback -> prefetch -> compute, all visible as edges.
    sim::EventId produced = hazards->RecordEvent(compute_stream);
    hazards->StreamWaitEvent(L.spill_stream, produced);
    hazards->OnWrite(L.spill_stream, gen, "spill writeback");
    hazards->OnRead(L.spill_stream, gen, "spill prefetch");
    sim::EventId restored = hazards->RecordEvent(L.spill_stream);
    hazards->StreamWaitEvent(compute_stream, restored);
  }

  L.extents.push_back(LaneExtent{gen, bytes, tier});
  return tk;
}

Result<double> SpillSession::Join(int lane, double now_s) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = lanes_.find(lane);
  if (it == lanes_.end()) return 0.0;
  Lane& L = it->second;
  double extra_s = 0.0;
  Status bad = Status::OK();
  for (const LaneExtent& e : L.extents) {
    Result<int> r = tiers_->CompleteReadBack(e.generation);
    if (r.ok()) {
      extra_s += r.ValueOrDie() * tiers_->ReadSeconds(e.tier, e.bytes);
    } else if (bad.cause() != StatusCause::kSpillTierLost) {
      bad = r.status();  // a voided extent outranks a failed read-back
    }
    if (L.hazards != nullptr) L.hazards->ReleaseResource(e.generation);
  }
  L.extents.clear();
  const double busy = std::max(L.busy_until[0], L.busy_until[1]);
  const double drain = std::max(0.0, busy - now_s) + extra_s;
  if (!bad.ok()) return bad;
  return drain;
}

}  // namespace sirius::mem
