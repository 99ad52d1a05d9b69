#include "serve/scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace sirius::serve {

void FairScheduler::RegisterTenant(const std::string& tenant, double weight) {
  GetTenant(tenant).weight = std::max(weight, 1e-9);
}

FairScheduler::Tenant& FairScheduler::GetTenant(const std::string& name) {
  return tenants_[name];  // default weight 1, pass 0
}

double FairScheduler::VirtualTime() const {
  double vt = std::numeric_limits<double>::infinity();
  for (const auto& [name, t] : tenants_) {
    (void)name;
    if (t.lanes[0].empty() && t.lanes[1].empty()) continue;
    vt = std::min(vt, t.pass);
  }
  return std::isinf(vt) ? 0 : vt;
}

void FairScheduler::Enqueue(const QueuedEntry& entry) {
  Tenant& t = GetTenant(entry.tenant);
  // Forward an idle tenant's pass to the current virtual time: it competes
  // from "now" instead of burning down a surplus accumulated while idle.
  if (t.lanes[0].empty() && t.lanes[1].empty()) {
    t.pass = std::max(t.pass, VirtualTime());
  }
  t.lanes[entry.priority > 0 ? 1 : 0].push_back(entry);
  ++depth_;
}

bool FairScheduler::PopNext(double now_s, QueuedEntry* out) {
  // Interactive lane strictly before batch; smallest pass within a lane,
  // ties broken by tenant name for determinism.
  for (int lane = 1; lane >= 0; --lane) {
    Tenant* best = nullptr;
    for (auto& [name, t] : tenants_) {
      (void)name;
      if (t.lanes[lane].empty()) continue;
      if (t.lanes[lane].front().arrival_s > now_s) continue;
      if (best == nullptr || t.pass < best->pass) best = &t;
    }
    if (best != nullptr) {
      *out = best->lanes[lane].front();
      best->lanes[lane].pop_front();
      --depth_;
      return true;
    }
  }
  return false;
}

void FairScheduler::Charge(const std::string& tenant, double device_seconds) {
  Tenant& t = GetTenant(tenant);
  t.pass += device_seconds / t.weight;
  t.charged += device_seconds;
}

double FairScheduler::EarliestArrival() const {
  double earliest = std::numeric_limits<double>::infinity();
  for (const auto& [name, t] : tenants_) {
    (void)name;
    for (const auto& lane : t.lanes) {
      for (const auto& e : lane) earliest = std::min(earliest, e.arrival_s);
    }
  }
  return earliest;
}

std::vector<QueuedEntry> FairScheduler::Drain() {
  std::vector<QueuedEntry> out;
  out.reserve(depth_);
  for (auto& [name, t] : tenants_) {
    (void)name;
    for (auto& lane : t.lanes) {
      for (const auto& e : lane) out.push_back(e);
      lane.clear();
    }
  }
  depth_ = 0;
  std::sort(out.begin(), out.end(),
            [](const QueuedEntry& a, const QueuedEntry& b) {
              return a.arrival_s != b.arrival_s ? a.arrival_s < b.arrival_s
                                                : a.query_id < b.query_id;
            });
  return out;
}

PlacementPolicy::Decision PlacementPolicy::Place(
    const std::string& tenant, bool inputs_resident,
    const std::vector<double>& backlog_s,
    const std::vector<bool>& alive) const {
  Decision d;
  // Least-loaded alive device, ties to the lowest index.
  for (size_t i = 0; i < alive.size(); ++i) {
    if (!alive[i]) continue;
    if (d.device < 0 || backlog_s[i] < backlog_s[static_cast<size_t>(d.device)]) {
      d.device = static_cast<int>(i);
    }
  }
  if (d.device < 0) return d;  // nothing alive

  // A cold tenant, or inputs that would be (re)loaded wherever the query
  // lands (nothing to be warm about): balance wins outright.
  const int warm = warm_device(tenant);
  if (!inputs_resident || warm < 0 || warm >= static_cast<int>(alive.size()) ||
      !alive[static_cast<size_t>(warm)]) {
    return d;  // "cold"
  }
  const double warm_backlog = backlog_s[static_cast<size_t>(warm)];
  const double least_backlog = backlog_s[static_cast<size_t>(d.device)];
  if (warm_backlog <=
      options_.imbalance_ratio * least_backlog + options_.imbalance_slack_s) {
    return Decision{warm, true, "warm"};
  }
  d.reason = "spill";
  return d;
}

void PlacementPolicy::RecordPlacement(const std::string& tenant, int device) {
  warm_[tenant] = device;
}

void PlacementPolicy::ForgetDevice(int device) {
  for (auto it = warm_.begin(); it != warm_.end();) {
    if (it->second == device) {
      it = warm_.erase(it);
    } else {
      ++it;
    }
  }
}

int PlacementPolicy::warm_device(const std::string& tenant) const {
  auto it = warm_.find(tenant);
  return it == warm_.end() ? -1 : it->second;
}

double FairScheduler::weight(const std::string& tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 1.0 : it->second.weight;
}

double FairScheduler::charged(const std::string& tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.charged;
}

}  // namespace sirius::serve
