#include "sim/timeline.h"

#include <algorithm>
#include <atomic>

#include "common/status.h"

namespace sirius::sim {

const char* OpCategoryName(OpCategory c) {
  switch (c) {
    case OpCategory::kScan:
      return "scan";
    case OpCategory::kFilter:
      return "filter";
    case OpCategory::kProject:
      return "project";
    case OpCategory::kJoin:
      return "join";
    case OpCategory::kGroupBy:
      return "groupby";
    case OpCategory::kAggregate:
      return "aggregate";
    case OpCategory::kOrderBy:
      return "orderby";
    case OpCategory::kExchange:
      return "exchange";
    case OpCategory::kOther:
      return "other";
  }
  return "?";
}

void Timeline::Charge(OpCategory category, double seconds) {
  if (seconds <= 0) return;
  total_ += seconds;
  by_category_[category] += seconds;
}

double Timeline::seconds(OpCategory category) const {
  auto it = by_category_.find(category);
  return it == by_category_.end() ? 0.0 : it->second;
}

void Timeline::Reset() {
  total_ = 0.0;
  by_category_.clear();
}

void Timeline::Append(const Timeline& other) {
  total_ += other.total_;
  for (const auto& [cat, secs] : other.by_category_) by_category_[cat] += secs;
}

const char* HazardViolationKindName(HazardTracker::ViolationKind kind) {
  switch (kind) {
    case HazardTracker::ViolationKind::kWriteWriteRace:
      return "write-write race";
    case HazardTracker::ViolationKind::kReadWriteRace:
      return "read-write race";
    case HazardTracker::ViolationKind::kWriteReadRace:
      return "write-read race";
    case HazardTracker::ViolationKind::kInvalidStream:
      return "invalid stream";
    case HazardTracker::ViolationKind::kInvalidEvent:
      return "invalid event";
  }
  return "?";
}

namespace {
std::atomic<uint64_t> g_next_tracker_id{1};
std::atomic<uint64_t> g_next_resource_id{1};
}  // namespace

HazardTracker::HazardTracker() : id_(g_next_tracker_id.fetch_add(1)) {}

uint64_t NewResourceId() {
  return g_next_resource_id.fetch_add(1, std::memory_order_relaxed);
}

void HazardTracker::set_abort_on_violation(bool abort_on_violation) {
  std::unique_lock<std::mutex> lock(mu_);
  abort_on_violation_ = abort_on_violation;
}

bool HazardTracker::HappensBefore(const Epoch& e, const Clock& clock) {
  if (e.stream < 0) return true;  // no prior access
  const size_t s = static_cast<size_t>(e.stream);
  return s < clock.size() && clock[s] >= e.at;
}

std::string HazardTracker::StreamName(StreamId s) const {
  if (s < 0 || static_cast<size_t>(s) >= streams_.size()) {
    return "stream#" + std::to_string(s);
  }
  const std::string& n = streams_[static_cast<size_t>(s)].name;
  return n.empty() ? "stream#" + std::to_string(s) : n;
}

void HazardTracker::Report(std::unique_lock<std::mutex>& lock, Violation v) {
  std::string msg = std::string("HazardTracker: ") +
                    HazardViolationKindName(v.kind) + " on resource " +
                    std::to_string(v.resource) + " between " +
                    StreamName(v.first) + " and " + StreamName(v.second) +
                    (v.detail.empty() ? "" : ": " + v.detail);
  violations_.push_back(std::move(v));
  if (abort_on_violation_) {
    lock.unlock();
    internal::AbortWithMessage(__FILE__, __LINE__, msg);
  }
}

bool HazardTracker::CheckStream(std::unique_lock<std::mutex>& lock,
                                StreamId stream, const char* op) {
  if (stream >= 0 && static_cast<size_t>(stream) < streams_.size()) return true;
  Violation v;
  v.kind = ViolationKind::kInvalidStream;
  v.second = stream;
  v.detail = std::string(op) + " on stream id " + std::to_string(stream) +
             " that was never created";
  Report(lock, std::move(v));
  return false;
}

StreamId HazardTracker::CreateStream(const std::string& name) {
  std::unique_lock<std::mutex> lock(mu_);
  streams_.push_back({name, Clock{}});
  return static_cast<StreamId>(streams_.size() - 1);
}

EventId HazardTracker::RecordEvent(StreamId stream) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!CheckStream(lock, stream, "RecordEvent")) return -1;
  StreamState& st = streams_[static_cast<size_t>(stream)];
  // Recording is itself a step in the stream's local order, so later waiters
  // are ordered after every kernel submitted before the record.
  if (st.clock.size() <= static_cast<size_t>(stream)) {
    st.clock.resize(static_cast<size_t>(stream) + 1, 0);
  }
  ++st.clock[static_cast<size_t>(stream)];
  events_.push_back({stream, st.clock[static_cast<size_t>(stream)], ""});
  event_clocks_.push_back(st.clock);
  return static_cast<EventId>(events_.size() - 1);
}

void HazardTracker::StreamWaitEvent(StreamId stream, EventId event) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!CheckStream(lock, stream, "StreamWaitEvent")) return;
  if (event < 0 || static_cast<size_t>(event) >= events_.size()) {
    Violation v;
    v.kind = ViolationKind::kInvalidEvent;
    v.second = stream;
    v.detail = "wait on event id " + std::to_string(event) +
               " that was never recorded";
    Report(lock, std::move(v));
    return;
  }
  Clock& mine = streams_[static_cast<size_t>(stream)].clock;
  const Clock& theirs = event_clocks_[static_cast<size_t>(event)];
  if (mine.size() < theirs.size()) mine.resize(theirs.size(), 0);
  for (size_t i = 0; i < theirs.size(); ++i) {
    mine[i] = std::max(mine[i], theirs[i]);
  }
}

void HazardTracker::OnAccess(StreamId stream, uint64_t resource, bool is_write,
                             const std::string& what) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!CheckStream(lock, stream, "OnAccess")) return;
  StreamState& st = streams_[static_cast<size_t>(stream)];
  if (st.clock.size() <= static_cast<size_t>(stream)) {
    st.clock.resize(static_cast<size_t>(stream) + 1, 0);
  }
  const uint64_t now = ++st.clock[static_cast<size_t>(stream)];
  ResourceState& rs = resources_[resource];

  auto conflict = [&](ViolationKind kind, const Epoch& prior) {
    Violation v;
    v.kind = kind;
    v.resource = resource;
    v.first = prior.stream;
    v.second = stream;
    v.detail = "prior access \"" + prior.what + "\" is unordered with \"" +
               what + "\" (no event edge between the streams)";
    Report(lock, std::move(v));
  };

  if (is_write) {
    // A write must be ordered after the previous write and after every read
    // since that write.
    if (rs.last_write.stream != stream &&
        !HappensBefore(rs.last_write, st.clock)) {
      conflict(ViolationKind::kWriteWriteRace, rs.last_write);
    }
    for (const Epoch& r : rs.reads) {
      if (r.stream != stream && !HappensBefore(r, st.clock)) {
        conflict(ViolationKind::kReadWriteRace, r);
        break;
      }
    }
    rs.last_write = {stream, now, what};
    rs.reads.clear();
  } else {
    // A read only conflicts with the previous write.
    if (rs.last_write.stream != stream &&
        !HappensBefore(rs.last_write, st.clock)) {
      conflict(ViolationKind::kWriteReadRace, rs.last_write);
    }
    // Keep one read epoch per stream (the latest dominates earlier ones).
    for (Epoch& r : rs.reads) {
      if (r.stream == stream) {
        r.at = now;
        r.what = what;
        return;
      }
    }
    rs.reads.push_back({stream, now, what});
  }
}

void HazardTracker::ReleaseResource(uint64_t resource) {
  std::unique_lock<std::mutex> lock(mu_);
  resources_.erase(resource);
}

size_t HazardTracker::violation_count() const {
  std::unique_lock<std::mutex> lock(mu_);
  return violations_.size();
}

std::vector<HazardTracker::Violation> HazardTracker::violations() const {
  std::unique_lock<std::mutex> lock(mu_);
  return violations_;
}

}  // namespace sirius::sim
