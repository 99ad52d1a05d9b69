// SCCL: the NCCL-equivalent collective communication layer (paper §3.2.4).
//
// Sirius models exchange as dedicated physical operators implemented over
// collective primitives — broadcast, shuffle (all-to-all), merge (gather)
// and multicast. Here the cluster is in-process: data moves by pointer and
// the modeled interconnect charges simulated time (ring-algorithm cost
// model, as NCCL uses).
//
// Fault model: each collective consults a fault injector before touching
// the link ("sccl.alltoall", "sccl.broadcast", "sccl.gather",
// "sccl.multicast"). Transient failures (Unavailable/Timeout) are retried
// with capped, jittered exponential backoff; the backoff is charged as
// simulated time on the collective's result. Persistent failures exhaust
// the retry budget and surface as a clean non-OK Status.

#pragma once

#include <vector>

#include "common/result.h"
#include "fault/fault_injector.h"
#include "format/table.h"
#include "gdf/context.h"
#include "obs/trace.h"
#include "sim/interconnect.h"

namespace sirius::net {

/// \name Retry schedule for transient link failures
/// The one schedule for every sender on a fabric: the collectives below and
/// the serving cluster's replication channel. The first backoff doubles per
/// retry (NCCL-style transport re-establish) up to the cap.
/// @{
inline constexpr int kRetryMaxAttempts = 4;  ///< total attempts per send
inline constexpr double kRetryBaseBackoffS = 0.0005;
inline constexpr double kRetryMaxBackoffS = 0.050;
/// Backoff before retry number `retry` (0-based): kRetryBaseBackoffS doubled
/// per retry, capped at kRetryMaxBackoffS. The collectives add jitter.
double RetryBackoffS(int retry);
/// @}

/// \brief Result of one collective: the received data plus its modeled cost.
struct CollectiveResult {
  /// Per-rank received tables (size = world size).
  std::vector<format::TablePtr> per_rank;
  /// Modeled wall time of the collective (the slowest rank's time),
  /// including any retry backoff.
  double seconds = 0;
  /// Total bytes that crossed the network.
  uint64_t bytes = 0;
  /// Transient link failures healed by retrying.
  int retries = 0;
  /// Simulated time spent backing off before the collective succeeded
  /// (already included in `seconds`).
  double backoff_seconds = 0;
  /// Per-rank completion offsets (size = world size, includes backoff).
  /// Ranks with little traffic finish before `seconds` — the slack the
  /// distributed executor overlaps with downstream work.
  std::vector<double> per_rank_seconds;
};

/// \brief An N-rank communicator over a modeled link.
class Communicator {
 public:
  /// `injector` == nullptr uses the global injector (disarmed by default).
  Communicator(int world_size, sim::Link link,
               fault::FaultInjector* injector = nullptr)
      : world_size_(world_size),
        link_(link),
        injector_(injector != nullptr ? injector
                                      : fault::FaultInjector::Global()) {}

  int world_size() const { return world_size_; }
  const sim::Link& link() const { return link_; }

  /// Attaches a trace sink: every collective emits one "collective" span on
  /// `track` (with link/bytes/retries attrs) and one "retry" span per
  /// transient attempt the retry schedule healed.
  void set_trace(obs::TraceRecorder* recorder, obs::TrackId track) {
    trace_ = recorder;
    trace_track_ = track;
  }
  /// Places the next collective on the simulated time axis.
  void set_trace_start(double start_s) { trace_start_s_ = start_s; }

  /// All-to-all (shuffle): `partitions[src][dst]` is the table src sends to
  /// dst. Every rank receives the concatenation over src of
  /// `partitions[src][rank]`. Diagonal (src == dst) traffic stays local and
  /// is free. Time: max over ranks of max(bytes sent, bytes received).
  Result<CollectiveResult> AllToAll(
      const std::vector<std::vector<format::TablePtr>>& partitions,
      const gdf::Context& ctx, double data_scale) const;

  /// Broadcast: every rank receives `table` from `root`. Ring algorithm:
  /// time ~ bytes/bw + (n-1) hops of latency.
  Result<CollectiveResult> Broadcast(const format::TablePtr& table, int root,
                                     double data_scale) const;

  /// Merge (gather): `root` receives the concatenation of all ranks' tables;
  /// other ranks receive an empty slot (nullptr).
  Result<CollectiveResult> Gather(const std::vector<format::TablePtr>& tables,
                                  int root, const gdf::Context& ctx,
                                  double data_scale) const;

  /// Multicast: rank `root` sends `table` to the given subset of ranks.
  Result<CollectiveResult> Multicast(const format::TablePtr& table, int root,
                                     const std::vector<int>& destinations,
                                     double data_scale) const;

 private:
  /// Runs `body` under the retry schedule: before each attempt the fault site
  /// is consulted; transient injected failures back off and retry, anything
  /// else (including body errors) propagates unchanged.
  template <typename Fn>
  Result<CollectiveResult> RunWithRetry(const char* site, Fn&& body) const;

  /// Backoff before retry number `attempt` (0-based), capped and jittered.
  double BackoffSeconds(int attempt) const;

  Result<CollectiveResult> DoAllToAll(
      const std::vector<std::vector<format::TablePtr>>& partitions,
      const gdf::Context& ctx, double data_scale) const;
  Result<CollectiveResult> DoBroadcast(const format::TablePtr& table, int root,
                                       double data_scale) const;
  Result<CollectiveResult> DoGather(const std::vector<format::TablePtr>& tables,
                                    int root, const gdf::Context& ctx,
                                    double data_scale) const;
  Result<CollectiveResult> DoMulticast(const format::TablePtr& table, int root,
                                       const std::vector<int>& destinations,
                                       double data_scale) const;

  int world_size_;
  sim::Link link_;
  fault::FaultInjector* injector_;
  obs::TraceRecorder* trace_ = nullptr;
  obs::TrackId trace_track_ = 0;
  double trace_start_s_ = 0.0;
};

}  // namespace sirius::net
