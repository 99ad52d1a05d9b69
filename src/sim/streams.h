// Concurrent stream timeline arbitration for the simulated device.
//
// A StreamSet models a fixed number of device streams (in-order lanes, CUDA
// style) that independent queries are multiplexed onto. Each dispatch picks
// the earliest-free stream and occupies it for the query's modeled duration,
// inflated by a contention factor when several streams are busy at once.
//
// The contention model follows the paper's observation that a single
// analytical query leaves the device underutilized (small intermediates,
// launch gaps, host-link stalls): one query alone achieves only
// `solo_utilization` of the device, so up to ~1/solo_utilization queries
// overlap with no slowdown; beyond that point the device saturates and every
// resident query stretches proportionally. Aggregate throughput is capped at
// 1/solo_utilization times the serial rate — overlap pays exactly while
// spare device capacity exists and never invents capacity past saturation.
//
// Not internally synchronized: arbitration decisions must be made in
// simulated-time order, so the owner (serve::QueryServer) serializes access.

#pragma once

#include <vector>

namespace sirius::sim {

/// \brief Earliest-free-stream scheduler over modeled device streams.
class StreamSet {
 public:
  struct Options {
    /// Concurrent device lanes (queries resident at once).
    int num_streams = 8;
    /// Device utilization of one query running alone, in (0, 1]. 1.0 means
    /// a single query saturates the device and overlap buys nothing.
    double solo_utilization = 0.45;
  };

  /// One placement decision: where a query ran and how contention
  /// stretched it.
  struct Placement {
    int stream = 0;
    double start_s = 0;     ///< max(ready time, stream free time)
    double end_s = 0;       ///< start + solo duration * slowdown
    double slowdown = 1.0;  ///< contention stretch factor, >= 1
    int concurrent = 1;     ///< streams busy at start (this one included)
  };

  explicit StreamSet(Options options);

  /// Earliest start a dispatch at/after `ready_s` would get.
  double EarliestStart(double ready_s) const;

  /// Places a query of solo duration `solo_duration_s` onto the
  /// earliest-free stream, not before `ready_s`, and occupies it.
  Placement Place(double ready_s, double solo_duration_s);

  /// Frees `stream` at `end_s` if it is currently busy past that point
  /// (deadline cancellation: the cancelled query stops charging the lane).
  void Truncate(int stream, double end_s);

  /// Streams whose occupancy extends past `t`.
  int BusyAt(double t) const;

  int num_streams() const { return static_cast<int>(free_at_.size()); }

 private:
  Options options_;
  std::vector<double> free_at_;  ///< per-stream occupancy end
};

}  // namespace sirius::sim
