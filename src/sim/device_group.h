// A group of simulated devices joined by an interconnect fabric.
//
// DeviceGroup is the multi-GPU substrate for the serving layer (the
// bench_ablation_multi_gpu model: N A100/GH200-class devices inside one
// node, exchanged over NVLink). Each device carries its own StreamSet —
// stream arbitration and the contention model never cross devices — and the
// fabric link prices data movement between devices (a tenant's warm inputs
// migrating to a spill target).
//
// Devices can be *lost* (chaos: "serve.place" device-loss injection). A lost
// device stops accepting placements — EarliestStart reports +infinity — and
// stays lost for the lifetime of the group; the serving layer re-admits its
// queued work onto survivors.
//
// Not internally synchronized: like StreamSet, decisions must be made in
// simulated-time order, so the owner (serve::QueryServer) serializes.

#pragma once

#include <cstdint>
#include <vector>

#include "sim/interconnect.h"
#include "sim/streams.h"

namespace sirius::sim {

/// \brief N simulated devices, each with its own StreamSet, joined by links.
class DeviceGroup {
 public:
  struct Options {
    /// Devices in the group (>= 1).
    int num_devices = 1;
    /// Per-device stream configuration (replicated across devices).
    StreamSet::Options streams;
    /// Device-to-device link (all pairs; intra-node fabric).
    Link fabric = NvlinkC2c();
  };

  explicit DeviceGroup(Options options);

  int num_devices() const { return static_cast<int>(devices_.size()); }
  /// Devices not lost.
  int alive_devices() const;
  bool lost(int device) const;
  /// Marks `device` lost. Idempotent; out-of-range ignored.
  void MarkLost(int device);

  StreamSet& streams(int device) { return devices_[static_cast<size_t>(device)]; }
  const StreamSet& streams(int device) const {
    return devices_[static_cast<size_t>(device)];
  }

  /// Earliest start a dispatch at/after `ready_s` would get on `device`;
  /// +infinity for a lost (or out-of-range) device.
  double EarliestStart(int device, double ready_s) const;

  /// Seconds to move `bytes` between two devices over the fabric.
  double MigrateSeconds(uint64_t bytes) const;

  int streams_per_device() const { return devices_[0].num_streams(); }

 private:
  Options options_;
  std::vector<StreamSet> devices_;
  std::vector<bool> lost_;
};

}  // namespace sirius::sim
