// Simulated execution devices.
//
// This machine has no GPU, so the reproduction models devices analytically:
// kernels execute for real on the host, while *reported* time comes from a
// calibrated cost model over the device profiles below (see DESIGN.md §1,
// "Simulated-time methodology"). Profiles are calibrated from Table 1 and
// §4.1 of the paper.

#pragma once

#include <cstdint>
#include <string>

#include "sim/timeline.h"

namespace sirius::sim {

enum class DeviceKind { kCpu, kGpu };

/// \brief Static description of an execution device.
///
/// Bandwidth figures are effective (achievable) rather than peak where the
/// distinction matters; `random_access_factor` discounts bandwidth for
/// pointer-chasing access patterns (hash probes), which is where HBM's high
/// internal parallelism gives GPUs an outsized advantage.
struct DeviceProfile {
  std::string name;
  DeviceKind kind = DeviceKind::kCpu;
  /// CPU: vCPUs; GPU: CUDA cores. Only used for compute-bound terms.
  int cores = 1;
  /// Sequential memory bandwidth, GB/s.
  double mem_bw_gbps = 100.0;
  /// Fraction of sequential bandwidth achieved on random access.
  double random_access_factor = 0.25;
  /// Device memory capacity in GiB.
  double mem_capacity_gib = 64.0;
  /// Fixed cost to launch one kernel / dispatch one morsel, microseconds.
  double launch_overhead_us = 0.5;
  /// Aggregate simple-op throughput, billion elements per second. Captures
  /// the compute side (ALU + issue) for expression-heavy kernels.
  double compute_geps = 50.0;
  /// Host link (CPU<->device) bandwidth, GB/s, one direction.
  double host_link_gbps = 25.0;
  /// On-demand rental price, $/hour (Table 1).
  double price_per_hour = 1.0;

  bool is_gpu() const { return kind == DeviceKind::kGpu; }
};

/// \name Calibrated device profiles used throughout the evaluation (§4.1).
/// @{

/// NVIDIA GH200: Hopper GPU, 92 GiB HBM3 @ 3 TB/s, NVLink-C2C to Grace.
DeviceProfile Gh200Gpu();
/// Grace CPU of the GH200 superchip: 72 Neoverse cores, LPDDR5X.
DeviceProfile GraceCpu();
/// NVIDIA A100 40 GiB: 1.55 TB/s HBM, PCIe4 host link (distributed cluster).
DeviceProfile A100Gpu();
/// Intel Xeon Gold 6526Y node CPU of the A100 cluster (64 cores).
DeviceProfile XeonGold6526Y();
/// AWS m7i.16xlarge (64 vCPU Sapphire Rapids) — DuckDB/ClickHouse host,
/// chosen by the paper for equal $3.2/h rental cost with the GH200.
DeviceProfile M7i16xlarge();
/// AWS c6a.metal (192 vCPU AMD EPYC) — the CPU column of Table 1.
DeviceProfile C6aMetal();
/// @}

/// Looks up a profile by name ("GH200", "A100", "m7i.16xlarge", ...).
/// Returns GH200 for unknown names.
DeviceProfile ProfileByName(const std::string& name);

/// True when the SIRIUS_RACE_CHECK environment variable requests the
/// device-model race checking (engine pipelines and out-of-core batches
/// verified by a sim::HazardTracker).
bool RaceCheckRequestedByEnv();

}  // namespace sirius::sim
