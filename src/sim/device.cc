#include "sim/device.h"

#include <cstdlib>

namespace sirius::sim {

DeviceProfile Gh200Gpu() {
  DeviceProfile p;
  p.name = "GH200-Hopper";
  p.kind = DeviceKind::kGpu;
  p.cores = 16896;
  p.mem_bw_gbps = 3000.0;
  p.random_access_factor = 0.28;  // HBM3 hides random-access latency well
  p.mem_capacity_gib = 92.0;
  p.launch_overhead_us = 6.0;
  p.compute_geps = 750.0;
  p.host_link_gbps = 450.0;  // NVLink-C2C, per direction
  p.price_per_hour = 3.2;    // Lambda Labs on-demand (Table 1)
  return p;
}

DeviceProfile GraceCpu() {
  DeviceProfile p;
  p.name = "Grace-CPU";
  p.kind = DeviceKind::kCpu;
  p.cores = 72;
  p.mem_bw_gbps = 450.0;  // LPDDR5X, §4.1: 480 GB memory
  p.random_access_factor = 0.15;
  p.mem_capacity_gib = 480.0;
  p.launch_overhead_us = 0.5;
  p.compute_geps = 70.0;
  p.host_link_gbps = 450.0;
  p.price_per_hour = 3.2;  // part of the same GH200 instance
  return p;
}

DeviceProfile A100Gpu() {
  DeviceProfile p;
  p.name = "A100-40GB";
  p.kind = DeviceKind::kGpu;
  p.cores = 6912;
  p.mem_bw_gbps = 1550.0;
  p.random_access_factor = 0.35;
  p.mem_capacity_gib = 40.0;
  p.launch_overhead_us = 6.0;
  p.compute_geps = 500.0;
  p.host_link_gbps = 12.8;  // PCIe4 x16, per direction (§4.1: 25.6 bidir)
  p.price_per_hour = 2.3;
  return p;
}

DeviceProfile XeonGold6526Y() {
  DeviceProfile p;
  p.name = "Xeon-Gold-6526Y";
  p.kind = DeviceKind::kCpu;
  p.cores = 64;
  p.mem_bw_gbps = 250.0;
  p.random_access_factor = 0.12;
  p.mem_capacity_gib = 512.0;
  p.launch_overhead_us = 0.5;
  p.compute_geps = 60.0;
  p.host_link_gbps = 12.8;
  p.price_per_hour = 2.0;
  return p;
}

DeviceProfile M7i16xlarge() {
  DeviceProfile p;
  p.name = "m7i.16xlarge";
  p.kind = DeviceKind::kCpu;
  p.cores = 64;
  p.mem_bw_gbps = 300.0;
  p.random_access_factor = 0.12;
  p.mem_capacity_gib = 256.0;
  p.launch_overhead_us = 0.5;
  p.compute_geps = 60.0;
  p.host_link_gbps = 16.0;
  p.price_per_hour = 3.2;  // equal-cost pairing used in §4.2
  return p;
}

DeviceProfile C6aMetal() {
  DeviceProfile p;
  p.name = "c6a.metal";
  p.kind = DeviceKind::kCpu;
  p.cores = 192;
  p.mem_bw_gbps = 400.0;
  p.random_access_factor = 0.12;
  p.mem_capacity_gib = 384.0;
  p.launch_overhead_us = 0.5;
  p.compute_geps = 150.0;
  p.host_link_gbps = 16.0;
  p.price_per_hour = 7.344;  // AWS on-demand (Table 1)
  return p;
}

DeviceProfile ProfileByName(const std::string& name) {
  if (name == "GH200" || name == "GH200-Hopper") return Gh200Gpu();
  if (name == "Grace" || name == "Grace-CPU") return GraceCpu();
  if (name == "A100" || name == "A100-40GB") return A100Gpu();
  if (name == "Xeon" || name == "Xeon-Gold-6526Y") return XeonGold6526Y();
  if (name == "m7i" || name == "m7i.16xlarge") return M7i16xlarge();
  if (name == "c6a" || name == "c6a.metal") return C6aMetal();
  return Gh200Gpu();
}

bool RaceCheckRequestedByEnv() {
  const char* v = std::getenv("SIRIUS_RACE_CHECK");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

}  // namespace sirius::sim
