#include "sim/device_group.h"

#include <limits>

namespace sirius::sim {

DeviceGroup::DeviceGroup(Options options) : options_(options) {
  if (options_.num_devices < 1) options_.num_devices = 1;
  devices_.reserve(static_cast<size_t>(options_.num_devices));
  for (int d = 0; d < options_.num_devices; ++d) {
    devices_.emplace_back(options_.streams);
  }
  lost_.assign(devices_.size(), false);
}

int DeviceGroup::alive_devices() const {
  int alive = 0;
  for (bool l : lost_) alive += l ? 0 : 1;
  return alive;
}

bool DeviceGroup::lost(int device) const {
  if (device < 0 || device >= num_devices()) return true;
  return lost_[static_cast<size_t>(device)];
}

void DeviceGroup::MarkLost(int device) {
  if (device < 0 || device >= num_devices()) return;
  lost_[static_cast<size_t>(device)] = true;
}

double DeviceGroup::EarliestStart(int device, double ready_s) const {
  if (lost(device)) return std::numeric_limits<double>::infinity();
  return devices_[static_cast<size_t>(device)].EarliestStart(ready_s);
}

double DeviceGroup::MigrateSeconds(uint64_t bytes) const {
  return options_.fabric.TransferSeconds(bytes);
}

}  // namespace sirius::sim
