#include "hal/powercap.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>

#include "common/log.hpp"

namespace cuttlefish::hal {

namespace fs = std::filesystem;

namespace {

std::optional<uint64_t> read_u64(const std::string& path) {
  errno = 0;
  std::ifstream in(path);
  if (!in) {
    if (errno == 0) errno = EIO;
    return std::nullopt;
  }
  uint64_t value = 0;
  in >> value;
  if (!in) {
    if (errno == 0) errno = EIO;  // short/garbled read, no kernel errno
    return std::nullopt;
  }
  return value;
}

/// Package zones are named intel-rapl:<digits> exactly. Subzones
/// (intel-rapl:0:0 — core/dram planes) would double count against their
/// parent, and intel-rapl-mmio:* mirrors the same package counters.
bool is_package_zone(const std::string& name) {
  constexpr const char* kPrefix = "intel-rapl:";
  if (name.compare(0, 11, kPrefix) != 0) return false;
  const std::string suffix = name.substr(11);
  return !suffix.empty() &&
         std::all_of(suffix.begin(), suffix.end(),
                     [](char c) { return c >= '0' && c <= '9'; });
}

}  // namespace

PowercapSensorStack::PowercapSensorStack(std::string root)
    : root_(std::move(root)) {
  std::error_code ec;
  if (!fs::is_directory(root_, ec)) return;
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(root_, ec)) {
    if (ec) break;
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    if (!is_package_zone(name)) continue;
    Zone zone;
    zone.energy_path = root_ + "/" + name + "/energy_uj";
    const auto energy = read_u64(zone.energy_path);
    if (!energy) continue;  // present but unreadable (permissions)
    zone.last_uj = *energy;
    zone.max_range_uj =
        read_u64(root_ + "/" + name + "/max_energy_range_uj").value_or(0);
    zones_.push_back(std::move(zone));
  }
}

CapabilitySet PowercapSensorStack::capabilities() const {
  return available() ? CapabilitySet{}.with(Capability::kEnergySensor)
                     : CapabilitySet::none();
}

SampleOutcome PowercapSensorStack::sample() {
  SampleOutcome out;
  for (Zone& zone : zones_) {
    const auto energy = read_u64(zone.energy_path);
    if (energy) {
      const uint64_t now = *energy;
      uint64_t delta_uj;
      if (now >= zone.last_uj) {
        delta_uj = now - zone.last_uj;
      } else if (zone.max_range_uj >= zone.last_uj) {
        // Counter wrapped: it runs 0..max_energy_range_uj inclusive.
        delta_uj = now + (zone.max_range_uj - zone.last_uj) + 1;
      } else {
        delta_uj = 0;  // counter went backwards with no declared range
      }
      zone.acc_j += static_cast<double>(delta_uj) * 1e-6;
      zone.last_uj = now;
    } else {
      // A probed zone stopped responding: report the failure but keep
      // accumulating from the preserved per-zone state, so the total
      // stays monotonic across the outage.
      out.io = IoOutcome::failure(errno);
      CF_LOG_WARN("powercap: %s read failed: %s", zone.energy_path.c_str(),
                  std::strerror(errno));
    }
    out.sample.energy_joules += zone.acc_j;
  }
  return out;
}

}  // namespace cuttlefish::hal
