#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hal/backend.hpp"

namespace cuttlefish::hal {

/// Package energy over the Linux powercap framework
/// (/sys/class/powercap/intel-rapl:<pkg>/energy_uj) — the portable RAPL
/// path on hosts where /dev/cpu/*/msr is unavailable or root-only.
/// energy_uj wraps at max_energy_range_uj; sample() unwraps per package
/// and sums. Instructions and TOR counters have no powercap equivalent, so
/// this stack only ever advertises kEnergySensor and a controller on top
/// of it degrades accordingly.
///
/// The sysfs root is injectable so tests can run against a fake tree.
class PowercapSensorStack final : public SensorStack {
 public:
  static constexpr const char* kDefaultRoot = "/sys/class/powercap";

  explicit PowercapSensorStack(std::string root = kDefaultRoot);

  /// True if at least one intel-rapl:<n> package zone with a readable
  /// energy_uj was found (subzones like intel-rapl:0:0 are skipped, and
  /// the mmio mirror zones are excluded to avoid double counting).
  bool available() const { return !zones_.empty(); }
  int zone_count() const { return static_cast<int>(zones_.size()); }
  const std::string& root() const { return root_; }

  CapabilitySet capabilities() const override;
  /// One pass over the package zones. Reports failure (with errno) when
  /// any probed zone's energy_uj stops responding mid-run; the per-zone
  /// accumulators are preserved so the totals stay monotonic across the
  /// outage.
  SampleOutcome sample() override;

 private:
  struct Zone {
    std::string energy_path;
    uint64_t max_range_uj = 0;  // wrap modulus - 1
    uint64_t last_uj = 0;
    double acc_j = 0.0;
  };

  std::string root_;
  std::vector<Zone> zones_;
};

}  // namespace cuttlefish::hal
