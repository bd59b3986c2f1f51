#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/frequency.hpp"
#include "hal/backend.hpp"

namespace cuttlefish::hal {

/// DVFS actuator over the Linux cpufreq sysfs interface
/// (/sys/devices/system/cpu/cpu*/cpufreq). The paper's methodology sets
/// the `userspace` governor and then drives frequencies; on machines
/// where MSR *writes* are blocked (msr-safe allowlists often permit reads
/// only) this actuator is the supported fallback for the core domain.
/// The uncore has no cpufreq equivalent — UFS still requires MSR 0x620.
///
/// The sysfs root is injectable so tests can run against a fake tree.
class CpufreqActuator {
 public:
  explicit CpufreqActuator(
      std::string sysfs_root = "/sys/devices/system/cpu");

  /// True if at least one cpu*/cpufreq directory with a writable
  /// scaling_setspeed was found.
  bool available() const { return !cpus_.empty(); }
  int cpu_count() const { return static_cast<int>(cpus_.size()); }
  const std::string& root() const { return root_; }

  /// CPU ids discovered under the root (sorted, possibly sparse).
  const std::vector<int>& cpus() const { return cpus_; }

  /// Select the scaling governor on every CPU ("userspace" is required
  /// before scaling_setspeed writes take effect). Returns the number of
  /// CPUs successfully switched.
  int set_governor(const std::string& governor);
  /// Per-CPU variant (used to restore saved governors).
  bool set_governor(int cpu, const std::string& governor);

  /// Program every CPU's frequency (kHz granularity in sysfs). Returns
  /// the number of CPUs successfully programmed.
  int set_frequency(FreqMHz f);

  std::optional<std::string> governor(int cpu) const;
  std::optional<FreqMHz> current_frequency(int cpu) const;
  /// Hardware limits as advertised by cpuinfo_min/max_freq.
  std::optional<FreqMHz> min_frequency(int cpu) const;
  std::optional<FreqMHz> max_frequency(int cpu) const;

  /// errno of the most recent failed sysfs write (0 when none failed
  /// yet). Lets callers report *why* an actuation was rejected — EROFS
  /// for a tree gone read-only, EACCES for permissions, and so on.
  int last_errno() const { return last_errno_; }

 private:
  std::string cpu_dir(int cpu) const;
  bool write_file(const std::string& path, const std::string& value) const;
  std::optional<std::string> read_file(const std::string& path) const;

  std::string root_;
  std::vector<int> cpus_;
  mutable int last_errno_ = 0;
};

/// A 100 MHz-step ladder spanning cpuinfo_min..max_freq of cpu0, rounded
/// inward to whole steps. nullopt when the tree is absent or advertises a
/// degenerate range — callers then fall back to a preset ladder.
std::optional<FreqLadder> cpufreq_ladder(const CpufreqActuator& actuator);

/// FrequencyActuator adapter for the core domain over CpufreqActuator.
/// The registry's powercap/cpufreq backend composes this with the
/// powercap energy sensor. Construction saves each CPU's current
/// governor and switches to `userspace` (required before
/// scaling_setspeed writes take effect); destruction restores the saved
/// governors so the host's OS frequency scaling comes back when the
/// session ends.
class CpufreqCoreActuator final : public FrequencyActuator {
 public:
  CpufreqCoreActuator(CpufreqActuator actuator, FreqLadder ladder);
  ~CpufreqCoreActuator() override;

  CpufreqCoreActuator(const CpufreqCoreActuator&) = delete;
  CpufreqCoreActuator& operator=(const CpufreqCoreActuator&) = delete;

  const FreqLadder& ladder() const override { return ladder_; }
  FreqMHz current() const override { return current_; }
  /// Fails (with the sysfs errno) when no CPU accepted the write;
  /// current() advances only on success.
  IoOutcome apply(FreqMHz f) override;

  CpufreqActuator& raw() { return actuator_; }

 private:
  CpufreqActuator actuator_;
  FreqLadder ladder_;
  FreqMHz current_;
  std::vector<std::pair<int, std::string>> saved_governors_;
};

}  // namespace cuttlefish::hal
