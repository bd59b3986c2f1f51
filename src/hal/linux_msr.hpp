#pragma once

#include <memory>
#include <string>
#include <vector>

#include "hal/backend.hpp"
#include "hal/msr_device.hpp"
#include "hal/platform.hpp"

namespace cuttlefish::hal {

/// MsrDevice over a /dev/cpu/<cpu>/msr character device (stock `msr`
/// module or LLNL msr-safe, which the paper uses). One instance per
/// logical CPU.
class LinuxMsrDevice final : public MsrDevice {
 public:
  /// Opens the device node; `ok()` reports success (no exceptions so the
  /// probe path can fall back quietly).
  explicit LinuxMsrDevice(int cpu);
  ~LinuxMsrDevice() override;

  LinuxMsrDevice(const LinuxMsrDevice&) = delete;
  LinuxMsrDevice& operator=(const LinuxMsrDevice&) = delete;

  bool ok() const { return fd_ >= 0; }
  /// True when the node opened read-write (msr-safe allowlists often
  /// permit reads only — then the actuator capabilities are absent).
  bool writable() const { return writable_; }
  int cpu() const { return cpu_; }

  bool read(uint32_t address, uint64_t& value) override;
  bool write(uint32_t address, uint64_t value) override;

 private:
  int cpu_;
  int fd_ = -1;
  bool writable_ = false;
};

/// Sensor half of the MSR backend: RAPL package energy (with 32-bit wrap
/// unwrapping) plus the aggregate instruction and TOR_INSERT virtual
/// counters, all read from one package device. Each counter's capability
/// bit is probed at construction — TOR_INSERT programming of CBo PMUs is
/// chipset-specific, so on hosts where the aggregate addresses are not
/// serviced the bit is simply absent and the controller degrades to a
/// single-slab TIPI list instead of failing.
class MsrSensorStack final : public SensorStack {
 public:
  /// `device` is borrowed and must outlive the stack.
  explicit MsrSensorStack(MsrDevice& device);

  CapabilitySet capabilities() const override { return caps_; }
  /// One pass over the present counters, reporting failure (with errno)
  /// when any probed-present register stops responding mid-run; failed
  /// fields keep their previous value so the sample stays monotonic.
  SampleOutcome sample() override;

 private:
  MsrDevice* device_;
  CapabilitySet caps_;
  double energy_unit_j_ = 0.0;
  uint32_t last_energy_raw_ = 0;
  double energy_acc_j_ = 0.0;
  SensorSample last_sample_{};
};

/// Core-domain DVFS over IA32_PERF_CTL, written on every CPU (the paper
/// scales all cores together).
class MsrCoreActuator final : public FrequencyActuator {
 public:
  /// `devices` are borrowed and must outlive the actuator.
  MsrCoreActuator(std::vector<MsrDevice*> devices, FreqLadder ladder);

  const FreqLadder& ladder() const override { return ladder_; }
  FreqMHz current() const override { return current_; }
  /// Fails (with the first failing CPU's errno) unless every per-CPU
  /// IA32_PERF_CTL write landed; current() advances only on success.
  IoOutcome apply(FreqMHz f) override;

 private:
  std::vector<MsrDevice*> devices_;
  FreqLadder ladder_;
  FreqMHz current_;
};

/// Uncore UFS via the package-scoped UNCORE_RATIO_LIMIT MSR; Cuttlefish
/// pins by writing min == max, as the paper does.
class MsrUncoreActuator final : public FrequencyActuator {
 public:
  /// `device` (any CPU of the package) is borrowed.
  MsrUncoreActuator(MsrDevice& device, FreqLadder ladder);

  const FreqLadder& ladder() const override { return ladder_; }
  FreqMHz current() const override { return current_; }
  IoOutcome apply(FreqMHz f) override;

 private:
  MsrDevice* device_;
  FreqLadder ladder_;
  FreqMHz current_;
};

/// Owns LinuxMsrPlatform's per-CPU devices. A base class rather than a
/// member, so the devices outlive the ComposedPlatform parts that borrow
/// them (bases are destroyed in reverse declaration order).
class LinuxMsrDevices {
 protected:
  std::vector<std::unique_ptr<LinuxMsrDevice>> devices_;
};

/// The full MSR stack: a ComposedPlatform of MsrSensorStack + both
/// actuators over one owned LinuxMsrDevice per online CPU.
/// capabilities() reflects what actually probed (read-only msr-safe hosts
/// lose the actuator bits; hosts without CBo aggregates lose kTorSensor).
class LinuxMsrPlatform final : private LinuxMsrDevices,
                               public ComposedPlatform {
 public:
  LinuxMsrPlatform(FreqLadder core, FreqLadder uncore);

  /// True if at least CPU0's MSR device and the RAPL unit register are
  /// usable. The cheap probe used by the backend registry.
  static bool available();
  bool ok() const { return ok_; }

 private:
  bool ok_ = false;
};

/// Number of online logical CPUs according to the /dev/cpu tree (0 when
/// the msr module is absent).
int online_cpu_count();

}  // namespace cuttlefish::hal
