#include "hal/linux_msr.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/log.hpp"
#include "hal/msr.hpp"

namespace cuttlefish::hal {

namespace {

/// Device-tree root, injectable (CUTTLEFISH_MSR_ROOT) so tests can mask
/// the host's real MSR devices and deterministically exercise the
/// degraded probe paths.
const char* msr_dev_root() {
  const char* root = std::getenv("CUTTLEFISH_MSR_ROOT");
  return (root != nullptr && *root != '\0') ? root : "/dev/cpu";
}

}  // namespace

LinuxMsrDevice::LinuxMsrDevice(int cpu) : cpu_(cpu) {
  char path[256];
  std::snprintf(path, sizeof(path), "%s/%d/msr", msr_dev_root(), cpu);
  fd_ = ::open(path, O_RDWR);
  writable_ = fd_ >= 0;
  if (fd_ < 0) fd_ = ::open(path, O_RDONLY);
}

LinuxMsrDevice::~LinuxMsrDevice() {
  if (fd_ >= 0) ::close(fd_);
}

bool LinuxMsrDevice::read(uint32_t address, uint64_t& value) {
  if (fd_ < 0) {
    errno = EBADF;
    return false;
  }
  const ssize_t n = ::pread(fd_, &value, sizeof(value),
                            static_cast<off_t>(address));
  if (n == static_cast<ssize_t>(sizeof(value))) return true;
  if (n >= 0) errno = EIO;  // short read: no errno from the kernel
  return false;
}

bool LinuxMsrDevice::write(uint32_t address, uint64_t value) {
  if (fd_ < 0) {
    errno = EBADF;
    return false;
  }
  if (!writable_) {
    errno = EROFS;
    return false;
  }
  const ssize_t n = ::pwrite(fd_, &value, sizeof(value),
                             static_cast<off_t>(address));
  if (n == static_cast<ssize_t>(sizeof(value))) return true;
  if (n >= 0) errno = EIO;
  return false;
}

int online_cpu_count() {
  // The /dev/cpu tree is contiguous for online CPUs; counting present
  // device nodes is simpler than parsing sysfs range lists and good
  // enough for the probe.
  int count = 0;
  for (int cpu = 0; cpu < 4096; ++cpu) {
    char path[256];
    std::snprintf(path, sizeof(path), "%s/%d/msr", msr_dev_root(), cpu);
    if (::access(path, F_OK) != 0) break;
    ++count;
  }
  return count;
}

MsrSensorStack::MsrSensorStack(MsrDevice& device) : device_(&device) {
  uint64_t value = 0;
  if (device_->read(msr::kRaplPowerUnit, value)) {
    energy_unit_j_ = decode_rapl_energy_unit(value);
    if (device_->read(msr::kPkgEnergyStatus, value)) {
      last_energy_raw_ = static_cast<uint32_t>(value);
      caps_ = caps_.with(Capability::kEnergySensor);
    }
  }
  if (device_->read(msr::kInstRetiredAggregate, value)) {
    caps_ = caps_.with(Capability::kInstructionSensor);
  }
  if (device_->read(msr::kTorInsertsAggregate, value)) {
    caps_ = caps_.with(Capability::kTorSensor);
  }
}

SampleOutcome MsrSensorStack::sample() {
  // One pass over the three registers per sample: exactly one pread per
  // present counter per Tinv, issued back to back. The hardware aggregate
  // has no MISS_LOCAL/MISS_REMOTE split, so everything lands in
  // tor_local. A probed-present register that stops responding turns the
  // outcome into a failure (carrying errno) while the affected fields
  // keep their previous value, so the sample never regresses.
  SampleOutcome out;
  out.sample = last_sample_;
  uint64_t value = 0;
  if (caps_.has(Capability::kEnergySensor)) {
    if (device_->read(msr::kPkgEnergyStatus, value)) {
      const auto now = static_cast<uint32_t>(value);
      energy_acc_j_ +=
          static_cast<double>(rapl_delta_units(last_energy_raw_, now)) *
          energy_unit_j_;
      last_energy_raw_ = now;
      out.sample.energy_joules = energy_acc_j_;
    } else {
      out.io = IoOutcome::failure(errno);
      CF_LOG_WARN("MSR_PKG_ENERGY_STATUS read failed: %s",
                  std::strerror(errno));
    }
  }
  if (caps_.has(Capability::kInstructionSensor)) {
    if (device_->read(msr::kInstRetiredAggregate, value)) {
      out.sample.instructions = value;
    } else {
      out.io = IoOutcome::failure(errno);
      CF_LOG_WARN("INST_RETIRED aggregate read failed: %s",
                  std::strerror(errno));
    }
  }
  if (caps_.has(Capability::kTorSensor)) {
    if (device_->read(msr::kTorInsertsAggregate, value)) {
      out.sample.tor_local = value;
    } else {
      out.io = IoOutcome::failure(errno);
      CF_LOG_WARN("TOR_INSERTS aggregate read failed: %s",
                  std::strerror(errno));
    }
  }
  last_sample_ = out.sample;
  return out;
}

MsrCoreActuator::MsrCoreActuator(std::vector<MsrDevice*> devices,
                                 FreqLadder ladder)
    : devices_(std::move(devices)), ladder_(ladder), current_(ladder.max()) {}

IoOutcome MsrCoreActuator::apply(FreqMHz f) {
  const uint64_t value = encode_perf_ctl(f);
  int first_error = 0;
  for (MsrDevice* device : devices_) {
    if (!device->write(msr::kIa32PerfCtl, value)) {
      if (first_error == 0) first_error = errno != 0 ? errno : EIO;
      CF_LOG_WARN("IA32_PERF_CTL write failed: %s", std::strerror(errno));
    }
  }
  if (first_error != 0) return IoOutcome::failure(first_error);
  current_ = f;
  return IoOutcome::success();
}

MsrUncoreActuator::MsrUncoreActuator(MsrDevice& device, FreqLadder ladder)
    : device_(&device), ladder_(ladder), current_(ladder.max()) {}

IoOutcome MsrUncoreActuator::apply(FreqMHz f) {
  if (!device_->write(msr::kUncoreRatioLimit,
                      encode_uncore_ratio_limit(f, f))) {
    const int err = errno != 0 ? errno : EIO;
    CF_LOG_WARN("UNCORE_RATIO_LIMIT write failed: %s", std::strerror(err));
    return IoOutcome::failure(err);
  }
  current_ = f;
  return IoOutcome::success();
}

bool LinuxMsrPlatform::available() {
  LinuxMsrDevice probe(0);
  if (!probe.ok()) return false;
  uint64_t unit = 0;
  return probe.read(msr::kRaplPowerUnit, unit);
}

LinuxMsrPlatform::LinuxMsrPlatform(FreqLadder core, FreqLadder uncore)
    : ComposedPlatform(nullptr, nullptr, nullptr, core, uncore) {
  const int cpus = online_cpu_count();
  for (int cpu = 0; cpu < cpus; ++cpu) {
    auto dev = std::make_unique<LinuxMsrDevice>(cpu);
    if (!dev->ok()) break;
    devices_.push_back(std::move(dev));
  }
  if (devices_.empty()) {
    CF_LOG_WARN("LinuxMsrPlatform: no usable /dev/cpu/*/msr devices");
    return;
  }
  LinuxMsrDevice& pkg = *devices_[0];
  sensors_ = std::make_unique<MsrSensorStack>(pkg);
  if (!sensors_->capabilities().has(Capability::kEnergySensor)) {
    CF_LOG_WARN("LinuxMsrPlatform: cannot read MSR_RAPL_POWER_UNIT");
    return;
  }
  if (pkg.writable()) {
    std::vector<MsrDevice*> all;
    all.reserve(devices_.size());
    for (auto& dev : devices_) all.push_back(dev.get());
    core_ = std::make_unique<MsrCoreActuator>(std::move(all), core);
    uncore_ = std::make_unique<MsrUncoreActuator>(pkg, uncore);
  } else {
    CF_LOG_WARN(
        "LinuxMsrPlatform: MSR devices are read-only (msr-safe write "
        "allowlist?); running sensor-only");
  }
  ok_ = true;
}

}  // namespace cuttlefish::hal
