#pragma once

#include <memory>

#include "hal/platform.hpp"

namespace cuttlefish::hal {

/// The sensor half of the hardware contract: one monotonic sample of the
/// counters a backend can read. A stack advertises only sensor bits
/// (kEnergySensor / kInstructionSensor / kTorSensor); absent counters
/// stay zero in sample().
class SensorStack {
 public:
  virtual ~SensorStack() = default;

  virtual CapabilitySet capabilities() const = 0;

  /// One batched pass over the present counters, plus whether the
  /// underlying device I/O succeeded.
  virtual SampleOutcome sample() = 0;
};

/// The actuator half, one instance per frequency domain. Implementations
/// cache the last requested frequency; current() reports that cache (the
/// controller only ever compares against its own writes).
class FrequencyActuator {
 public:
  virtual ~FrequencyActuator() = default;

  virtual const FreqLadder& ladder() const = 0;
  virtual FreqMHz current() const = 0;

  /// Write `f` and report whether the device accepted it. current()
  /// advances only when the write landed, so a failed actuation never
  /// silently diverges the controller's view of the hardware.
  virtual IoOutcome apply(FreqMHz f) = 0;
};

/// PlatformInterface assembled from parts, any of which may be absent.
/// A missing part clears the matching capability bits: actuator calls
/// become no-ops, sensors read zero, and ladders fall back to the
/// supplied defaults (harmless — a ladder is only consulted for domains
/// that are actually actuated or for display).
class ComposedPlatform : public PlatformInterface {
 public:
  ComposedPlatform(std::unique_ptr<SensorStack> sensors,
                   std::unique_ptr<FrequencyActuator> core,
                   std::unique_ptr<FrequencyActuator> uncore,
                   FreqLadder fallback_core, FreqLadder fallback_uncore);

  CapabilitySet capabilities() const override;

  const FreqLadder& core_ladder() const override;
  const FreqLadder& uncore_ladder() const override;
  FreqMHz core_frequency() const override;
  FreqMHz uncore_frequency() const override;
  IoOutcome apply_core_frequency(FreqMHz f) override;
  IoOutcome apply_uncore_frequency(FreqMHz f) override;
  SampleOutcome sample_sensors() override;

 protected:
  /// Null parts are absent capabilities. A backend that must open its
  /// devices before it can build the parts (LinuxMsrPlatform) constructs
  /// with nulls and installs them after probing.
  std::unique_ptr<SensorStack> sensors_;
  std::unique_ptr<FrequencyActuator> core_;
  std::unique_ptr<FrequencyActuator> uncore_;

 private:
  FreqLadder fallback_core_;
  FreqLadder fallback_uncore_;
};

/// The warn-and-degrade terminus of the probing order: no sensors, no
/// actuators, empty capability set. A controller driven by it runs every
/// tick idle and never writes a frequency — the paper's "library compiled
/// out" behaviour, but with the session machinery still exercised.
std::unique_ptr<ComposedPlatform> make_null_platform();

/// Decorator that hides capabilities of an existing platform: masked
/// sensor fields read as zero and masked actuator writes are dropped.
/// Used by tests to model partial hardware against the simulator, and by
/// operators to force degraded operation of a full backend.
class CapabilityFilter final : public PlatformInterface {
 public:
  /// `inner` is borrowed and must outlive the filter.
  CapabilityFilter(PlatformInterface& inner, CapabilitySet allowed);

  CapabilitySet capabilities() const override;

  const FreqLadder& core_ladder() const override;
  const FreqLadder& uncore_ladder() const override;
  FreqMHz core_frequency() const override;
  FreqMHz uncore_frequency() const override;
  IoOutcome apply_core_frequency(FreqMHz f) override;
  IoOutcome apply_uncore_frequency(FreqMHz f) override;
  SampleOutcome sample_sensors() override;

 private:
  PlatformInterface* inner_;
  CapabilitySet allowed_;
};

}  // namespace cuttlefish::hal
