#include "hal/backend.hpp"

namespace cuttlefish::hal {

const char* to_string(Capability capability) {
  switch (capability) {
    case Capability::kEnergySensor: return "energy";
    case Capability::kInstructionSensor: return "instructions";
    case Capability::kTorSensor: return "tor";
    case Capability::kCoreDvfs: return "core-dvfs";
    case Capability::kUncoreUfs: return "uncore-ufs";
    case Capability::kArbitrated: return "arbitrated";
  }
  return "?";
}

std::string CapabilitySet::to_string() const {
  if (empty()) return "none";
  static constexpr Capability kAll[] = {
      Capability::kEnergySensor, Capability::kInstructionSensor,
      Capability::kTorSensor, Capability::kCoreDvfs, Capability::kUncoreUfs,
      Capability::kArbitrated};
  std::string out;
  for (Capability c : kAll) {
    if (!has(c)) continue;
    if (!out.empty()) out += '+';
    out += hal::to_string(c);
  }
  return out;
}

ComposedPlatform::ComposedPlatform(std::unique_ptr<SensorStack> sensors,
                                   std::unique_ptr<FrequencyActuator> core,
                                   std::unique_ptr<FrequencyActuator> uncore,
                                   FreqLadder fallback_core,
                                   FreqLadder fallback_uncore)
    : sensors_(std::move(sensors)),
      core_(std::move(core)),
      uncore_(std::move(uncore)),
      fallback_core_(fallback_core),
      fallback_uncore_(fallback_uncore) {}

CapabilitySet ComposedPlatform::capabilities() const {
  CapabilitySet caps;
  if (sensors_) caps = caps | sensors_->capabilities();
  if (core_) caps = caps.with(Capability::kCoreDvfs);
  if (uncore_) caps = caps.with(Capability::kUncoreUfs);
  return caps;
}

const FreqLadder& ComposedPlatform::core_ladder() const {
  return core_ ? core_->ladder() : fallback_core_;
}

const FreqLadder& ComposedPlatform::uncore_ladder() const {
  return uncore_ ? uncore_->ladder() : fallback_uncore_;
}

IoOutcome ComposedPlatform::apply_core_frequency(FreqMHz f) {
  // A missing part is a deliberate no-op, not a failure: the capability
  // bit is already absent, so callers never mistake it for ill health.
  return core_ ? core_->apply(f) : IoOutcome::unsupported();
}

IoOutcome ComposedPlatform::apply_uncore_frequency(FreqMHz f) {
  return uncore_ ? uncore_->apply(f) : IoOutcome::unsupported();
}

SampleOutcome ComposedPlatform::sample_sensors() {
  return sensors_ ? sensors_->sample()
                  : SampleOutcome{SensorSample{}, IoOutcome::unsupported()};
}

FreqMHz ComposedPlatform::core_frequency() const {
  return core_ ? core_->current() : fallback_core_.max();
}

FreqMHz ComposedPlatform::uncore_frequency() const {
  return uncore_ ? uncore_->current() : fallback_uncore_.max();
}

std::unique_ptr<ComposedPlatform> make_null_platform() {
  return std::make_unique<ComposedPlatform>(nullptr, nullptr, nullptr,
                                            haswell_core_ladder(),
                                            haswell_uncore_ladder());
}

CapabilityFilter::CapabilityFilter(PlatformInterface& inner,
                                   CapabilitySet allowed)
    : inner_(&inner), allowed_(allowed) {}

CapabilitySet CapabilityFilter::capabilities() const {
  return inner_->capabilities() & allowed_;
}

const FreqLadder& CapabilityFilter::core_ladder() const {
  return inner_->core_ladder();
}

const FreqLadder& CapabilityFilter::uncore_ladder() const {
  return inner_->uncore_ladder();
}

IoOutcome CapabilityFilter::apply_core_frequency(FreqMHz f) {
  // A masked domain reports unsupported, not error — forcing degraded
  // operation must not read as device failure to the health tracker.
  if (!allowed_.has(Capability::kCoreDvfs)) return IoOutcome::unsupported();
  return inner_->apply_core_frequency(f);
}

IoOutcome CapabilityFilter::apply_uncore_frequency(FreqMHz f) {
  if (!allowed_.has(Capability::kUncoreUfs)) return IoOutcome::unsupported();
  return inner_->apply_uncore_frequency(f);
}

SampleOutcome CapabilityFilter::sample_sensors() {
  SampleOutcome out = inner_->sample_sensors();
  if (!allowed_.has(Capability::kEnergySensor)) {
    out.sample.energy_joules = 0.0;
  }
  if (!allowed_.has(Capability::kInstructionSensor)) {
    out.sample.instructions = 0;
  }
  if (!allowed_.has(Capability::kTorSensor)) {
    out.sample.tor_local = 0;
    out.sample.tor_remote = 0;
  }
  return out;
}

FreqMHz CapabilityFilter::core_frequency() const {
  return inner_->core_frequency();
}

FreqMHz CapabilityFilter::uncore_frequency() const {
  return inner_->uncore_frequency();
}

}  // namespace cuttlefish::hal
