#pragma once

#include <cstdint>
#include <vector>

#include "hal/platform.hpp"

namespace cuttlefish::hal {

/// Failure modes the injector can impose on a wrapped backend. Error
/// kinds surface through the outcome contract (IoOutcome::kError with a
/// realistic errno); value kinds corrupt the reported sample while
/// claiming success — the silent-data class the health tracker cannot
/// see, exercised so the controller's numeric paths provably survive it.
enum class FaultKind : uint8_t {
  kSensorError,       // sample_sensors fails (EIO)
  kSensorStuck,       // sample repeats the last good reading
  kSensorOutlier,     // TOR/instruction counts scaled by `magnitude`
  kSensorWrap,        // energy accumulator regresses (wrap-bug model)
  kCoreWriteError,    // apply_core_frequency fails (EIO)
  kUncoreWriteError,  // apply_uncore_frequency fails (EIO)
  kLatencySpike,      // sample blocks `magnitude` ms of wall time first
};

const char* to_string(FaultKind kind);

/// One contiguous fault: active for the device-operation indices
/// [start_op, start_op + duration_ops), or from start_op forever when
/// duration_ops == 0. Windows are indexed by per-target operation count
/// — not wall or virtual time — so a schedule replays identically under
/// manual ticks, virtual-time sweeps, and wall-clock daemons alike.
struct FaultWindow {
  FaultKind kind = FaultKind::kSensorError;
  uint64_t start_op = 0;
  uint64_t duration_ops = 0;  // 0 = persistent
  /// kSensorOutlier: counter scale factor; kLatencySpike: milliseconds;
  /// kSensorWrap: joules subtracted. Ignored otherwise.
  uint32_t magnitude = 0;

  bool active(uint64_t op) const {
    return op >= start_op &&
           (duration_ops == 0 || op - start_op < duration_ops);
  }
};

/// A deterministic fault plan: a list of windows, either hand-built or
/// expanded from a seed by the canned generators. Value semantics; the
/// injection platform copies it, so one schedule can parameterise many
/// runs (the chaos sweep hands the same schedule to every spec).
class FaultSchedule {
 public:
  FaultSchedule() = default;

  FaultSchedule& add(FaultWindow window) {
    windows_.push_back(window);
    return *this;
  }

  const std::vector<FaultWindow>& windows() const { return windows_; }
  bool empty() const { return windows_.empty(); }

  /// Every sensor read fails, from the first operation, forever — the
  /// acceptance scenario: the controller must degrade to monitor mode
  /// and run to completion.
  static FaultSchedule persistent_sensor_failure();

  /// Seeded bursts of transient errors, each healed within
  /// `retry_budget` in-call retries (burst length 1..retry_budget ops).
  /// Because every burst clears inside one controller tick, a run under
  /// this schedule is guaranteed byte-identical to the fault-free run —
  /// the recovery contract the `faults` test tier and the chaos-smoke CI
  /// job pin.
  static FaultSchedule transient_only(uint64_t seed, int bursts = 24,
                                      uint64_t horizon_ops = 4096,
                                      int retry_budget = 2);

  /// Seeded everything-at-once chaos: error bursts beyond the retry
  /// budget (forcing quarantine + re-narrowing), value faults, latency
  /// spikes, and a healing sensor outage. No determinism guarantee
  /// versus the fault-free run — only versus the same seed.
  static FaultSchedule chaos(uint64_t seed, uint64_t horizon_ops = 4096);

 private:
  std::vector<FaultWindow> windows_;
};

/// Injection counters, split by how the fault manifests.
struct FaultStats {
  uint64_t sensor_errors = 0;
  uint64_t sensor_value_faults = 0;  // stuck / outlier / wrap
  uint64_t actuator_errors = 0;
  uint64_t latency_spikes = 0;

  uint64_t total() const {
    return sensor_errors + sensor_value_faults + actuator_errors +
           latency_spikes;
  }
};

/// PlatformInterface decorator imposing a FaultSchedule on any backend.
/// Each target (sensor stack, core actuator, uncore actuator) has its
/// own operation counter; every intercepted call first consults the
/// schedule at the current index, then either forwards to the inner
/// platform or manifests the fault.
///
/// `inner` is borrowed and must outlive the decorator.
class FaultInjectionPlatform final : public PlatformInterface {
 public:
  FaultInjectionPlatform(PlatformInterface& inner, FaultSchedule schedule);

  CapabilitySet capabilities() const override {
    return inner_->capabilities();
  }
  const FreqLadder& core_ladder() const override {
    return inner_->core_ladder();
  }
  const FreqLadder& uncore_ladder() const override {
    return inner_->uncore_ladder();
  }
  FreqMHz core_frequency() const override { return inner_->core_frequency(); }
  FreqMHz uncore_frequency() const override {
    return inner_->uncore_frequency();
  }

  IoOutcome apply_core_frequency(FreqMHz f) override;
  IoOutcome apply_uncore_frequency(FreqMHz f) override;
  SampleOutcome sample_sensors() override;

  const FaultStats& fault_stats() const { return stats_; }
  uint64_t sensor_ops() const { return sensor_op_; }
  uint64_t core_ops() const { return core_op_; }
  uint64_t uncore_ops() const { return uncore_op_; }

 private:
  /// First active window of `kind` at `op`, or nullptr.
  const FaultWindow* match(FaultKind kind, uint64_t op) const;

  PlatformInterface* inner_;
  FaultSchedule schedule_;
  FaultStats stats_;
  uint64_t sensor_op_ = 0;
  uint64_t core_op_ = 0;
  uint64_t uncore_op_ = 0;
  SensorSample last_good_{};
};

}  // namespace cuttlefish::hal
