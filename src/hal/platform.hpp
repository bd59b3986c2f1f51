#pragma once

#include <cstdint>

#include "common/frequency.hpp"
#include "hal/capability.hpp"

namespace cuttlefish::hal {

/// Monotonic package-wide counter totals since platform construction.
/// The controller differences consecutive samples to obtain per-interval
/// TIPI (tor_inserts / instructions) and JPI (energy / instructions).
/// Fields whose sensor capability is absent stay at their zero value.
struct SensorTotals {
  uint64_t instructions = 0;
  uint64_t tor_inserts = 0;
  double energy_joules = 0.0;  // unwrapped by the backend
};

/// One batched reading of every counter a backend supplies — the
/// single-virtual-call fast path of the per-Tinv control loop. Superset
/// of SensorTotals: backends with NUMA-split TOR counters (the sim's
/// MISS_LOCAL / MISS_REMOTE umasks) report the shares separately;
/// backends with only an aggregate report it all under tor_local. Fields
/// whose sensor capability is absent stay at their zero value.
struct SensorSample {
  uint64_t instructions = 0;
  uint64_t tor_local = 0;
  uint64_t tor_remote = 0;
  double energy_joules = 0.0;  // unwrapped by the backend

  uint64_t tor_inserts() const { return tor_local + tor_remote; }
  SensorTotals totals() const {
    return SensorTotals{instructions, tor_inserts(), energy_joules};
  }
};

/// Structured result of one HAL I/O operation (an actuator write or a
/// batched sensor read). The pre-fault-tolerance contract was
/// warn-and-forget: a failed MSR or sysfs write logged a line and the
/// controller kept believing the actuation happened. Outcomes make the
/// failure visible to the caller so per-device health tracking, bounded
/// retry, and quarantine (core::Controller) can react instead — see
/// docs/FAULTS.md.
struct IoOutcome {
  enum class Status : uint8_t {
    kOk,           // operation completed
    kUnsupported,  // capability absent / filtered: a deliberate no-op
    kError,        // operation attempted and failed (see `error`)
  };

  Status status = Status::kOk;
  /// errno of the failing syscall when status == kError, 0 otherwise.
  int error = 0;

  /// kUnsupported counts as ok: a domain that was configured away is not
  /// unhealthy, and retrying it would be pointless.
  bool ok() const { return status != Status::kError; }
  bool failed() const { return status == Status::kError; }

  static constexpr IoOutcome success() { return {}; }
  static constexpr IoOutcome unsupported() {
    return {Status::kUnsupported, 0};
  }
  static constexpr IoOutcome failure(int err) {
    return {Status::kError, err};
  }
};

/// A batched sensor read plus its outcome. On failure `sample` carries
/// the backend's best effort (typically the previous good reading or
/// zeros); callers that care about correctness must check `io` first —
/// the controller discards the interval like a TIPI transition rather
/// than difference a stale sample.
struct SampleOutcome {
  SensorSample sample{};
  IoOutcome io{};
};

/// The hardware contract Cuttlefish is written against. Implementations
/// are pluggable backends (hal/registry.hpp probes and ranks them):
/// sim::SimPlatform (register-accurate emulation of the paper's 20-core
/// Haswell), hal::LinuxMsrPlatform (raw /dev/cpu/*/msr), the
/// powercap-RAPL + cpufreq-sysfs stack assembled by the registry on hosts
/// where MSR access is unavailable, and the warn-and-degrade null
/// fallback. The controller never sees which one it drives — it reads
/// capabilities() once and adapts (core-only narrowing, single-slab TIPI,
/// or monitor-only) instead of refusing to start.
///
/// Its I/O is three calls: a control interval makes one sample_sensors()
/// and one apply_*_frequency() per domain whose level changed (plus
/// bounded retries after an error). Each reports success, unsupported or
/// error (docs/FAULTS.md); every backend and decorator implements each
/// call exactly once.
class PlatformInterface {
 public:
  virtual ~PlatformInterface() = default;

  /// Which sensors and actuators this backend actually provides. The
  /// default advertises the full contract; partial backends must
  /// override. Calls to an actuator whose capability is absent are
  /// no-ops, and sensor fields without a capability read as zero.
  virtual CapabilitySet capabilities() const { return CapabilitySet::all(); }

  virtual const FreqLadder& core_ladder() const = 0;
  virtual const FreqLadder& uncore_ladder() const = 0;
  virtual FreqMHz core_frequency() const = 0;
  virtual FreqMHz uncore_frequency() const = 0;

  /// Set the DVFS target of every core (the paper scales all 20 cores
  /// together) / pin the uncore via min==max ratio limits.
  virtual IoOutcome apply_core_frequency(FreqMHz f) = 0;
  virtual IoOutcome apply_uncore_frequency(FreqMHz f) = 0;

  /// Batched sampling: every counter in one virtual call, the read the
  /// controller issues once per tick (the simulator skips its
  /// per-register MSR round trips, the MSR backend batches its preads) —
  /// see docs/ARCHITECTURE.md "The co-simulation hot path".
  virtual SampleOutcome sample_sensors() = 0;

  // ---- adapters over the contract ---------------------------------------
  //
  // The benchmark's forwarding decorator (TimedPlatform in
  // cfbench/src/replay.hpp) overrides these four names and forwards them
  // to the platform it wraps, so they remain virtual until it moves to the
  // three calls above. Nothing else overrides or calls them; each is one
  // contract call, so an adapter call costs and counts exactly what the
  // contract call does.

  virtual void set_core_frequency(FreqMHz f) { (void)apply_core_frequency(f); }
  virtual void set_uncore_frequency(FreqMHz f) {
    (void)apply_uncore_frequency(f);
  }
  virtual SensorTotals read_sensors() {
    return sample_sensors().sample.totals();
  }
  virtual SensorSample read_sample() { return sample_sensors().sample; }
};

}  // namespace cuttlefish::hal
