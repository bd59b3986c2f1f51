#pragma once

#include <cstdint>

namespace cuttlefish::hal {

/// Retry / backoff / quarantine knobs shared by every tracked device.
/// The defaults are deliberately conservative: two immediate in-call
/// retries absorb transient EIO bursts without perturbing the Tinv
/// cadence, three consecutive failed operations quarantine the device,
/// and quarantined devices are re-probed on an exponential tick schedule
/// so a dead device costs one I/O every `backoff_max_ticks` instead of
/// one per tick.
struct RetryPolicy {
  /// Immediate same-call retries after a failed operation. Transient
  /// faults that clear within this budget are invisible to the control
  /// loop (same tick, same decision, bit-identical trace).
  int max_retries = 2;
  /// Consecutive failed operations (each already retried max_retries
  /// times) before the device is quarantined.
  int quarantine_after = 3;
  /// Consecutive successful probes before a quarantined device is
  /// declared healed.
  int heal_successes = 2;
  /// First probe interval after quarantine, in controller ticks; doubles
  /// after every failed probe up to backoff_max_ticks.
  uint64_t backoff_start_ticks = 8;
  uint64_t backoff_max_ticks = 256;

  bool operator==(const RetryPolicy&) const = default;
};

/// Per-device failure state machine: kHealthy -> (consecutive failures)
/// -> kDegraded -> (quarantine_after reached) -> kQuarantined ->
/// (heal_successes consecutive probe successes) -> kHealthy. Tick-indexed
/// rather than wall-clock so the same schedule of outcomes always
/// produces the same transitions — fault-injection tests are
/// deterministic and virtual-time sweeps behave exactly like wall-clock
/// sessions.
class DeviceHealth {
 public:
  enum class State : uint8_t { kHealthy, kDegraded, kQuarantined };

  DeviceHealth() = default;
  explicit DeviceHealth(RetryPolicy policy) : policy_(policy) {}

  State state() const { return state_; }
  bool quarantined() const { return state_ == State::kQuarantined; }
  const RetryPolicy& policy() const { return policy_; }

  /// Record a failed operation (after its in-call retries were
  /// exhausted). Returns true exactly on the transition edge into
  /// quarantine, so the caller can re-narrow once, not per failure.
  /// While quarantined, a failed probe doubles the backoff interval.
  bool record_failure(uint64_t tick);

  /// Record a successful operation. Returns true exactly on the heal
  /// edge: the device was quarantined and has now delivered
  /// heal_successes consecutive probe successes. The healthy path, taken
  /// by every tick of a fault-free run, is inline.
  bool record_success(uint64_t tick) {
    successes_ += 1;
    if (state_ == State::kQuarantined) return record_probe_success(tick);
    consecutive_failures_ = 0;
    state_ = State::kHealthy;
    return false;
  }

  /// Backoff gate while quarantined: true when the next probe is due at
  /// `tick`. Always true for non-quarantined devices (normal operations
  /// are not gated).
  bool should_probe(uint64_t tick) const {
    return state_ != State::kQuarantined || tick >= next_probe_tick_;
  }

  // Lifetime counters (diagnostics / health reports).
  uint64_t failures() const { return failures_; }
  uint64_t successes() const { return successes_; }
  uint64_t quarantines() const { return quarantines_; }
  uint64_t heals() const { return heals_; }
  int consecutive_failures() const { return consecutive_failures_; }

 private:
  /// record_success() while quarantined: counts toward the heal.
  bool record_probe_success(uint64_t tick);

  RetryPolicy policy_{};
  State state_ = State::kHealthy;
  int consecutive_failures_ = 0;
  int consecutive_successes_ = 0;
  uint64_t backoff_ticks_ = 0;
  uint64_t next_probe_tick_ = 0;
  uint64_t failures_ = 0;
  uint64_t successes_ = 0;
  uint64_t quarantines_ = 0;
  uint64_t heals_ = 0;
};

const char* to_string(DeviceHealth::State state);

}  // namespace cuttlefish::hal
