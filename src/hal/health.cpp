#include "hal/health.hpp"

#include <algorithm>

namespace cuttlefish::hal {

const char* to_string(DeviceHealth::State state) {
  switch (state) {
    case DeviceHealth::State::kHealthy: return "healthy";
    case DeviceHealth::State::kDegraded: return "degraded";
    case DeviceHealth::State::kQuarantined: return "quarantined";
  }
  return "?";
}

bool DeviceHealth::record_failure(uint64_t tick) {
  failures_ += 1;
  consecutive_successes_ = 0;
  if (state_ == State::kQuarantined) {
    // Failed probe: back off exponentially so a dead device converges to
    // one attempted I/O per backoff_max_ticks.
    backoff_ticks_ = std::min(backoff_ticks_ * 2, policy_.backoff_max_ticks);
    next_probe_tick_ = tick + backoff_ticks_;
    return false;
  }
  consecutive_failures_ += 1;
  if (consecutive_failures_ >= policy_.quarantine_after) {
    state_ = State::kQuarantined;
    quarantines_ += 1;
    backoff_ticks_ = std::max<uint64_t>(policy_.backoff_start_ticks, 1);
    next_probe_tick_ = tick + backoff_ticks_;
    return true;
  }
  state_ = State::kDegraded;
  return false;
}

bool DeviceHealth::record_probe_success(uint64_t tick) {
  consecutive_successes_ += 1;
  if (consecutive_successes_ < policy_.heal_successes) {
    // Successful probe, but not healed yet: re-probe promptly (no
    // backoff growth) so the remaining confirmations arrive fast.
    next_probe_tick_ = tick + 1;
    return false;
  }
  state_ = State::kHealthy;
  consecutive_failures_ = 0;
  consecutive_successes_ = 0;
  heals_ += 1;
  return true;
}

}  // namespace cuttlefish::hal
