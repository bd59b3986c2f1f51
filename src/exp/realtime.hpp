#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>

#include "hal/platform.hpp"
#include "sim/machine_config.hpp"
#include "sim/phase_workload.hpp"
#include "sim/sim_machine.hpp"
#include "sim/sim_platform.hpp"

namespace cuttlefish::exp {

/// Couples a SimMachine to wall-clock time so the real daemon thread
/// (cuttlefish::start / core::Daemon) can drive it: a background thread
/// advances virtual time at `rate` virtual seconds per wall second while
/// every PlatformInterface call is serialised against it.
///
/// With rate > 1, scale the controller's Tinv down by the same factor so
/// each tick still covers the paper's 20 ms of *virtual* time — the
/// examples use rate = 10 with Tinv = 2 ms wall.
class RealtimeSimPlatform final : public hal::PlatformInterface {
 public:
  RealtimeSimPlatform(const sim::MachineConfig& cfg,
                      const sim::PhaseProgram& program, double rate = 1.0,
                      uint64_t seed = 1);
  ~RealtimeSimPlatform() override;

  RealtimeSimPlatform(const RealtimeSimPlatform&) = delete;
  RealtimeSimPlatform& operator=(const RealtimeSimPlatform&) = delete;

  void start();
  void stop();

  bool workload_done() const;
  /// Consistent snapshot of the machine's progress counters.
  struct Snapshot {
    double time_s = 0.0;
    double energy_j = 0.0;
    uint64_t instructions = 0;
    FreqMHz cf{0};
    FreqMHz uf{0};
  };
  Snapshot snapshot() const;

  // hal::PlatformInterface (thread-safe).
  hal::CapabilitySet capabilities() const override {
    return platform_.capabilities();
  }
  const FreqLadder& core_ladder() const override;
  const FreqLadder& uncore_ladder() const override;
  FreqMHz core_frequency() const override;
  FreqMHz uncore_frequency() const override;
  hal::IoOutcome apply_core_frequency(FreqMHz f) override;
  hal::IoOutcome apply_uncore_frequency(FreqMHz f) override;
  hal::SampleOutcome sample_sensors() override;

 private:
  void advance_loop();

  mutable std::mutex mutex_;
  sim::PhaseProgram program_;
  sim::SimMachine machine_;
  sim::SimPlatform platform_;
  double rate_;
  std::thread thread_;
  std::atomic<bool> running_{false};
};

}  // namespace cuttlefish::exp
