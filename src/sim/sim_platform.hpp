#pragma once

#include "hal/platform.hpp"
#include "sim/sim_machine.hpp"

namespace cuttlefish::sim {

/// hal::PlatformInterface over a SimMachine. The actuator writes and the
/// read_registers() reference read deliberately go through the MSR
/// register map and the shared hal codecs (rather than poking the machine
/// object directly) so the exact code paths of the real-hardware backend
/// — including RAPL unit decoding and 32-bit wrap handling — stay
/// exercised. sample_sensors() is the per-tick fast path: one pass over
/// the machine's counters with no MsrDevice round trips, but the same
/// RAPL quantisation (SimMachine::rapl_energy_raw is shared with the
/// register map), so both reads report bit-identical values.
class SimPlatform final : public hal::PlatformInterface {
 public:
  explicit SimPlatform(SimMachine& machine);

  /// The emulated Haswell exposes the full register map, so the simulator
  /// is the one backend that always advertises every capability. Partial
  /// hardware is modelled by wrapping this in a hal::CapabilityFilter.
  hal::CapabilitySet capabilities() const override {
    return hal::CapabilitySet::all();
  }

  const FreqLadder& core_ladder() const override;
  const FreqLadder& uncore_ladder() const override;

  FreqMHz core_frequency() const override;
  FreqMHz uncore_frequency() const override;

  /// Writes IA32_PERF_CTL / UNCORE_RATIO_LIMIT; the emulated registers
  /// accept every write, so the outcome is always success.
  hal::IoOutcome apply_core_frequency(FreqMHz f) override;
  hal::IoOutcome apply_uncore_frequency(FreqMHz f) override;
  hal::SampleOutcome sample_sensors() override;

  /// The reference read: every counter through its own MSR, decoded by
  /// the hal codecs, with the NUMA TOR umasks summed. Shares the RAPL
  /// unwrap state with sample_sensors(), so interleaved calls of the two
  /// form one bit-exact stream; tests compare the fast path against it.
  hal::SensorTotals read_registers();

 private:
  /// Shared by both reads: unwrap the 32-bit RAPL counter into the
  /// monotonic joule accumulator.
  double unwrap_energy(uint32_t now_raw);

  SimMachine* machine_;
  double energy_unit_j_;
  uint32_t last_energy_raw_;
  double energy_acc_j_ = 0.0;
};

}  // namespace cuttlefish::sim
