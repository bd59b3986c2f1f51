// The batched-sampling contract: sample_sensors() — the one-virtual-call
// fast path — must report exactly what the simulator's per-register
// reference read reports, CapabilityFilter must zero exactly the fields
// it masks, and the MSR stack must sample in one pass. The four
// PlatformInterface adapters (read_sample, read_sensors,
// set_core_frequency, set_uncore_frequency) must each be one contract
// call in disguise.

#include <gtest/gtest.h>

#include "hal/backend.hpp"
#include "hal/fault_injection.hpp"
#include "hal/linux_msr.hpp"
#include "hal/msr.hpp"
#include "hal/platform.hpp"
#include "sim/machine_config.hpp"
#include "sim/phase_workload.hpp"
#include "sim/sim_machine.hpp"
#include "sim/sim_platform.hpp"

namespace cuttlefish::hal {
namespace {

sim::PhaseProgram long_program() {
  sim::PhaseProgram p;
  p.add(1e13, 1.0, 0.05);
  p.add(1e13, 1.2, 0.20);
  return p;
}

void expect_equal_totals(const SensorSample& sample,
                         const SensorTotals& totals) {
  EXPECT_EQ(sample.instructions, totals.instructions);
  EXPECT_EQ(sample.tor_inserts(), totals.tor_inserts);
  EXPECT_EQ(sample.energy_joules, totals.energy_joules);
}

TEST(SensorSampleHal, SimOverrideMatchesRegisterPathExactly) {
  const sim::MachineConfig cfg = sim::haswell_2650v3();
  const sim::PhaseProgram program = long_program();
  sim::SimMachine machine(cfg, program);
  sim::SimPlatform platform(machine);

  for (int i = 0; i < 50; ++i) {
    machine.advance(0.02);
    // Back-to-back fast-path and register-path reads see the same raw
    // counter, so the shared unwrap state must make them bit-equal.
    const SensorSample sample = platform.sample_sensors().sample;
    const SensorTotals totals = platform.read_registers();
    expect_equal_totals(sample, totals);
    // The sim splits TOR by NUMA umask; the split must conserve the sum.
    EXPECT_EQ(sample.tor_local + sample.tor_remote, totals.tor_inserts);
  }
}

TEST(SensorSampleHal, CapabilityFilterMasksExactlyTheFilteredFields) {
  const sim::MachineConfig cfg = sim::haswell_2650v3();
  const CapabilitySet subsets[] = {
      CapabilitySet::all(),
      CapabilitySet::all().without(Capability::kEnergySensor),
      CapabilitySet::all().without(Capability::kInstructionSensor),
      CapabilitySet::all().without(Capability::kTorSensor),
      CapabilitySet{}.with(Capability::kEnergySensor),
      CapabilitySet::none(),
  };
  for (const CapabilitySet& allowed : subsets) {
    const sim::PhaseProgram program = long_program();
    sim::SimMachine ma(cfg, program, 7);
    sim::SimMachine mb(cfg, program, 7);
    sim::SimPlatform platform_a(ma);
    sim::SimPlatform bare(mb);
    CapabilityFilter filtered(platform_a, allowed);

    for (int i = 0; i < 20; ++i) {
      ma.advance(0.02);
      mb.advance(0.02);
      const SensorSample a = filtered.sample_sensors().sample;
      const SensorSample b = bare.sample_sensors().sample;
      EXPECT_EQ(a.energy_joules,
                allowed.has(Capability::kEnergySensor) ? b.energy_joules
                                                       : 0.0);
      EXPECT_EQ(a.instructions, allowed.has(Capability::kInstructionSensor)
                                    ? b.instructions
                                    : 0u);
      const bool tor = allowed.has(Capability::kTorSensor);
      EXPECT_EQ(a.tor_local, tor ? b.tor_local : 0u);
      EXPECT_EQ(a.tor_remote, tor ? b.tor_remote : 0u);
    }
  }
}

/// MsrDevice decorator counting reads, over the sim machine's register
/// map — the in-container stand-in for /dev/cpu/*/msr.
class CountingMsrDevice final : public MsrDevice {
 public:
  explicit CountingMsrDevice(MsrDevice& inner) : inner_(&inner) {}
  bool read(uint32_t address, uint64_t& value) override {
    ++reads;
    return inner_->read(address, value);
  }
  bool write(uint32_t address, uint64_t value) override {
    return inner_->write(address, value);
  }
  int reads = 0;

 private:
  MsrDevice* inner_;
};

TEST(SensorSampleHal, MsrStackSamplesInOnePassOfThreeReads) {
  const sim::MachineConfig cfg = sim::haswell_2650v3();
  const sim::PhaseProgram program = long_program();
  sim::SimMachine machine(cfg, program);
  CountingMsrDevice device(machine);
  MsrSensorStack stack(device);
  ASSERT_TRUE(stack.capabilities().has(Capability::kEnergySensor));
  ASSERT_TRUE(stack.capabilities().has(Capability::kInstructionSensor));
  ASSERT_TRUE(stack.capabilities().has(Capability::kTorSensor));

  machine.advance(0.5);
  device.reads = 0;
  const SampleOutcome out = stack.sample();
  EXPECT_EQ(device.reads, 3);  // energy + instructions + TOR, one pass
  EXPECT_TRUE(out.io.ok());
  EXPECT_GT(out.sample.instructions, 0u);
  EXPECT_GT(out.sample.tor_inserts(), 0u);
  EXPECT_GT(out.sample.energy_joules, 0.0);
}

// ---- the four adapters kept on PlatformInterface -----------------------

TEST(PlatformAdapters, SimReadsInterleaveIntoOneBitExactStream) {
  const sim::MachineConfig cfg = sim::haswell_2650v3();
  const sim::PhaseProgram program = long_program();
  sim::SimMachine ma(cfg, program, 42);
  sim::SimMachine mb(cfg, program, 42);
  sim::SimPlatform mixed(ma);
  sim::SimPlatform contract_only(mb);

  for (int i = 0; i < 60; ++i) {
    ma.advance(0.02);
    mb.advance(0.02);
    const SensorSample want = contract_only.sample_sensors().sample;
    switch (i % 3) {
      case 0: {
        const SensorSample got = mixed.read_sample();
        EXPECT_EQ(got.instructions, want.instructions) << "read " << i;
        EXPECT_EQ(got.tor_local, want.tor_local) << "read " << i;
        EXPECT_EQ(got.tor_remote, want.tor_remote) << "read " << i;
        EXPECT_EQ(got.energy_joules, want.energy_joules) << "read " << i;
        break;
      }
      case 1:
        expect_equal_totals(want, mixed.read_sensors());
        break;
      default:
        expect_equal_totals(want, mixed.sample_sensors().sample.totals());
    }
  }
}

TEST(PlatformAdapters, SetsLandExactlyAsApply) {
  const sim::MachineConfig cfg = sim::haswell_2650v3();
  const sim::PhaseProgram program = long_program();
  sim::SimMachine ma(cfg, program, 3);
  sim::SimMachine mb(cfg, program, 3);
  sim::SimPlatform via_set(ma);
  sim::SimPlatform via_apply(mb);

  const FreqLadder& core = cfg.core_ladder;
  const FreqLadder& uncore = cfg.uncore_ladder;
  for (int i = 0; i < 24; ++i) {
    const FreqMHz cf = core.at(i % core.levels());
    const FreqMHz uf = uncore.at(uncore.max_level() - i % uncore.levels());
    via_set.set_core_frequency(cf);
    via_set.set_uncore_frequency(uf);
    EXPECT_TRUE(via_apply.apply_core_frequency(cf).ok());
    EXPECT_TRUE(via_apply.apply_uncore_frequency(uf).ok());
    EXPECT_EQ(ma.core_frequency(), cf);
    EXPECT_EQ(ma.uncore_frequency(), uf);
    EXPECT_EQ(via_set.core_frequency(), via_apply.core_frequency());
    EXPECT_EQ(via_set.uncore_frequency(), via_apply.uncore_frequency());
    ma.advance(0.02);
    mb.advance(0.02);
    // Same frequencies, same switch counts: the machines stay in lockstep.
    EXPECT_EQ(ma.frequency_switches(), mb.frequency_switches());
    expect_equal_totals(via_apply.sample_sensors().sample,
                        via_set.sample_sensors().sample.totals());
  }
}

TEST(PlatformAdapters, EachAdapterCallConsumesOneFaultScheduleOp) {
  const sim::MachineConfig cfg = sim::haswell_2650v3();
  const sim::PhaseProgram program = long_program();
  sim::SimMachine machine(cfg, program);
  sim::SimPlatform platform(machine);
  FaultSchedule schedule;
  schedule.add({FaultKind::kSensorError, 1, 1, 0});       // sensor op 1
  schedule.add({FaultKind::kCoreWriteError, 0, 1, 0});    // core op 0
  schedule.add({FaultKind::kUncoreWriteError, 1, 1, 0});  // uncore op 1
  FaultInjectionPlatform faulty(platform, schedule);

  machine.advance(0.1);
  const SensorSample good = faulty.read_sample();  // sensor op 0
  machine.advance(0.1);
  // Op 1 fails: the adapter hands back the last good reading.
  expect_equal_totals(good, faulty.read_sensors());
  EXPECT_EQ(faulty.fault_stats().sensor_errors, 1u);
  EXPECT_TRUE(faulty.sample_sensors().io.ok());  // sensor op 2
  EXPECT_EQ(faulty.sensor_ops(), 3u);

  const FreqMHz cf = cfg.core_ladder.min();
  const FreqMHz uf = cfg.uncore_ladder.min();
  faulty.set_core_frequency(cf);  // core op 0: dropped by the fault
  EXPECT_NE(machine.core_frequency(), cf);
  EXPECT_TRUE(faulty.apply_core_frequency(cf).ok());  // core op 1
  EXPECT_EQ(machine.core_frequency(), cf);
  faulty.set_uncore_frequency(uf);  // uncore op 0
  EXPECT_EQ(machine.uncore_frequency(), uf);
  EXPECT_TRUE(faulty.apply_uncore_frequency(cfg.uncore_ladder.max())
                  .failed());  // uncore op 1
  EXPECT_EQ(machine.uncore_frequency(), uf);
  EXPECT_EQ(faulty.core_ops(), 2u);
  EXPECT_EQ(faulty.uncore_ops(), 2u);
  EXPECT_EQ(faulty.fault_stats().actuator_errors, 2u);
}

}  // namespace
}  // namespace cuttlefish::hal
