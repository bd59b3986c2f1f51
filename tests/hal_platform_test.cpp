#include <gtest/gtest.h>

#include "hal/linux_msr.hpp"
#include "hal/msr.hpp"
#include "sim/machine_config.hpp"
#include "sim/phase_workload.hpp"
#include "sim/sim_machine.hpp"
#include "sim/sim_platform.hpp"

namespace cuttlefish {
namespace {

sim::PhaseProgram long_program() {
  sim::PhaseProgram p;
  p.add(1e13, 1.0, 0.05);
  return p;
}

TEST(SimPlatformHal, FrequencyWritesGoThroughRegisters) {
  const sim::MachineConfig cfg = sim::haswell_2650v3();
  const sim::PhaseProgram program = long_program();
  sim::SimMachine machine(cfg, program);
  sim::SimPlatform platform(machine);

  EXPECT_TRUE(platform.apply_core_frequency(FreqMHz{1500}).ok());
  EXPECT_TRUE(platform.apply_uncore_frequency(FreqMHz{2200}).ok());
  EXPECT_EQ(machine.core_frequency().value, 1500);
  EXPECT_EQ(machine.uncore_frequency().value, 2200);
  EXPECT_EQ(platform.core_frequency().value, 1500);
  EXPECT_EQ(platform.uncore_frequency().value, 2200);
}

TEST(SimPlatformHal, SensorTotalsAreMonotonic) {
  const sim::MachineConfig cfg = sim::haswell_2650v3();
  const sim::PhaseProgram program = long_program();
  sim::SimMachine machine(cfg, program);
  sim::SimPlatform platform(machine);

  hal::SensorSample prev = platform.sample_sensors().sample;
  for (int i = 0; i < 50; ++i) {
    machine.advance(0.02);
    const hal::SensorSample now = platform.sample_sensors().sample;
    EXPECT_GE(now.instructions, prev.instructions);
    EXPECT_GE(now.tor_inserts(), prev.tor_inserts());
    EXPECT_GE(now.energy_joules, prev.energy_joules);
    prev = now;
  }
}

TEST(SimPlatformHal, EnergyMatchesMachineWithinQuantisation) {
  const sim::MachineConfig cfg = sim::haswell_2650v3();
  const sim::PhaseProgram program = long_program();
  sim::SimMachine machine(cfg, program);
  sim::SimPlatform platform(machine);

  machine.advance(5.0);
  const hal::SampleOutcome out = platform.sample_sensors();
  EXPECT_TRUE(out.io.ok());
  // RAPL quantisation error is bounded by one energy unit.
  EXPECT_NEAR(out.sample.energy_joules, machine.energy_joules(),
              1.0 / 16384.0 + 1e-9);
}

TEST(SimPlatformHal, EnergyUnwrapsAcrossRaplWrap) {
  sim::MachineConfig cfg = sim::haswell_2650v3();
  cfg.power_noise_sigma = 0.0;
  sim::PhaseProgram program;
  program.add(5e15, 1.0, 0.0);  // enough work for > 2^32 energy units
  sim::SimMachine machine(cfg, program);
  sim::SimMachine twin(cfg, program);
  sim::SimPlatform platform(machine);
  sim::SimPlatform fast_only(twin);

  // 2^32 units at 1/2^14 J = 262144 J; at ~150 W that's ~1750 s. Advance
  // well past one wrap in coarse steps, reading in between as the daemon
  // would — alternately through the fast path and the register map. The
  // two reads share one unwrap state, so the interleaved stream must equal
  // a twin machine's fast-path-only stream bit for bit.
  double last = 0.0;
  for (int i = 0; i < 400; ++i) {
    machine.advance(10.0);
    twin.advance(10.0);
    const double now = i % 2 == 0
                           ? platform.sample_sensors().sample.energy_joules
                           : platform.read_registers().energy_joules;
    EXPECT_EQ(now, fast_only.sample_sensors().sample.energy_joules)
        << "read " << i;
    EXPECT_GE(now, last);
    last = now;
  }
  EXPECT_NEAR(last, machine.energy_joules(), 1.0);
  EXPECT_GT(last, 262144.0);  // proves at least one wrap was crossed
}

TEST(LinuxMsrPlatform, ProbeDoesNotCrashAgainstRealDeviceTree) {
  // Whatever the host offers (absent tree, msr-safe, full access), the
  // probe cuttlefish::start() runs must never throw.
  EXPECT_NO_THROW({
    const bool ok = hal::LinuxMsrPlatform::available();
    (void)ok;
  });
}

TEST(LinuxMsrPlatform, ConstructsInDegradedModeWithoutDevices) {
  // Mask any real MSR devices so the no-hardware path runs everywhere.
  setenv("CUTTLEFISH_MSR_ROOT", "/nonexistent/msr", 1);
  EXPECT_FALSE(hal::LinuxMsrPlatform::available());
  hal::LinuxMsrPlatform platform(haswell_core_ladder(),
                                 haswell_uncore_ladder());
  EXPECT_FALSE(platform.ok());
  EXPECT_TRUE(platform.capabilities().empty());
  const hal::SampleOutcome out = platform.sample_sensors();
  EXPECT_EQ(out.io.status, hal::IoOutcome::Status::kUnsupported);
  EXPECT_EQ(out.sample.instructions, 0u);
  unsetenv("CUTTLEFISH_MSR_ROOT");
}

}  // namespace
}  // namespace cuttlefish
