#include <gtest/gtest.h>

#include "hal/msr.hpp"
#include "sim/machine_config.hpp"
#include "sim/power_model.hpp"
#include "sim/sim_machine.hpp"
#include "sim/sim_platform.hpp"

namespace cuttlefish::sim {
namespace {

MachineConfig quiet() {
  MachineConfig cfg = haswell_2650v3();
  cfg.power_noise_sigma = 0.0;
  return cfg;
}

PhaseProgram mem_program() {
  PhaseProgram p;
  p.add(1e12, 0.8, 0.08);
  return p;
}

TEST(Numa, LocalPlusRemoteEqualsAggregate) {
  const PhaseProgram p = mem_program();
  SimMachine m(quiet(), p);
  m.advance(5.0);
  const uint64_t local = m.tor_inserts_local();
  const uint64_t remote = m.tor_inserts_remote();
  EXPECT_EQ(local + remote, m.tor_inserts());
  EXPECT_GT(local, 0u);
  EXPECT_GT(remote, 0u);
}

TEST(Numa, InterleaveSplitsMissesEvenly) {
  // numactl --interleave on two sockets: ~50% remote (paper §2).
  const PhaseProgram p = mem_program();
  SimMachine m(quiet(), p);
  m.advance(5.0);
  const auto local = static_cast<double>(m.tor_inserts_local());
  const auto remote = static_cast<double>(m.tor_inserts_remote());
  EXPECT_NEAR(remote / (local + remote), 0.5, 1e-6);
}

TEST(Numa, CustomRemoteFractionRespected) {
  MachineConfig cfg = quiet();
  cfg.remote_miss_fraction = 0.25;  // first-touch-ish placement
  const PhaseProgram p = mem_program();
  SimMachine m(cfg, p);
  m.advance(5.0);
  const auto local = static_cast<double>(m.tor_inserts_local());
  const auto remote = static_cast<double>(m.tor_inserts_remote());
  EXPECT_NEAR(remote / (local + remote), 0.25, 1e-6);
}

TEST(Numa, UmaskRegistersExposeTheSplit) {
  const PhaseProgram p = mem_program();
  SimMachine m(quiet(), p);
  m.advance(2.0);
  uint64_t local = 0, remote = 0, aggregate = 0;
  ASSERT_TRUE(m.read(hal::msr::kTorInsertsMissLocal, local));
  ASSERT_TRUE(m.read(hal::msr::kTorInsertsMissRemote, remote));
  ASSERT_TRUE(m.read(hal::msr::kTorInsertsAggregate, aggregate));
  EXPECT_EQ(local + remote, aggregate);
}

TEST(Numa, PlatformTipiUsesBothUmasks) {
  // §3.1: TIPI = (MISS_LOCAL + MISS_REMOTE) / INST_RETIRED.
  const PhaseProgram p = mem_program();
  SimMachine m(quiet(), p);
  SimPlatform platform(m);
  m.advance(3.0);
  const hal::SensorSample sample = platform.sample_sensors().sample;
  const double tipi = static_cast<double>(sample.tor_inserts()) /
                      static_cast<double>(sample.instructions);
  EXPECT_NEAR(tipi, 0.08, 1e-6);
}

TEST(Numa, RemoteMissesCostMoreEnergy) {
  MachineConfig local_cfg = quiet();
  local_cfg.remote_miss_fraction = 0.0;
  MachineConfig remote_cfg = quiet();
  remote_cfg.remote_miss_fraction = 1.0;
  const PowerModel local_power(local_cfg);
  const PowerModel remote_power(remote_cfg);
  EXPECT_GT(remote_power.joules_per_miss(), local_power.joules_per_miss());
  EXPECT_GT(remote_power.traffic_watts(1e9),
            local_power.traffic_watts(1e9));
}

TEST(Numa, BlendedMissEnergyMatchesPreviousCalibration) {
  // The interleaved blend must stay at the calibrated 18 nJ/miss so the
  // Fig. 10 energy numbers remain locked.
  const MachineConfig cfg = quiet();
  const PowerModel power(cfg);
  EXPECT_NEAR(power.joules_per_miss() * 1e9, 18.0, 1e-9);
}

}  // namespace
}  // namespace cuttlefish::sim
