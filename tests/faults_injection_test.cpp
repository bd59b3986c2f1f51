// The fault-injection layer itself: schedules are deterministic given
// their seed, windows trigger on operation counts (not time), each
// FaultKind produces its documented behaviour through the decorator, and
// the DeviceHealth state machine walks
// healthy -> degraded -> quarantined -> healed with exponential probe
// backoff.

#include <gtest/gtest.h>

#include <cerrno>

#include "hal/fault_injection.hpp"
#include "hal/health.hpp"
#include "sim/machine_config.hpp"
#include "sim/phase_workload.hpp"
#include "sim/sim_machine.hpp"
#include "sim/sim_platform.hpp"

namespace cuttlefish {
namespace {

using hal::DeviceHealth;
using hal::FaultKind;
using hal::FaultSchedule;
using hal::FaultWindow;
using hal::RetryPolicy;

sim::PhaseProgram short_program() {
  sim::PhaseProgram p;
  for (int i = 0; i < 10; ++i) {
    p.add(6e9, 1.0, 0.02);
    p.add(6e9, 1.3, 0.30);
  }
  return p;
}

struct SimRig {
  // The machine's workload cursor points into the program, so the rig
  // must own it for the machine's lifetime.
  sim::PhaseProgram program;
  sim::SimMachine machine;
  sim::SimPlatform platform;
  explicit SimRig(uint64_t seed = 7)
      : program(short_program()),
        machine(sim::haswell_2650v3(), program, seed),
        platform(machine) {}
};

TEST(FaultSchedule, SameSeedSameSchedule) {
  const FaultSchedule a = FaultSchedule::transient_only(42);
  const FaultSchedule b = FaultSchedule::transient_only(42);
  ASSERT_EQ(a.windows().size(), b.windows().size());
  for (size_t i = 0; i < a.windows().size(); ++i) {
    EXPECT_EQ(a.windows()[i].kind, b.windows()[i].kind);
    EXPECT_EQ(a.windows()[i].start_op, b.windows()[i].start_op);
    EXPECT_EQ(a.windows()[i].duration_ops, b.windows()[i].duration_ops);
  }
  const FaultSchedule c = FaultSchedule::transient_only(43);
  bool differs = c.windows().size() != a.windows().size();
  for (size_t i = 0; !differs && i < a.windows().size(); ++i) {
    differs = c.windows()[i].start_op != a.windows()[i].start_op ||
              c.windows()[i].kind != a.windows()[i].kind;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultSchedule, WindowActivityIsOpIndexed) {
  const FaultWindow transient{FaultKind::kSensorError, 10, 3, 0};
  EXPECT_FALSE(transient.active(9));
  EXPECT_TRUE(transient.active(10));
  EXPECT_TRUE(transient.active(12));
  EXPECT_FALSE(transient.active(13));
  // duration 0 = persistent from start_op.
  const FaultWindow persistent{FaultKind::kSensorError, 5, 0, 0};
  EXPECT_FALSE(persistent.active(4));
  EXPECT_TRUE(persistent.active(5));
  EXPECT_TRUE(persistent.active(1'000'000));
}

TEST(FaultSchedule, TransientBurstsFitTheRetryBudget) {
  const FaultSchedule s = FaultSchedule::transient_only(
      123, /*bursts=*/24, /*horizon_ops=*/4096, /*retry_budget=*/2);
  RetryPolicy policy;
  for (const FaultWindow& w : s.windows()) {
    EXPECT_GE(w.duration_ops, 1u);
    EXPECT_LE(w.duration_ops, static_cast<uint64_t>(policy.max_retries));
  }
}

TEST(FaultInjection, SensorErrorReturnsFailureAndLastGoodSample) {
  SimRig rig;
  FaultSchedule schedule;
  schedule.add({FaultKind::kSensorError, 1, 2, 0});  // ops 1 and 2 fail
  hal::FaultInjectionPlatform faulty(rig.platform, schedule);

  const hal::SampleOutcome good = faulty.sample_sensors();  // op 0
  EXPECT_TRUE(good.io.ok());
  rig.machine.advance(0.1);
  const hal::SampleOutcome failed = faulty.sample_sensors();  // op 1
  EXPECT_TRUE(failed.io.failed());
  EXPECT_EQ(failed.io.error, EIO);
  // The failing read repeats the last good sample, not garbage.
  EXPECT_EQ(failed.sample.instructions, good.sample.instructions);
  const hal::SampleOutcome failed2 = faulty.sample_sensors();  // op 2
  EXPECT_TRUE(failed2.io.failed());
  const hal::SampleOutcome healed = faulty.sample_sensors();  // op 3
  EXPECT_TRUE(healed.io.ok());
  EXPECT_GT(healed.sample.instructions, good.sample.instructions);
  EXPECT_EQ(faulty.fault_stats().sensor_errors, 2u);
}

TEST(FaultInjection, StuckSensorClaimsSuccessWithStaleData) {
  SimRig rig;
  FaultSchedule schedule;
  schedule.add({FaultKind::kSensorStuck, 1, 1, 0});
  hal::FaultInjectionPlatform faulty(rig.platform, schedule);

  const hal::SampleOutcome good = faulty.sample_sensors();
  rig.machine.advance(0.1);
  const hal::SampleOutcome stuck = faulty.sample_sensors();
  // Silent data fault: success claimed, previous reading repeated.
  EXPECT_TRUE(stuck.io.ok());
  EXPECT_EQ(stuck.sample.instructions, good.sample.instructions);
  EXPECT_EQ(stuck.sample.energy_joules, good.sample.energy_joules);
  EXPECT_EQ(faulty.fault_stats().sensor_value_faults, 1u);
}

TEST(FaultInjection, OutlierScalesTorAndWrapRegressesEnergy) {
  SimRig rig;
  rig.machine.advance(0.1);
  FaultSchedule schedule;
  schedule.add({FaultKind::kSensorOutlier, 0, 1, 10});
  schedule.add({FaultKind::kSensorWrap, 1, 1, 50});
  hal::FaultInjectionPlatform faulty(rig.platform, schedule);

  const hal::SensorSample clean = rig.platform.sample_sensors().sample;
  const hal::SampleOutcome outlier = faulty.sample_sensors();  // op 0
  EXPECT_TRUE(outlier.io.ok());
  EXPECT_EQ(outlier.sample.tor_local, clean.tor_local * 10);
  const hal::SampleOutcome wrapped = faulty.sample_sensors();  // op 1
  EXPECT_TRUE(wrapped.io.ok());
  EXPECT_DOUBLE_EQ(wrapped.sample.energy_joules,
                   clean.energy_joules - 50.0);
  EXPECT_EQ(faulty.fault_stats().sensor_value_faults, 2u);
}

TEST(FaultInjection, ActuatorWindowsFailTheMatchingDomainOnly) {
  SimRig rig;
  FaultSchedule schedule;
  schedule.add({FaultKind::kCoreWriteError, 0, 1, 0});
  hal::FaultInjectionPlatform faulty(rig.platform, schedule);

  const FreqMHz cf = rig.platform.core_ladder().min();
  const FreqMHz uf = rig.platform.uncore_ladder().min();
  EXPECT_TRUE(faulty.apply_core_frequency(cf).failed());  // core op 0
  // The failed write never reached the machine.
  EXPECT_NE(rig.machine.core_frequency(), cf);
  EXPECT_TRUE(faulty.apply_uncore_frequency(uf).ok());  // uncore op 0
  EXPECT_EQ(rig.machine.uncore_frequency(), uf);
  EXPECT_TRUE(faulty.apply_core_frequency(cf).ok());  // core op 1
  EXPECT_EQ(rig.machine.core_frequency(), cf);
  EXPECT_EQ(faulty.fault_stats().actuator_errors, 1u);
}

TEST(DeviceHealthMachine, QuarantinesAfterConsecutiveFailures) {
  RetryPolicy policy;
  policy.quarantine_after = 3;
  DeviceHealth health(policy);
  EXPECT_EQ(health.state(), DeviceHealth::State::kHealthy);
  EXPECT_FALSE(health.record_failure(1));
  EXPECT_EQ(health.state(), DeviceHealth::State::kDegraded);
  EXPECT_FALSE(health.record_failure(2));
  // Third consecutive failure is the quarantine edge — exactly once true.
  EXPECT_TRUE(health.record_failure(3));
  EXPECT_TRUE(health.quarantined());
  EXPECT_FALSE(health.record_failure(100));  // already quarantined
  EXPECT_EQ(health.quarantines(), 1u);
}

TEST(DeviceHealthMachine, SuccessResetsTheFailureStreak) {
  RetryPolicy policy;
  policy.quarantine_after = 3;
  DeviceHealth health(policy);
  EXPECT_FALSE(health.record_failure(1));
  EXPECT_FALSE(health.record_failure(2));
  EXPECT_FALSE(health.record_success(3));  // streak broken
  EXPECT_EQ(health.state(), DeviceHealth::State::kHealthy);
  EXPECT_FALSE(health.record_failure(4));
  EXPECT_FALSE(health.record_failure(5));
  EXPECT_TRUE(health.record_failure(6));
}

TEST(DeviceHealthMachine, ProbeBackoffIsExponentialAndBounded) {
  RetryPolicy policy;
  policy.quarantine_after = 1;
  policy.backoff_start_ticks = 8;
  policy.backoff_max_ticks = 16;
  DeviceHealth health(policy);
  EXPECT_TRUE(health.record_failure(100));
  // First probe due backoff_start_ticks after quarantine.
  EXPECT_FALSE(health.should_probe(107));
  EXPECT_TRUE(health.should_probe(108));
  // A failed probe doubles the interval...
  health.record_failure(108);
  EXPECT_FALSE(health.should_probe(123));
  EXPECT_TRUE(health.should_probe(124));
  // ...and the doubling saturates at backoff_max_ticks.
  health.record_failure(124);
  EXPECT_FALSE(health.should_probe(139));
  EXPECT_TRUE(health.should_probe(140));
}

TEST(DeviceHealthMachine, HealsAfterConsecutiveProbeSuccesses) {
  RetryPolicy policy;
  policy.quarantine_after = 1;
  policy.heal_successes = 2;
  DeviceHealth health(policy);
  EXPECT_TRUE(health.record_failure(10));
  EXPECT_FALSE(health.record_success(18));  // 1 of 2
  EXPECT_TRUE(health.quarantined());
  // A prompt re-probe is scheduled rather than a full backoff wait.
  EXPECT_TRUE(health.should_probe(19));
  EXPECT_TRUE(health.record_success(19));  // heal edge
  EXPECT_EQ(health.state(), DeviceHealth::State::kHealthy);
  EXPECT_EQ(health.heals(), 1u);
  // A failed probe between successes restarts the heal streak.
  EXPECT_TRUE(health.record_failure(30));
  EXPECT_FALSE(health.record_success(38));
  health.record_failure(39);
  EXPECT_FALSE(health.record_success(60));
  EXPECT_TRUE(health.record_success(61));
}

TEST(FaultInjection, CapabilitiesAndLaddersPassThrough) {
  SimRig rig;
  hal::FaultInjectionPlatform faulty(rig.platform, FaultSchedule{});
  EXPECT_EQ(faulty.capabilities().bits(),
            rig.platform.capabilities().bits());
  EXPECT_EQ(&faulty.core_ladder(), &rig.platform.core_ladder());
  EXPECT_EQ(&faulty.uncore_ladder(), &rig.platform.uncore_ladder());
  // Empty schedule: a pure pass-through.
  EXPECT_TRUE(faulty.sample_sensors().io.ok());
  EXPECT_TRUE(
      faulty.apply_core_frequency(rig.platform.core_ladder().max()).ok());
  EXPECT_EQ(faulty.fault_stats().total(), 0u);
}

}  // namespace
}  // namespace cuttlefish
