// The PR's acceptance pins (docs/FAULTS.md): a 100% persistent sensor
// failure degrades the controller to monitor mode and the run completes
// without crashing; a transient-only schedule (every burst healed within
// the in-call retry budget) produces a decision trace byte-identical to
// the fault-free run; quarantine of one actuator re-narrows the policy
// mid-flight and a heal re-widens it with a warm restart. All of it
// deterministic given the schedule seed.

#include <gtest/gtest.h>

#include "core/icontroller.hpp"
#include "core/trace.hpp"
#include "exp/driver.hpp"
#include "hal/fault_injection.hpp"
#include "sim/machine_config.hpp"
#include "sim/phase_workload.hpp"

namespace cuttlefish {
namespace {

using hal::Capability;
using hal::CapabilitySet;
using hal::FaultKind;
using hal::FaultSchedule;

sim::PhaseProgram two_slab_program() {
  sim::PhaseProgram p;
  for (int i = 0; i < 30; ++i) {
    p.add(6e9, 1.0, 0.02);  // compute-bound slab
    p.add(6e9, 1.3, 0.30);  // memory-bound slab
  }
  return p;
}

struct RunCapture {
  std::vector<core::TraceRecord> trace;
  std::vector<core::TickTelemetry> telemetry;
  core::ControllerStats stats;
  core::PolicyKind effective = core::PolicyKind::kFull;
  bool any_quarantine = false;
  bool safe_mode = false;
  hal::FaultStats faults;
  double machine_time_s = 0.0;
  double machine_energy_j = 0.0;
};

/// One full co-simulated run (warm-up + tick loop) of kFull against the
/// sim platform, optionally wrapped in a seeded fault injector.
RunCapture run_with_schedule(const FaultSchedule* schedule) {
  const sim::MachineConfig machine_cfg = sim::haswell_2650v3();
  const sim::PhaseProgram program = two_slab_program();
  exp::RunOptions options;
  options.seed = 7;
  options.faults = schedule;
  exp::Stepper stepper(machine_cfg, program, options);
  core::IController& controller =
      stepper.drive_policy(core::PolicyKind::kFull);
  core::DecisionTrace trace(1 << 16);
  controller.set_trace(&trace);
  RunCapture capture;
  controller.set_telemetry(&capture.telemetry);
  stepper.run();

  capture.trace = trace.snapshot();
  capture.stats = controller.stats();
  capture.effective = controller.effective_policy();
  capture.any_quarantine = controller.any_quarantine();
  capture.safe_mode = controller.safe_mode();
  if (stepper.faults() != nullptr) {
    capture.faults = stepper.faults()->fault_stats();
  }
  capture.machine_time_s = stepper.machine().now();
  capture.machine_energy_j = stepper.machine().energy_joules();
  return capture;
}

int events_with_aux(const RunCapture& capture, core::TraceEvent event,
                    uint32_t aux_bits) {
  int count = 0;
  for (const core::TraceRecord& rec : capture.trace) {
    if (rec.event == event && rec.aux == aux_bits) ++count;
  }
  return count;
}

TEST(FaultRecovery, PersistentSensorFailureDegradesToMonitorAndCompletes) {
  const FaultSchedule schedule = FaultSchedule::persistent_sensor_failure();
  const RunCapture capture = run_with_schedule(&schedule);

  // The run completed (no crash, no hang) with the controller re-narrowed
  // to monitor mode and the sensor stack quarantined.
  EXPECT_EQ(capture.effective, core::PolicyKind::kMonitor);
  EXPECT_TRUE(capture.any_quarantine);
  EXPECT_FALSE(capture.safe_mode);
  EXPECT_EQ(capture.stats.quarantines, 1u);
  EXPECT_EQ(capture.stats.recoveries, 0u);
  // quarantine_after failed ticks preceded the quarantine; after it the
  // probe backoff keeps the failure count far below the tick count.
  core::ControllerConfig cfg;
  EXPECT_GE(capture.stats.sensor_read_errors,
            static_cast<uint64_t>(cfg.resilience.quarantine_after));
  EXPECT_LT(capture.stats.sensor_read_errors, capture.stats.ticks / 2);
  EXPECT_EQ(events_with_aux(capture, core::TraceEvent::kCapabilityDegraded,
                            CapabilitySet::all_sensors().bits()),
            1);
  // Only begin()'s two pin-to-max writes ever landed.
  EXPECT_EQ(capture.stats.freq_writes, 2u);
  EXPECT_EQ(capture.telemetry.size(), 0u);
}

TEST(FaultRecovery, TransientScheduleIsByteIdenticalToFaultFree) {
  const RunCapture clean = run_with_schedule(nullptr);
  // Concentrate the bursts inside the run's operation range so the
  // schedule provably fires (assertion below).
  const FaultSchedule schedule = FaultSchedule::transient_only(
      /*seed=*/123, /*bursts=*/24, /*horizon_ops=*/700, /*retry_budget=*/2);
  const RunCapture faulted = run_with_schedule(&schedule);

  // Faults actually happened...
  EXPECT_GT(faulted.faults.total(), 0u);
  EXPECT_GT(faulted.stats.io_retries, 0u);
  // ...and were absorbed entirely by in-call retries: zero dropped ticks,
  // zero failed actuations, no quarantine.
  EXPECT_EQ(faulted.stats.sensor_read_errors, 0u);
  EXPECT_EQ(faulted.stats.actuator_write_errors, 0u);
  EXPECT_EQ(faulted.stats.quarantines, 0u);

  // The recovery contract: byte-identical decisions and telemetry, and
  // the simulated machine followed the exact same trajectory.
  EXPECT_EQ(faulted.trace, clean.trace);
  ASSERT_EQ(faulted.telemetry.size(), clean.telemetry.size());
  for (size_t i = 0; i < clean.telemetry.size(); ++i) {
    EXPECT_EQ(faulted.telemetry[i].cf_set, clean.telemetry[i].cf_set);
    EXPECT_EQ(faulted.telemetry[i].uf_set, clean.telemetry[i].uf_set);
    EXPECT_EQ(faulted.telemetry[i].slab, clean.telemetry[i].slab);
  }
  EXPECT_EQ(faulted.stats.freq_writes, clean.stats.freq_writes);
  EXPECT_EQ(faulted.stats.samples_recorded, clean.stats.samples_recorded);
  EXPECT_DOUBLE_EQ(faulted.machine_time_s, clean.machine_time_s);
  EXPECT_DOUBLE_EQ(faulted.machine_energy_j, clean.machine_energy_j);
}

TEST(FaultRecovery, ActuatorQuarantineRenarrowsThenHealsWithWarmRestart) {
  // Uncore ops 1..9 fail: three failed actuation attempts (one write +
  // two in-call retries each) cross the quarantine threshold; probe ops
  // from 10 on succeed, so the backoff probes heal the device.
  FaultSchedule schedule;
  schedule.add({FaultKind::kUncoreWriteError, 1, 9, 0});
  const RunCapture capture = run_with_schedule(&schedule);

  // Mid-flight re-narrowing kFull -> kCoreOnly, then the heal re-widened
  // it back: by run end the policy is kFull again with nothing in
  // quarantine.
  EXPECT_EQ(capture.stats.quarantines, 1u);
  EXPECT_EQ(capture.stats.recoveries, 1u);
  EXPECT_EQ(capture.effective, core::PolicyKind::kFull);
  EXPECT_FALSE(capture.any_quarantine);
  EXPECT_EQ(capture.stats.actuator_write_errors, 3u);
  const uint32_t uncore_bits =
      CapabilitySet{}.with(Capability::kUncoreUfs).bits();
  EXPECT_EQ(events_with_aux(capture, core::TraceEvent::kCapabilityDegraded,
                            uncore_bits),
            1);
  EXPECT_EQ(events_with_aux(capture, core::TraceEvent::kCapabilityRestored,
                            uncore_bits),
            1);
  // The restored event comes after the degraded one.
  uint64_t degraded_tick = 0, restored_tick = 0;
  for (const core::TraceRecord& rec : capture.trace) {
    if (rec.event == core::TraceEvent::kCapabilityDegraded &&
        rec.aux == uncore_bits) {
      degraded_tick = rec.tick;
    }
    if (rec.event == core::TraceEvent::kCapabilityRestored) {
      restored_tick = rec.tick;
    }
  }
  EXPECT_GT(restored_tick, degraded_tick);
  // Exploration still converged after the warm restart.
  EXPECT_GT(capture.stats.samples_recorded, 0u);
}

TEST(FaultRecovery, ChaosScheduleIsDeterministicGivenTheSeed) {
  const FaultSchedule schedule = FaultSchedule::chaos(/*seed=*/99,
                                                      /*horizon_ops=*/700);
  const RunCapture a = run_with_schedule(&schedule);
  const RunCapture b = run_with_schedule(&schedule);

  // Same seed, same everything — traces, telemetry, stats, injections.
  EXPECT_EQ(a.trace, b.trace);
  ASSERT_EQ(a.telemetry.size(), b.telemetry.size());
  EXPECT_EQ(a.stats.ticks, b.stats.ticks);
  EXPECT_EQ(a.stats.freq_writes, b.stats.freq_writes);
  EXPECT_EQ(a.stats.sensor_read_errors, b.stats.sensor_read_errors);
  EXPECT_EQ(a.stats.quarantines, b.stats.quarantines);
  EXPECT_EQ(a.stats.recoveries, b.stats.recoveries);
  EXPECT_EQ(a.faults.total(), b.faults.total());
  EXPECT_DOUBLE_EQ(a.machine_time_s, b.machine_time_s);
  EXPECT_DOUBLE_EQ(a.machine_energy_j, b.machine_energy_j);
  // And the chaos actually bit: value faults and errors both fired.
  EXPECT_GT(a.faults.total(), 0u);
}

}  // namespace
}  // namespace cuttlefish
