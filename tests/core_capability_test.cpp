// Capability-aware controller degradation: a backend advertising less
// than the full contract must narrow the policy (core-only, single-slab,
// monitor) instead of refusing to run, record the loss in the decision
// trace, and — for the uncore-actuator case — make decisions identical to
// a Cuttlefish-Core run with the uncore pinned at its maximum.

#include <gtest/gtest.h>

#include "core/controller.hpp"
#include "core/trace.hpp"
#include "exp/driver.hpp"
#include "hal/backend.hpp"
#include "sim/machine_config.hpp"
#include "sim/phase_workload.hpp"

namespace cuttlefish {
namespace {

using hal::Capability;
using hal::CapabilitySet;

sim::PhaseProgram two_slab_program() {
  sim::PhaseProgram p;
  for (int i = 0; i < 30; ++i) {
    p.add(6e9, 1.0, 0.02);  // compute-bound slab
    p.add(6e9, 1.3, 0.30);  // memory-bound slab
  }
  return p;
}

struct RunCapture {
  std::vector<core::TickTelemetry> telemetry;
  std::vector<core::TraceRecord> trace;
  core::ControllerStats stats;
  core::PolicyKind effective = core::PolicyKind::kFull;
  bool degraded = false;
  size_t nodes = 0;
  std::vector<std::pair<int64_t, Level>> cf_opts;  // (slab, opt) per node
  FreqMHz final_uncore{0};
};

/// Drives one co-simulated run (warm-up + tick loop) of `policy` against
/// a sim platform filtered down to `allowed`.
RunCapture run_filtered(core::PolicyKind policy, CapabilitySet allowed) {
  const sim::MachineConfig machine_cfg = sim::haswell_2650v3();
  const sim::PhaseProgram program = two_slab_program();
  exp::RunOptions options;
  options.seed = 7;
  exp::Stepper stepper(machine_cfg, program, options);
  hal::CapabilityFilter platform(stepper.platform(), allowed);

  core::ControllerConfig cfg;
  cfg.policy = policy;
  core::Controller controller(platform, cfg);
  core::DecisionTrace trace(65536);
  controller.set_trace(&trace);
  RunCapture capture;
  controller.set_telemetry(&capture.telemetry);
  stepper.drive(controller);
  stepper.run();

  capture.trace = trace.snapshot();
  capture.stats = controller.stats();
  capture.effective = controller.effective_policy();
  capture.degraded = controller.degraded();
  capture.nodes = controller.list().size();
  for (const core::TipiNode* node = controller.list().head(); node != nullptr;
       node = node->next) {
    capture.cf_opts.emplace_back(node->slab, node->cf.opt);
  }
  capture.final_uncore = stepper.machine().uncore_frequency();
  return capture;
}

int degradation_events(const RunCapture& capture, uint32_t expected_bits) {
  int count = 0;
  for (const core::TraceRecord& rec : capture.trace) {
    if (rec.event != core::TraceEvent::kCapabilityDegraded) continue;
    if (rec.aux == expected_bits) ++count;
  }
  return count;
}

TEST(CapabilityDegradation, FullWithoutUncoreActuatorRunsCoreOnly) {
  const RunCapture degraded = run_filtered(
      core::PolicyKind::kFull,
      CapabilitySet::all().without(Capability::kUncoreUfs));
  const RunCapture reference =
      run_filtered(core::PolicyKind::kCoreOnly, CapabilitySet::all());

  EXPECT_EQ(degraded.effective, core::PolicyKind::kCoreOnly);
  EXPECT_TRUE(degraded.degraded);
  EXPECT_FALSE(reference.degraded);
  EXPECT_EQ(degradation_events(
                degraded, CapabilitySet{}.with(Capability::kUncoreUfs).bits()),
            1);

  // Decision-for-decision match with a core-only run whose uncore is
  // pinned at max: same tick count, same per-tick core frequency choices,
  // same discovered optima.
  ASSERT_EQ(degraded.telemetry.size(), reference.telemetry.size());
  for (size_t i = 0; i < degraded.telemetry.size(); ++i) {
    EXPECT_EQ(degraded.telemetry[i].cf_set, reference.telemetry[i].cf_set)
        << "tick " << i;
    EXPECT_EQ(degraded.telemetry[i].slab, reference.telemetry[i].slab)
        << "tick " << i;
  }
  EXPECT_EQ(degraded.cf_opts, reference.cf_opts);
  // Both machines ended with the uncore untouched at its maximum.
  const FreqMHz uncore_max = sim::haswell_2650v3().uncore_ladder.max();
  EXPECT_EQ(degraded.final_uncore, uncore_max);
  EXPECT_EQ(reference.final_uncore, uncore_max);
}

TEST(CapabilityDegradation, MissingTorCollapsesToSingleSlab) {
  const RunCapture capture = run_filtered(
      core::PolicyKind::kFull,
      CapabilitySet::all().without(Capability::kTorSensor));
  // TIPI reads zero every interval: one slab, still explored and actuated.
  EXPECT_EQ(capture.nodes, 1u);
  EXPECT_EQ(capture.effective, core::PolicyKind::kFull);
  EXPECT_TRUE(capture.degraded);
  EXPECT_EQ(degradation_events(
                capture, CapabilitySet{}.with(Capability::kTorSensor).bits()),
            1);
  EXPECT_GT(capture.stats.freq_writes, 0u);
}

TEST(CapabilityDegradation, SensorOnlyBackendRunsMonitor) {
  const RunCapture capture =
      run_filtered(core::PolicyKind::kFull, CapabilitySet::all_sensors());
  EXPECT_EQ(capture.effective, core::PolicyKind::kMonitor);
  EXPECT_TRUE(capture.degraded);
  // Profiling continues (TIPI list fills) but nothing is ever actuated.
  EXPECT_GE(capture.nodes, 2u);
  EXPECT_EQ(capture.stats.freq_writes, 0u);
  for (const auto& [slab, cf_opt] : capture.cf_opts) {
    EXPECT_EQ(cf_opt, kNoLevel);
  }
}

TEST(CapabilityDegradation, MissingJpiSensorsMeansMonitor) {
  const RunCapture capture = run_filtered(
      core::PolicyKind::kFull,
      CapabilitySet::all().without(Capability::kEnergySensor));
  EXPECT_EQ(capture.effective, core::PolicyKind::kMonitor);
  // Actuators are present, so begin() still pins both domains to max —
  // but monitor mode never explores beyond those two writes.
  EXPECT_EQ(capture.stats.freq_writes, 2u);
  EXPECT_EQ(capture.stats.samples_recorded, 0u);
  EXPECT_EQ(degradation_events(
                capture,
                CapabilitySet{}.with(Capability::kEnergySensor).bits()),
            1);
}

TEST(CapabilityDegradation, ExplicitCoreOnlyNeverSwitchesToUncore) {
  const RunCapture capture = run_filtered(
      core::PolicyKind::kCoreOnly,
      CapabilitySet::all().without(Capability::kCoreDvfs));
  // The uncore actuator is present, but the user asked for -Core: the
  // controller must drop to monitor, not start exploring the uncore.
  EXPECT_EQ(capture.effective, core::PolicyKind::kMonitor);
  EXPECT_TRUE(capture.degraded);
  EXPECT_EQ(capture.stats.samples_recorded, 0u);
  // Only begin()'s pin-to-max write on the remaining actuator.
  EXPECT_EQ(capture.stats.freq_writes, 1u);
  EXPECT_EQ(capture.final_uncore, sim::haswell_2650v3().uncore_ladder.max());
}

TEST(CapabilityDegradation, FullWithOnlyUncoreActuatorRunsUncoreOnly) {
  const RunCapture capture = run_filtered(
      core::PolicyKind::kFull,
      CapabilitySet::all().without(Capability::kCoreDvfs));
  EXPECT_EQ(capture.effective, core::PolicyKind::kUncoreOnly);
  EXPECT_TRUE(capture.degraded);
  EXPECT_GT(capture.stats.samples_recorded, 0u);
  EXPECT_EQ(degradation_events(
                capture, CapabilitySet{}.with(Capability::kCoreDvfs).bits()),
            1);
}

TEST(CapabilityDegradation, FullCapabilityRunIsNotDegraded) {
  const RunCapture capture =
      run_filtered(core::PolicyKind::kFull, CapabilitySet::all());
  EXPECT_EQ(capture.effective, core::PolicyKind::kFull);
  EXPECT_FALSE(capture.degraded);
  EXPECT_EQ(degradation_events(capture, 0), 0);
  for (const core::TraceRecord& rec : capture.trace) {
    EXPECT_NE(rec.event, core::TraceEvent::kCapabilityDegraded);
  }
}

TEST(CapabilityDegradation, ExplicitMonitorPolicyProfilesWithoutExploring) {
  const RunCapture capture =
      run_filtered(core::PolicyKind::kMonitor, CapabilitySet::all());
  EXPECT_EQ(capture.effective, core::PolicyKind::kMonitor);
  // Requested, not degraded-into: no capability events.
  EXPECT_FALSE(capture.degraded);
  EXPECT_GE(capture.nodes, 2u);
  // begin() pins both domains to max; after that no exploration writes.
  EXPECT_LE(capture.stats.freq_writes, 2u);
  EXPECT_EQ(capture.stats.samples_recorded, 0u);
}

}  // namespace
}  // namespace cuttlefish
