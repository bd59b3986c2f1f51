#include "exp/driver.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <utility>

#include "core/controller.hpp"
#include "core/controller_factory.hpp"
#include "core/session.hpp"
#include "core/trace.hpp"
#include "exp/calibrate.hpp"
#include "exp/metrics.hpp"
#include "sim/machine_config.hpp"
#include "workloads/suite.hpp"

namespace cuttlefish::exp {
namespace {

sim::PhaseProgram two_phase_program() {
  sim::PhaseProgram p;
  // TIPI values sit mid-slab (slabs 0 and 20): a value on a slab edge
  // would dither between neighbouring slabs through counter rounding.
  p.add(3e11, 0.7, 0.002);   // compute-bound opening
  p.add(3e11, 0.8, 0.082);   // memory-bound close
  return p;
}

class DriverTest : public ::testing::Test {
 protected:
  sim::MachineConfig machine = sim::haswell_2650v3();
};

TEST_F(DriverTest, DefaultRunIsDeterministicPerSeed) {
  const sim::PhaseProgram p = two_phase_program();
  RunOptions opt;
  opt.seed = 5;
  const RunResult a = run_default(machine, p, opt);
  const RunResult b = run_default(machine, p, opt);
  EXPECT_DOUBLE_EQ(a.time_s, b.time_s);
  EXPECT_DOUBLE_EQ(a.energy_j, b.energy_j);
}

TEST_F(DriverTest, SeedsChangeEnergyNotTime) {
  const sim::PhaseProgram p = two_phase_program();
  RunOptions a_opt;
  a_opt.seed = 1;
  RunOptions b_opt;
  b_opt.seed = 2;
  const RunResult a = run_default(machine, p, a_opt);
  const RunResult b = run_default(machine, p, b_opt);
  // Power noise perturbs measured energy but the perf model is
  // noise-free, so time is identical.
  EXPECT_DOUBLE_EQ(a.time_s, b.time_s);
  EXPECT_NE(a.energy_j, b.energy_j);
  EXPECT_NEAR(a.energy_j, b.energy_j, 0.01 * a.energy_j);
}

TEST_F(DriverTest, FixedMaxRunIsFasterOrEqualToAnyOtherFixedRun) {
  const sim::PhaseProgram p = two_phase_program();
  RunOptions opt;
  const RunResult fast = run_fixed(machine, p, machine.core_ladder.max(),
                                   machine.uncore_ladder.max(), opt);
  const RunResult slow = run_fixed(machine, p, machine.core_ladder.min(),
                                   machine.uncore_ladder.min(), opt);
  EXPECT_LE(fast.time_s, slow.time_s);
}

TEST_F(DriverTest, TimelineCoversWholeRun) {
  const sim::PhaseProgram p = two_phase_program();
  RunOptions opt;
  opt.capture_timeline = true;
  const RunResult r = run_default(machine, p, opt);
  ASSERT_FALSE(r.timeline.empty());
  EXPECT_NEAR(r.timeline.back().t, r.time_s, 0.021);
  for (size_t i = 1; i < r.timeline.size(); ++i) {
    EXPECT_GT(r.timeline[i].t, r.timeline[i - 1].t);
  }
}

TEST_F(DriverTest, PolicyRunReportsNodesAndStats) {
  const sim::PhaseProgram p = two_phase_program();
  RunOptions opt;
  const RunResult r =
      run_policy(machine, p, core::PolicyKind::kFull, opt);
  // The two phase slabs, plus possibly transient slabs from the ticks
  // that straddle the single phase boundary.
  EXPECT_GE(r.nodes.size(), 2u);
  EXPECT_LE(r.nodes.size(), 4u);
  uint64_t total_ticks = 0;
  uint64_t dominant_ticks = 0;
  for (const auto& n : r.nodes) {
    total_ticks += n.ticks;
    if (n.slab == 0 || n.slab == 20) dominant_ticks += n.ticks;
  }
  EXPECT_GT(r.stats.ticks, 0u);
  EXPECT_GT(r.stats.freq_writes, 0u);
  EXPECT_GT(total_ticks, 0u);
  // Transient slabs must be a negligible share.
  EXPECT_GT(static_cast<double>(dominant_ticks),
            0.99 * static_cast<double>(total_ticks));
}

TEST_F(DriverTest, InstructionsAccountedExactly) {
  const sim::PhaseProgram p = two_phase_program();
  RunOptions opt;
  const RunResult r = run_default(machine, p, opt);
  EXPECT_NEAR(static_cast<double>(r.instructions),
              p.total_instructions(), 4.0);
}

TEST_F(DriverTest, CalibrationConvergesForEveryBenchmark) {
  for (const auto& model : workloads::openmp_suite()) {
    sim::PhaseProgram program = model.build_program(11);
    calibrate_program(program, machine, model.default_time_s);
    RunOptions opt;
    const RunResult r = run_default(machine, program, opt);
    EXPECT_NEAR(r.time_s, model.default_time_s,
                0.005 * model.default_time_s)
        << model.name;
  }
}

TEST_F(DriverTest, CalibrationScalesInstructionsNotStructure) {
  const auto& model = workloads::find_benchmark("Heat-irt");
  sim::PhaseProgram raw = model.build_program(4);
  sim::PhaseProgram calibrated = model.build_program(4);
  calibrate_program(calibrated, machine, model.default_time_s);
  ASSERT_EQ(raw.segments().size(), calibrated.segments().size());
  const double ratio = calibrated.segments()[0].instructions /
                       raw.segments()[0].instructions;
  for (size_t i = 0; i < raw.segments().size(); ++i) {
    EXPECT_NEAR(calibrated.segments()[i].instructions /
                    raw.segments()[i].instructions,
                ratio, 1e-9);
    EXPECT_DOUBLE_EQ(calibrated.segments()[i].op.tipi,
                     raw.segments()[i].op.tipi);
  }
}

// --- the one co-simulation loop -------------------------------------------

/// Tinv values of the paper's Table 3 with the warm-up quanta that fit in
/// its 2 s; counting `t < warmup_s` instead gives 67 and 34 at 30 and
/// 60 ms.
constexpr std::pair<double, int> kWarmups[] = {
    {0.02, 100}, {0.03, 66}, {0.06, 33}};

/// Counts every call the controller makes through it.
class CountingPlatform final : public hal::PlatformInterface {
 public:
  explicit CountingPlatform(hal::PlatformInterface& inner) : inner_(&inner) {}

  hal::CapabilitySet capabilities() const override {
    return inner_->capabilities();
  }
  const FreqLadder& core_ladder() const override {
    return inner_->core_ladder();
  }
  const FreqLadder& uncore_ladder() const override {
    return inner_->uncore_ladder();
  }
  FreqMHz core_frequency() const override { return inner_->core_frequency(); }
  FreqMHz uncore_frequency() const override {
    return inner_->uncore_frequency();
  }
  hal::IoOutcome apply_core_frequency(FreqMHz f) override {
    ++calls;
    return inner_->apply_core_frequency(f);
  }
  hal::IoOutcome apply_uncore_frequency(FreqMHz f) override {
    ++calls;
    return inner_->apply_uncore_frequency(f);
  }
  hal::SampleOutcome sample_sensors() override {
    ++calls;
    return inner_->sample_sensors();
  }

  int calls = 0;

 private:
  hal::PlatformInterface* inner_;
};

void expect_same_stats(const core::ControllerStats& a,
                       const core::ControllerStats& b) {
  EXPECT_EQ(a.ticks, b.ticks);
  EXPECT_EQ(a.idle_ticks, b.idle_ticks);
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.samples_recorded, b.samples_recorded);
  EXPECT_EQ(a.freq_writes, b.freq_writes);
  EXPECT_EQ(a.nodes_inserted, b.nodes_inserted);
  EXPECT_EQ(a.sensor_read_errors, b.sensor_read_errors);
  EXPECT_EQ(a.actuator_write_errors, b.actuator_write_errors);
  EXPECT_EQ(a.io_retries, b.io_retries);
  EXPECT_EQ(a.quarantines, b.quarantines);
  EXPECT_EQ(a.recoveries, b.recoveries);
}

TEST(StepperDeathTest, WarmupCountMustFitAnInt) {
  // 1 µs, the shortest Tinv CUTTLEFISH_TINV_MS accepts, counts 2e6 quanta
  // over the paper's 2 s warm-up.
  EXPECT_EQ(Stepper::warmup_quanta_for(1e-6, 2.0), 2000000);
  // At 1e-20 s the accumulated time stops moving (t + Tinv == t) long
  // before 2 s, and at 1 ns the count passes INT_MAX: both are refused
  // with the pair named, instead of looping or overflowing.
  EXPECT_DEATH(Stepper::warmup_quanta_for(1e-20, 2.0),
               "Tinv 1e-20 s with warm-up 2 s");
  EXPECT_DEATH(Stepper::warmup_quanta_for(1e-9, 2.0),
               "Tinv 1e-09 s with warm-up 2 s");
  EXPECT_DEATH(Stepper::warmup_quanta_for(0.0, 2.0), "Tinv 0 s");
  EXPECT_DEATH(Stepper::warmup_quanta_for(1e-300, 0.0),
               "Tinv 1e-300 s with warm-up 0 s");
}

TEST_F(DriverTest, EveryDriverRunsTheSameWarmupQuanta) {
  const sim::PhaseProgram p = two_phase_program();
  for (const auto& [tinv, quanta] : kWarmups) {
    EXPECT_EQ(Stepper::warmup_quanta_for(tinv, 2.0), quanta);
    RunOptions opt;
    opt.controller.tinv_s = tinv;
    Options session_opt;
    session_opt.controller = opt.controller;
    for (int driver = 0; driver < 5; ++driver) {
      Stepper stepper(machine, p, opt);
      std::unique_ptr<core::IController> own;
      switch (driver) {
        case 0:  // nothing ticks: a fixed pair
          stepper.machine().set_core_frequency(machine.core_ladder.min());
          break;
        case 1:
          stepper.drive_default();
          break;
        case 2:
          stepper.drive_policy(core::PolicyKind::kFull);
          break;
        case 3:
          own = core::make_controller(stepper.platform(), opt.controller);
          stepper.drive(*own);
          break;
        default:
          stepper.drive_session(session_opt);
          break;
      }
      ASSERT_TRUE(stepper.start()) << "driver " << driver;
      EXPECT_EQ(stepper.warmup_quanta(), quanta)
          << "driver " << driver << " at " << tinv << " s";
      EXPECT_EQ(stepper.quanta(), quanta);
      EXPECT_TRUE(stepper.step());
      EXPECT_EQ(stepper.warmup_quanta(), quanta);
    }
  }
}

TEST_F(DriverTest, WorkloadEndingInWarmupIsNeverBegun) {
  sim::PhaseProgram p;
  p.add(1e9, 1.0, 0.05);  // tens of virtual ms: done inside the warm-up
  const RunOptions opt;

  // A controller built over the caller's own decorator: neither begin()'s
  // baseline and pin-to-max writes nor any tick reach the platform.
  {
    Stepper stepper(machine, p, opt);
    CountingPlatform counting(stepper.platform());
    core::Controller controller(counting, opt.controller);
    core::DecisionTrace trace(1024);
    controller.set_trace(&trace);
    stepper.drive(controller);
    const int calls_before = counting.calls;
    stepper.run();
    EXPECT_FALSE(stepper.running());
    EXPECT_LT(stepper.warmup_quanta(),
              Stepper::warmup_quanta_for(opt.controller.tinv_s,
                                         opt.controller.warmup_s));
    EXPECT_EQ(stepper.quanta(), stepper.warmup_quanta());
    EXPECT_EQ(counting.calls, calls_before);
    EXPECT_EQ(controller.stats().ticks, 0u);
    EXPECT_EQ(controller.stats().freq_writes, 0u);
    EXPECT_EQ(trace.total_recorded(), 0u);
  }
  // A manual-tick Session: its first tick (begin()) never comes either.
  {
    Stepper stepper(machine, p, opt);
    core::DecisionTrace trace(1024);
    Options session_opt;
    session_opt.trace = &trace;
    const Session& session = stepper.drive_session(session_opt);
    stepper.run();
    EXPECT_FALSE(stepper.running());
    EXPECT_EQ(stepper.quanta(), stepper.warmup_quanta());
    EXPECT_EQ(session.controller()->stats().ticks, 0u);
    EXPECT_EQ(session.controller()->stats().freq_writes, 0u);
    EXPECT_EQ(trace.total_recorded(), 0u);
  }
}

TEST_F(DriverTest, SessionDriverMatchesControllerDriverAtEveryTinv) {
  // A warm-up counted as `t < warmup_s` runs one quantum more than
  // run_policy at 30 and 60 ms and shifts every later decision; the
  // Session and controller drivers must agree at every Tinv.
  const sim::PhaseProgram program = build_calibrated(
      workloads::find_benchmark("HPCCG"), machine, 1);
  for (const auto& [tinv, quanta] : kWarmups) {
    RunOptions opt;
    opt.controller.tinv_s = tinv;
    core::DecisionTrace by_controller(1 << 16);
    core::DecisionTrace by_session(1 << 16);
    core::ControllerStats controller_stats;
    core::ControllerStats session_stats;
    {
      Stepper stepper(machine, program, opt);
      core::IController& c = stepper.drive_policy(opt.controller.policy);
      c.set_trace(&by_controller);
      stepper.run();
      controller_stats = c.stats();
    }
    {
      Stepper stepper(machine, program, opt);
      Options session_opt;
      session_opt.controller = opt.controller;
      session_opt.trace = &by_session;
      const Session& session = stepper.drive_session(session_opt);
      stepper.run();
      EXPECT_EQ(stepper.warmup_quanta(), quanta);
      session_stats = session.controller()->stats();
    }
    SCOPED_TRACE(tinv);
    EXPECT_GT(by_controller.total_recorded(), 0u);
    EXPECT_EQ(by_session.total_recorded(), by_controller.total_recorded());
    EXPECT_EQ(by_session.snapshot(), by_controller.snapshot());
    expect_same_stats(session_stats, controller_stats);
  }
}

// --- metrics -------------------------------------------------------------

TEST(Metrics, CompareComputesThePaperQuantities) {
  RunResult baseline;
  baseline.time_s = 100.0;
  baseline.energy_j = 1000.0;
  RunResult policy;
  policy.time_s = 104.0;
  policy.energy_j = 800.0;
  const Comparison c = compare(policy, baseline);
  EXPECT_NEAR(c.energy_savings_pct, 20.0, 1e-9);
  EXPECT_NEAR(c.slowdown_pct, 4.0, 1e-9);
  EXPECT_NEAR(c.edp_savings_pct, (1.0 - 0.8 * 1.04) * 100.0, 1e-9);
}

TEST(Metrics, GeomeanSavingsMatchesHandComputation) {
  // Ratios 0.8 and 0.9 -> geomean sqrt(0.72) -> savings 1 - 0.8485...
  const double got = geomean_savings_pct({20.0, 10.0});
  EXPECT_NEAR(got, (1.0 - std::sqrt(0.72)) * 100.0, 1e-9);
}

TEST(Metrics, GeomeanSlowdownMatchesHandComputation) {
  const double got = geomean_slowdown_pct({4.0, 1.0});
  EXPECT_NEAR(got, (std::sqrt(1.04 * 1.01) - 1.0) * 100.0, 1e-9);
}

TEST(Metrics, GeomeanHandlesNegativeSavings) {
  // Cuttlefish-Core on compute-bound benchmarks has negative savings;
  // the ratio form must handle them (ratio > 1).
  const double got = geomean_savings_pct({-10.0, 10.0});
  EXPECT_NEAR(got, (1.0 - std::sqrt(1.1 * 0.9)) * 100.0, 1e-9);
}

TEST(Metrics, AggregateMeanAndCi) {
  const Aggregate a = aggregate({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(a.mean, 2.0);
  EXPECT_GT(a.ci95, 0.0);
}

TEST(Metrics, EdpIsTimesEnergy) {
  RunResult r;
  r.time_s = 10.0;
  r.energy_j = 500.0;
  EXPECT_DOUBLE_EQ(r.edp(), 5000.0);
  EXPECT_DOUBLE_EQ(r.avg_power_w(), 50.0);
}

}  // namespace
}  // namespace cuttlefish::exp
