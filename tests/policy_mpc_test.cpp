// ControllerMpc tests: the plant-model optimum matches an exhaustive
// per-level argmin oracle over randomized calibrated programs, snapshots
// round-trip through the IController seam for every registered kind, a
// kMpc session warm-starts regions, and the MPC strategy degrades
// through fault injection exactly like the ladder controller.

#include "core/controller_mpc.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <random>
#include <vector>

#include "core/controller_factory.hpp"
#include "core/region.hpp"
#include "core/session.hpp"
#include "core/trace.hpp"
#include "exp/driver.hpp"
#include "hal/fault_injection.hpp"
#include "hal/platform.hpp"
#include "sim/machine_config.hpp"
#include "sim/phase_workload.hpp"

namespace cuttlefish {
namespace {

using core::PolicyKind;

// Scripted closed-loop platform (same shape as core_controller_test):
// the test owns the sensor stream and JPI is a function of the
// frequencies the controller set.
class ScriptedPlatform final : public hal::PlatformInterface {
 public:
  ScriptedPlatform()
      : core_(hypothetical_ladder()), uncore_(hypothetical_ladder()),
        cf_(core_.max()), uf_(uncore_.max()) {}

  const FreqLadder& core_ladder() const override { return core_; }
  const FreqLadder& uncore_ladder() const override { return uncore_; }
  FreqMHz core_frequency() const override { return cf_; }
  FreqMHz uncore_frequency() const override { return uf_; }
  hal::IoOutcome apply_core_frequency(FreqMHz f) override {
    cf_ = f;
    return hal::IoOutcome::success();
  }
  hal::IoOutcome apply_uncore_frequency(FreqMHz f) override {
    uf_ = f;
    return hal::IoOutcome::success();
  }
  hal::SampleOutcome sample_sensors() override { return {sample_, {}}; }

  void produce_tick(double tipi) {
    const double instr = 1e9;
    sample_.instructions += static_cast<uint64_t>(instr);
    sample_.tor_local += static_cast<uint64_t>(instr * tipi);
    sample_.energy_joules += jpi_model(core_.level_of(cf_),
                                       uncore_.level_of(uf_)) *
                             instr;
  }

  std::function<double(Level cf, Level uf)> jpi_model =
      [](Level, Level) { return 1.0; };

 private:
  FreqLadder core_;
  FreqLadder uncore_;
  FreqMHz cf_;
  FreqMHz uf_;
  hal::SensorSample sample_;
};

void run_ticks(ScriptedPlatform& p, core::IController& c, double tipi,
               int n) {
  for (int i = 0; i < n; ++i) {
    p.produce_tick(tipi);
    c.tick();
  }
}

/// The exhaustive oracle with MPC's tie-break: scan from the highest
/// level downward, strict '<', so ties keep the higher frequency.
Level argmin_level(const std::function<double(Level)>& f, Level max_level) {
  Level best = max_level;
  double best_v = f(max_level);
  for (Level l = max_level - 1; l >= 0; --l) {
    if (f(l) < best_v) {
      best_v = f(l);
      best = l;
    }
  }
  return best;
}

// ---- prediction vs exhaustive argmin -----------------------------------

TEST(MpcOracle, QuadraticPlantsResolveToTheExactArgmin) {
  // Separable quadratic plants are inside the model class, so the fit is
  // exact and the MPC optimum must equal the exhaustive per-level argmin
  // — fuzzed over random curvatures and (possibly out-of-range) centers.
  std::mt19937 rng(20210817);
  std::uniform_real_distribution<double> curve(0.02, 0.25);
  std::uniform_real_distribution<double> center(-2.0, 8.0);
  for (int trial = 0; trial < 25; ++trial) {
    const double ac = curve(rng), cc = center(rng);
    const double au = curve(rng), cu = center(rng);
    ScriptedPlatform p;
    p.jpi_model = [=](Level cf, Level uf) {
      return 1.0 + ac * (cf - cc) * (cf - cc) +
             au * (uf - cu) * (uf - cu);
    };
    core::ControllerConfig cfg;
    cfg.policy = PolicyKind::kMpc;
    const auto c = core::make_controller(p, cfg);
    c->begin();
    run_ticks(p, *c, 0.065, 400);

    const core::TipiNode* n = c->list().head();
    ASSERT_NE(n, nullptr) << "trial " << trial;
    ASSERT_TRUE(n->cf.complete()) << "trial " << trial;
    ASSERT_TRUE(n->uf.complete()) << "trial " << trial;
    const Level max_cf =
        static_cast<Level>(p.core_ladder().levels()) - 1;
    const Level max_uf =
        static_cast<Level>(p.uncore_ladder().levels()) - 1;
    // CF phase runs with the uncore pinned at max; UF with CF at its
    // optimum — mirror that in the oracle's cross-sections.
    const Level want_cf = argmin_level(
        [&](Level l) { return p.jpi_model(l, max_uf); }, max_cf);
    EXPECT_EQ(n->cf.opt, want_cf) << "trial " << trial;
    const Level want_uf = argmin_level(
        [&](Level l) { return p.jpi_model(want_cf, l); }, max_uf);
    EXPECT_EQ(n->uf.opt, want_uf) << "trial " << trial;
  }
}

TEST(MpcOracle, OffModelPlantsStayWithinTheVerifiedMargin) {
  // |x - c|^1.5 valleys are outside the quadratic model class; the
  // bounded verification probe must keep the settled optimum close to
  // the exhaustive minimum even when the fit is wrong.
  std::mt19937 rng(424242);
  std::uniform_real_distribution<double> gain(0.05, 0.3);
  std::uniform_real_distribution<double> center(0.0, 6.0);
  for (int trial = 0; trial < 15; ++trial) {
    const double ac = gain(rng), cc = center(rng);
    const double au = gain(rng), cu = center(rng);
    ScriptedPlatform p;
    p.jpi_model = [=](Level cf, Level uf) {
      return 1.0 + ac * std::pow(std::abs(cf - cc), 1.5) +
             au * std::pow(std::abs(uf - cu), 1.5);
    };
    core::ControllerConfig cfg;
    cfg.policy = PolicyKind::kMpc;
    const auto c = core::make_controller(p, cfg);
    c->begin();
    run_ticks(p, *c, 0.065, 400);

    const core::TipiNode* n = c->list().head();
    ASSERT_NE(n, nullptr);
    ASSERT_TRUE(n->cf.complete());
    ASSERT_TRUE(n->uf.complete());
    const Level max_cf =
        static_cast<Level>(p.core_ladder().levels()) - 1;
    const Level max_uf =
        static_cast<Level>(p.uncore_ladder().levels()) - 1;
    // Exhaustive coordinate-descent minimum over the full grid section.
    const Level best_cf = argmin_level(
        [&](Level l) { return p.jpi_model(l, max_uf); }, max_cf);
    const Level best_uf = argmin_level(
        [&](Level l) { return p.jpi_model(best_cf, l); }, max_uf);
    const double best = p.jpi_model(best_cf, best_uf);
    const double worst = p.jpi_model(
        argmin_level([&](Level l) { return -p.jpi_model(l, max_uf); },
                     max_cf),
        argmin_level([&](Level l) { return -p.jpi_model(best_cf, l); },
                     max_uf));
    const double got = p.jpi_model(n->cf.opt, n->uf.opt);
    EXPECT_LE(got, best + 0.05 * (worst - best))
        << "trial " << trial << " settled (" << n->cf.opt << ","
        << n->uf.opt << ") vs best (" << best_cf << "," << best_uf << ")";
  }
}

// ---- snapshot / restore through the seam -------------------------------

TEST(MpcSnapshot, RoundTripsForEveryRegisteredKind) {
  for (const core::PolicyInfo& info : core::registered_policies()) {
    ScriptedPlatform p;
    p.jpi_model = [](Level cf, Level uf) {
      return 3.0 - 0.1 * cf + 0.1 * uf;
    };
    const auto original = core::make_controller(info.kind, p);
    original->begin();
    run_ticks(p, *original, 0.065, 120);
    const core::ControllerSnapshot snap = original->snapshot();

    ScriptedPlatform q;
    const auto restored = core::make_controller(info.kind, q);
    restored->begin();
    ASSERT_TRUE(restored->restore(snap)) << info.name;
    EXPECT_EQ(restored->snapshot(), snap) << info.name;
  }
}

TEST(MpcSnapshot, WarmStartsFromALadderControllerSnapshot) {
  // Cross-strategy restore: MPC lazily re-arms whatever the snapshot
  // left unarmed, so a Default-produced profile is a valid warm start.
  ScriptedPlatform p;
  p.jpi_model = [](Level cf, Level uf) {
    return 3.0 - 0.2 * cf + 0.2 * uf;
  };
  const auto ladder = core::make_controller(PolicyKind::kFull, p);
  ladder->begin();
  run_ticks(p, *ladder, 0.065, 400);
  ASSERT_TRUE(ladder->list().head()->cf.complete());
  const core::ControllerSnapshot snap = ladder->snapshot();

  ScriptedPlatform q;
  q.jpi_model = p.jpi_model;
  const auto mpc = core::make_controller(PolicyKind::kMpc, q);
  mpc->begin();
  ASSERT_TRUE(mpc->restore(snap));
  run_ticks(q, *mpc, 0.065, 200);
  const core::TipiNode* n = mpc->list().head();
  ASSERT_NE(n, nullptr);
  // The restored optimum survives and the node stays (or completes)
  // resolved — no crash, no re-exploration from scratch.
  EXPECT_TRUE(n->cf.complete());
}

// ---- region warm start through a kMpc session --------------------------

TEST(MpcSession, RegionsWarmStartUnderMpc) {
  const sim::MachineConfig machine_cfg = sim::haswell_2650v3();
  sim::PhaseProgram program;
  for (int i = 0; i < 2; ++i) {
    program.add(1.5e12, 1.0, 0.025);  // one recurring kernel, one slab
  }
  exp::Stepper stepper(machine_cfg, program, exp::RunOptions{});
  Options options;
  options.controller.policy = PolicyKind::kMpc;
  Session& session = stepper.drive_session(options);
  stepper.start();

  const double half = program.total_instructions() / 2.0;
  const auto run_until = [&](double boundary) {
    while (stepper.running() &&
           static_cast<double>(stepper.machine().instructions_retired()) <
               boundary) {
      stepper.step();
    }
  };
  ASSERT_TRUE(session.enter_region("kernel"));
  run_until(half);
  session.exit_region("kernel");
  ASSERT_TRUE(session.enter_region("kernel"));
  run_until(program.total_instructions());
  session.exit_region("kernel");

  const auto profiles = session.region_profiles();
  ASSERT_EQ(profiles.size(), 1u);
  EXPECT_EQ(profiles[0].entries, 2u);
  EXPECT_EQ(profiles[0].warm_starts, 1u);
}

// ---- fault injection ---------------------------------------------------

struct FaultedRun {
  std::vector<core::TraceRecord> trace;
  core::ControllerStats stats;
  PolicyKind final_policy = PolicyKind::kMpc;
};

FaultedRun run_mpc_with_faults(const hal::FaultSchedule* schedule) {
  const sim::MachineConfig machine_cfg = sim::haswell_2650v3();
  sim::PhaseProgram program;
  for (int i = 0; i < 30; ++i) {
    program.add(6e9, 1.0, 0.02);
    program.add(6e9, 1.3, 0.30);
  }
  exp::RunOptions options;
  options.seed = 7;
  options.faults = schedule;
  exp::Stepper stepper(machine_cfg, program, options);
  core::IController& controller = stepper.drive_policy(PolicyKind::kMpc);
  core::DecisionTrace trace(1 << 16);
  controller.set_trace(&trace);
  stepper.run();
  FaultedRun out;
  out.trace = trace.snapshot();
  out.stats = controller.stats();
  out.final_policy = controller.effective_policy();
  return out;
}

TEST(MpcFaults, TransientSensorBlipLeavesDecisionsByteIdentical) {
  // A 2-op sensor outage fits the in-call retry budget: the decision
  // stream must match the fault-free run record for record, with only
  // io_retries recording that anything happened.
  hal::FaultSchedule schedule;
  schedule.add({hal::FaultKind::kSensorError, 60, 2, 0});
  const FaultedRun clean = run_mpc_with_faults(nullptr);
  const FaultedRun faulted = run_mpc_with_faults(&schedule);

  ASSERT_EQ(faulted.trace.size(), clean.trace.size());
  for (size_t i = 0; i < clean.trace.size(); ++i) {
    EXPECT_EQ(faulted.trace[i].tick, clean.trace[i].tick);
    EXPECT_EQ(faulted.trace[i].event, clean.trace[i].event);
    EXPECT_EQ(faulted.trace[i].slab, clean.trace[i].slab);
    EXPECT_EQ(faulted.trace[i].level, clean.trace[i].level);
  }
  EXPECT_EQ(faulted.stats.samples_recorded, clean.stats.samples_recorded);
  EXPECT_GT(faulted.stats.io_retries, 0u);
  EXPECT_EQ(faulted.stats.quarantines, 0u);
  EXPECT_EQ(faulted.final_policy, PolicyKind::kMpc);
}

TEST(MpcFaults, PersistentActuatorLossQuarantinesDownToMonitor) {
  // Both actuators die permanently: each write failure outlasts the
  // retry budget, the devices are quarantined, and the runtime policy
  // re-narrows kMpc -> kMonitor. The run must still complete sanely.
  hal::FaultSchedule schedule;
  schedule.add({hal::FaultKind::kCoreWriteError, 50, 0, 0});
  schedule.add({hal::FaultKind::kUncoreWriteError, 50, 0, 0});
  const FaultedRun run = run_mpc_with_faults(&schedule);

  EXPECT_GE(run.stats.quarantines, 2u);
  EXPECT_GT(run.stats.actuator_write_errors, 0u);
  EXPECT_EQ(run.final_policy, PolicyKind::kMonitor);
  EXPECT_GT(run.stats.ticks, 0u);
}

}  // namespace
}  // namespace cuttlefish
