// Controller-factory seam tests (PR 8): the registry is complete and
// string round-trippable, the factory's Default controller is
// byte-identical to the pre-seam ladder controller (golden digests
// captured before the IController extraction), and capability narrowing
// flows through factory-built controllers of every kind.

#include "core/controller_factory.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "core/env_config.hpp"
#include "core/trace.hpp"
#include "exp/calibrate.hpp"
#include "exp/driver.hpp"
#include "exp/sweep.hpp"
#include "hal/backend.hpp"
#include "sim/machine_config.hpp"
#include "sim/sim_machine.hpp"
#include "sim/sim_platform.hpp"
#include "workloads/suite.hpp"

namespace cuttlefish {
namespace {

using core::PolicyKind;

const std::vector<PolicyKind> kAllKinds{
    PolicyKind::kFull, PolicyKind::kCoreOnly, PolicyKind::kUncoreOnly,
    PolicyKind::kMonitor, PolicyKind::kMpc};

// ---- registry ----------------------------------------------------------

TEST(PolicyRegistry, CoversEveryKindExactlyOnce) {
  const auto& registry = core::registered_policies();
  ASSERT_EQ(registry.size(), kAllKinds.size());
  std::set<PolicyKind> kinds;
  std::set<std::string> names, displays;
  for (const core::PolicyInfo& info : registry) {
    kinds.insert(info.kind);
    names.insert(info.name);
    displays.insert(info.display);
    EXPECT_STRNE(info.description, "");
    EXPECT_STRNE(info.requires_caps, "");
  }
  EXPECT_EQ(kinds.size(), kAllKinds.size());
  EXPECT_EQ(names.size(), kAllKinds.size());
  EXPECT_EQ(displays.size(), kAllKinds.size());
}

TEST(PolicyRegistry, NamesRoundTripThroughTheParser) {
  for (const core::PolicyInfo& info : core::registered_policies()) {
    // Canonical short name, the display name, and policy_name() all
    // resolve back to the same kind.
    const auto by_name = core::policy_kind_from_string(info.name);
    ASSERT_TRUE(by_name.has_value()) << info.name;
    EXPECT_EQ(*by_name, info.kind);
    const auto by_display = core::policy_kind_from_string(info.display);
    ASSERT_TRUE(by_display.has_value()) << info.display;
    EXPECT_EQ(*by_display, info.kind);
    EXPECT_STREQ(core::policy_name(info.kind), info.name);
    EXPECT_STREQ(core::to_string(info.kind), info.display);
  }
}

TEST(PolicyRegistry, LegacySpellingsStillParse) {
  EXPECT_EQ(core::policy_kind_from_string("cuttlefish"), PolicyKind::kFull);
  EXPECT_EQ(core::policy_kind_from_string("Full"), PolicyKind::kFull);
  EXPECT_EQ(core::policy_kind_from_string("Core"), PolicyKind::kCoreOnly);
  EXPECT_EQ(core::policy_kind_from_string("Uncore"),
            PolicyKind::kUncoreOnly);
  EXPECT_EQ(core::policy_kind_from_string("Monitor"), PolicyKind::kMonitor);
  EXPECT_EQ(core::policy_kind_from_string("MPC"), PolicyKind::kMpc);
  EXPECT_EQ(core::policy_kind_from_string("Mpc"), PolicyKind::kMpc);
}

TEST(PolicyRegistry, UnknownStringsAreRejected) {
  EXPECT_FALSE(core::policy_kind_from_string("").has_value());
  EXPECT_FALSE(core::policy_kind_from_string("bogus").has_value());
  EXPECT_FALSE(core::policy_kind_from_string("fullx").has_value());
  // The diagnostic list names every registered kind.
  const std::string names = core::known_policy_names();
  for (const core::PolicyInfo& info : core::registered_policies()) {
    EXPECT_NE(names.find(info.name), std::string::npos) << info.name;
  }
}

TEST(PolicyRegistry, EnvOverrideSelectsMpcAndRejectsGarbage) {
  core::ControllerConfig base;
  ::setenv("CUTTLEFISH_POLICY", "mpc", 1);
  EXPECT_EQ(core::apply_env_overrides(base).policy, PolicyKind::kMpc);
  // Malformed values keep the compiled-in policy (never break the host).
  ::setenv("CUTTLEFISH_POLICY", "not-a-policy", 1);
  EXPECT_EQ(core::apply_env_overrides(base).policy, base.policy);
  ::unsetenv("CUTTLEFISH_POLICY");
}

// ---- factory dispatch --------------------------------------------------

TEST(PolicyFactory, BuildsAControllerForEveryRegisteredKind) {
  const sim::MachineConfig machine_cfg = sim::haswell_2650v3();
  sim::PhaseProgram program;
  program.add(1e9, 1.0, 0.02);
  sim::SimMachine machine(machine_cfg, program, 1);
  sim::SimPlatform platform(machine);
  for (const core::PolicyInfo& info : core::registered_policies()) {
    const auto c = core::make_controller(info.kind, platform);
    ASSERT_NE(c, nullptr) << info.name;
    EXPECT_EQ(c->config().policy, info.kind);
    // Full-capability sim: nothing narrows, the kind survives as-is.
    EXPECT_EQ(c->effective_policy(), info.kind);
    EXPECT_FALSE(c->degraded());
  }
}

TEST(PolicyFactory, MpcNarrowsLikeTheLadderController) {
  const sim::MachineConfig machine_cfg = sim::haswell_2650v3();
  sim::PhaseProgram program;
  program.add(1e9, 1.0, 0.02);
  sim::SimMachine machine(machine_cfg, program, 1);
  sim::SimPlatform inner(machine);

  // Sensors only: nothing to actuate, MPC degrades to monitor.
  hal::CapabilityFilter sensors(inner, hal::CapabilitySet::all_sensors());
  const auto monitor = core::make_controller(PolicyKind::kMpc, sensors);
  EXPECT_EQ(monitor->effective_policy(), PolicyKind::kMonitor);
  EXPECT_TRUE(monitor->degraded());

  // One surviving actuator: the kind stays kMpc (per-domain decide()
  // gates on the capability), but the loss is flagged.
  const hal::CapabilitySet core_only =
      hal::CapabilitySet::all_sensors().with(hal::Capability::kCoreDvfs);
  hal::CapabilityFilter no_uncore(inner, core_only);
  const auto mpc = core::make_controller(PolicyKind::kMpc, no_uncore);
  EXPECT_EQ(mpc->effective_policy(), PolicyKind::kMpc);
  EXPECT_TRUE(mpc->degraded());
}

// ---- golden byte-identity ----------------------------------------------

// FNV-1a, matching the digest micro_sweep computes — the golden values
// below were captured from the pre-seam controller (before IController /
// the factory existed) and pin "zero behavioral drift" for Default.
struct Fnv {
  uint64_t h = 1469598103934665603ULL;
  void mix(const void* p, size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ULL;
    }
  }
  void d(double v) { mix(&v, sizeof(v)); }
  void u64(uint64_t v) { mix(&v, sizeof(v)); }
  void i64(int64_t v) { mix(&v, sizeof(v)); }
  void i32(int32_t v) { mix(&v, sizeof(v)); }
  void u32(uint32_t v) { mix(&v, sizeof(v)); }
};

TEST(PolicyGolden, Fig10SmokeGridIsByteIdenticalToPreSeamController) {
  // The Fig. 10 smoke grid (runs=2, seed0=1000): every policy point
  // flows through exp::run_policy -> make_controller now, so this digest
  // covers the whole factory-built Default/Core/Uncore decision stream.
  const sim::MachineConfig machine = sim::haswell_2650v3();
  exp::SweepGrid grid(machine);
  for (const auto& model : workloads::openmp_suite()) {
    const int base =
        grid.add_default(model.name + "/Default", model, {}, 2, 1000);
    for (const auto policy :
         {PolicyKind::kFull, PolicyKind::kCoreOnly,
          PolicyKind::kUncoreOnly}) {
      grid.add_policy(model.name + "/" + core::to_string(policy), model,
                      policy, {}, 2, 1000, base);
    }
  }
  const std::vector<exp::RunResult> results = exp::run_sweep(grid, nullptr);
  Fnv f;
  for (const auto& r : results) {
    f.d(r.time_s);
    f.d(r.energy_j);
    f.mix(&r.instructions, sizeof(r.instructions));
  }
  for (const auto& s : exp::summarize(grid, results)) {
    for (const exp::ValueAggregate* a :
         {&s.time_s, &s.energy_j, &s.edp, &s.energy_savings_pct,
          &s.slowdown_pct, &s.edp_savings_pct}) {
      f.d(a->mean);
      f.d(a->ci95);
      f.d(a->min);
      f.d(a->max);
    }
  }
  EXPECT_EQ(f.h, 0x9c95f06bc549e172ULL);
}

TEST(PolicyGolden, DefaultDecisionTraceIsByteIdenticalToPreSeamController) {
  // One kFull run (HPCCG, seed 1000) through the factory, stepped by
  // exp::run_policy's own loop with a trace sink attached. The digest
  // covers every TraceRecord field of every decision.
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const auto& model = workloads::find_benchmark("HPCCG");
  const sim::PhaseProgram program =
      exp::build_calibrated(model, machine, 1000);
  exp::RunOptions options;
  options.seed = 1000;
  exp::Stepper stepper(machine, program, options);
  core::DecisionTrace trace(1 << 20);
  stepper.drive_policy(PolicyKind::kFull).set_trace(&trace);
  stepper.run();

  EXPECT_EQ(trace.total_recorded(), 181u);
  Fnv f;
  f.u64(trace.total_recorded());
  for (const core::TraceRecord& r : trace.snapshot()) {
    f.u64(r.tick);
    f.i32(static_cast<int32_t>(r.event));
    f.i64(r.slab);
    f.i32(static_cast<int32_t>(r.domain));
    f.i32(r.lb);
    f.i32(r.rb);
    f.i32(r.level);
    f.u32(r.aux);
  }
  EXPECT_EQ(f.h, 0x682030dfbd08a59aULL);
}

TEST(PolicyGolden, FactoryDefaultMatchesDirectControllerExactly) {
  // Same run twice — once through the factory, once constructing the
  // ladder Controller directly: identical traces and stats, proving the
  // Default registration is the pre-seam class, not a lookalike.
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const auto& model = workloads::find_benchmark("MiniFE");
  const sim::PhaseProgram program = exp::build_calibrated(model, machine, 7);

  const auto run = [&](bool via_factory, core::DecisionTrace* trace,
                       core::ControllerStats* stats) {
    exp::RunOptions options;
    options.seed = 7;
    exp::Stepper stepper(machine, program, options);
    core::Controller direct(stepper.platform(), options.controller);
    core::IController* c = &direct;
    if (via_factory) {
      c = &stepper.drive_policy(options.controller.policy);
    } else {
      stepper.drive(direct);
    }
    c->set_trace(trace);
    stepper.run();
    *stats = c->stats();
  };

  core::DecisionTrace factory_trace(1 << 20), direct_trace(1 << 20);
  core::ControllerStats factory_stats, direct_stats;
  run(true, &factory_trace, &factory_stats);
  run(false, &direct_trace, &direct_stats);

  const auto a = factory_trace.snapshot();
  const auto b = direct_trace.snapshot();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tick, b[i].tick);
    EXPECT_EQ(a[i].event, b[i].event);
    EXPECT_EQ(a[i].slab, b[i].slab);
    EXPECT_EQ(a[i].level, b[i].level);
  }
  EXPECT_EQ(factory_stats.ticks, direct_stats.ticks);
  EXPECT_EQ(factory_stats.samples_recorded, direct_stats.samples_recorded);
  EXPECT_EQ(factory_stats.freq_writes, direct_stats.freq_writes);
  EXPECT_EQ(factory_stats.transitions, direct_stats.transitions);
}

}  // namespace
}  // namespace cuttlefish
