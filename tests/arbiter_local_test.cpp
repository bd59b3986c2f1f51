// LocalArbiter slot-table semantics and the ArbitratedPlatform wrapper:
// grant-aware clamping, demand scale-up under a cap, grant-change events,
// and the byte-identity guarantee — an arbiter with headroom must not
// perturb a session at all.

#include <gtest/gtest.h>

#include <vector>

#include "arbiter/local_arbiter.hpp"
#include "exp/cotenant.hpp"
#include "exp/driver.hpp"
#include "hal/arbitrated.hpp"
#include "sim/machine_config.hpp"
#include "sim/phase_workload.hpp"
#include "sim/sim_machine.hpp"
#include "sim/sim_platform.hpp"

namespace cuttlefish {
namespace {

using arbiter::ArbiterConfig;
using arbiter::Demand;
using arbiter::Grant;
using arbiter::LocalArbiter;
using arbiter::SharePolicy;

sim::PhaseProgram short_program() {
  sim::PhaseProgram p;
  for (int i = 0; i < 8; ++i) {
    p.add(6e9, 1.0, 0.02);
    p.add(6e9, 1.3, 0.30);
  }
  return p;
}

TEST(LocalArbiterTest, AttachDetachLifecycle) {
  LocalArbiter arb(ArbiterConfig{100.0, SharePolicy::kEqualShare}, 2);
  const int a = arb.attach();
  const int b = arb.attach();
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(arb.attach(), -1);  // table full
  EXPECT_EQ(arb.active_tenants(), 2u);

  arb.detach(a);
  arb.detach(a);  // idempotent
  arb.detach(99);  // out of range ignored
  EXPECT_EQ(arb.active_tenants(), 1u);
  EXPECT_EQ(arb.attach(), 0);  // freed slot is reusable
}

TEST(LocalArbiterTest, SingleTenantCappedAtBudget) {
  LocalArbiter arb(ArbiterConfig{50.0, SharePolicy::kEqualShare}, 4);
  const int slot = arb.attach();
  Demand d;
  d.watts = 120.0;
  const Grant g = arb.publish(slot, d, 1);
  EXPECT_NEAR(g.watts, 50.0, 1e-9);
  EXPECT_TRUE(g.capped);

  d.watts = 30.0;  // under budget: echoed, uncapped
  const Grant g2 = arb.publish(slot, d, 2);
  EXPECT_NEAR(g2.watts, 30.0, 1e-9);
  EXPECT_FALSE(g2.capped);
}

TEST(LocalArbiterTest, DetachRedistributesToSurvivors) {
  LocalArbiter arb(ArbiterConfig{100.0, SharePolicy::kEqualShare}, 4);
  const int a = arb.attach();
  const int b = arb.attach();
  Demand d;
  d.watts = 90.0;
  (void)arb.publish(a, d, 1);
  const Grant shared = arb.publish(b, d, 1);
  EXPECT_NEAR(shared.watts, 50.0, 1e-9);
  EXPECT_TRUE(shared.capped);

  arb.detach(a);
  const Grant alone = arb.publish(b, d, 2);
  EXPECT_NEAR(alone.watts, 90.0, 1e-9);
  EXPECT_FALSE(alone.capped);
}

TEST(LocalArbiterTest, ViewMatchesTenantGrants) {
  LocalArbiter arb(ArbiterConfig{80.0, SharePolicy::kDemandWeighted}, 4);
  const int a = arb.attach();
  const int b = arb.attach();
  Demand da, db;
  da.watts = 120.0;
  db.watts = 40.0;  // 3:1 split of 80 -> 60 / 20
  // Before b publishes, its registered slot demands 0 and a takes the
  // whole budget; once both demands are in, the division is 60/20.
  const Grant early = arb.publish(a, da, 4);
  EXPECT_NEAR(early.watts, 80.0, 1e-9);
  const Grant gb = arb.publish(b, db, 5);
  const Grant ga = arb.publish(a, da, 5);
  EXPECT_NEAR(ga.watts, 60.0, 1e-9);
  EXPECT_NEAR(gb.watts, 20.0, 1e-9);

  const auto view = arb.view();
  ASSERT_EQ(view.size(), 2u);
  EXPECT_EQ(view[0].slot, a);
  EXPECT_EQ(view[0].tick, 5u);
  EXPECT_NEAR(view[0].demand.watts, 120.0, 1e-9);
  EXPECT_NEAR(view[0].grant.watts, ga.watts, 1e-9);
  EXPECT_NEAR(view[1].grant.watts, gb.watts, 1e-9);
}

// ---- ArbitratedPlatform -------------------------------------------------

struct SimRig {
  sim::PhaseProgram program;
  sim::SimMachine machine;
  sim::SimPlatform platform;
  explicit SimRig(uint64_t seed = 7)
      : program(short_program()),
        machine(sim::haswell_2650v3(), program, seed),
        platform(machine) {}
};

TEST(ArbitratedPlatformTest, AdvertisesArbitratedCapability) {
  SimRig rig;
  LocalArbiter arb(ArbiterConfig{100.0, SharePolicy::kEqualShare}, 4);
  hal::ArbitratedPlatform ap(rig.platform, arb, 0.02);
  EXPECT_TRUE(ap.capabilities().has(hal::Capability::kArbitrated));
  EXPECT_FALSE(
      rig.platform.capabilities().has(hal::Capability::kArbitrated));
  EXPECT_GE(ap.slot(), 0);
  EXPECT_EQ(arb.active_tenants(), 1u);
}

TEST(ArbitratedPlatformTest, DestructorDetachesSlot) {
  SimRig rig;
  LocalArbiter arb(ArbiterConfig{100.0, SharePolicy::kEqualShare}, 4);
  {
    hal::ArbitratedPlatform ap(rig.platform, arb, 0.02);
    EXPECT_EQ(arb.active_tenants(), 1u);
  }
  EXPECT_EQ(arb.active_tenants(), 0u);
}

TEST(ArbitratedPlatformTest, ClampsWritesToGrantAndReportsRequested) {
  SimRig rig;
  // Tight budget with a hungry neighbour: this session's share is far
  // below what the simulated Haswell draws flat out, so the cap binds.
  LocalArbiter arb(ArbiterConfig{60.0, SharePolicy::kEqualShare}, 4);
  const int neighbour = arb.attach();
  Demand heavy;
  heavy.watts = 200.0;
  (void)arb.publish(neighbour, heavy, 1);

  hal::ArbitratedPlatform ap(rig.platform, arb, 0.02);
  const FreqLadder& ladder = rig.platform.core_ladder();
  const FreqMHz max = ladder.at(ladder.max_level());
  EXPECT_TRUE(ap.apply_core_frequency(max).ok());

  // First sample is the baseline (zero demand); the second carries a real
  // energy delta and publishes the measured draw.
  rig.machine.advance(0.02);
  (void)ap.sample_sensors();
  rig.machine.advance(0.02);
  (void)ap.sample_sensors();

  ASSERT_TRUE(ap.grant().capped);
  EXPECT_LT(ap.grant().watts, 35.0);  // ~half of 60 W

  // The moved grant re-clamped the backend immediately; the controller
  // still sees its own requested frequency.
  EXPECT_LT(rig.platform.core_frequency(), max);
  EXPECT_EQ(ap.core_frequency(), max);
  EXPECT_EQ(ap.requested_core_frequency(), max);

  // Entering the cap is a revocation event.
  hal::ArbitratedPlatform::GrantChange change;
  ASSERT_TRUE(ap.poll_grant_change(&change));
  EXPECT_TRUE(change.revoked);
  EXPECT_NEAR(change.watts, ap.grant().watts, 1.0);
}

TEST(ArbitratedPlatformTest, HeadroomIsByteIdenticalPassthrough) {
  // With the neighbourless plane uncapped, every write passes through
  // untouched: the wrapped run's trajectory must equal the bare run's.
  SimRig bare(11);
  SimRig wrapped(11);
  LocalArbiter arb(ArbiterConfig{0.0, SharePolicy::kEqualShare}, 4);
  hal::ArbitratedPlatform ap(wrapped.platform, arb, 0.02);

  const FreqLadder& ladder = bare.platform.core_ladder();
  for (int tick = 0; tick < 50; ++tick) {
    const Level level = ladder.min_level() +
                        (tick % (ladder.max_level() - ladder.min_level() + 1));
    (void)bare.platform.apply_core_frequency(ladder.at(level));
    (void)ap.apply_core_frequency(ladder.at(level));
    bare.machine.advance(0.02);
    wrapped.machine.advance(0.02);
    const hal::SensorSample a = bare.platform.sample_sensors().sample;
    const hal::SensorSample b = ap.sample_sensors().sample;
    EXPECT_EQ(a.energy_joules, b.energy_joules) << "tick " << tick;
    EXPECT_EQ(a.instructions, b.instructions) << "tick " << tick;
  }
  EXPECT_FALSE(ap.grant().capped);
  hal::ArbitratedPlatform::GrantChange change;
  EXPECT_FALSE(ap.poll_grant_change(&change));
}

// ---- driver + co-tenant wiring -----------------------------------------

TEST(ArbiterDriverTest, UncappedArbiterDoesNotChangeResults) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const sim::PhaseProgram program = short_program();
  exp::RunOptions plain;
  exp::RunOptions arbitrated;
  arbitrated.arbiter.enabled = true;
  arbitrated.arbiter.budget_w = 0.0;  // registered but uncapped
  arbitrated.arbiter.tenants = 4;
  arbitrated.arbiter.tenant_index = 2;

  const exp::RunResult a =
      exp::run_policy(machine, program, core::PolicyKind::kFull, plain);
  const exp::RunResult b =
      exp::run_policy(machine, program, core::PolicyKind::kFull, arbitrated);
  EXPECT_EQ(a.time_s, b.time_s);
  EXPECT_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.instructions, b.instructions);
}

TEST(ArbiterDriverTest, BudgetCapSlowsTheRunDeterministically) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const sim::PhaseProgram program = short_program();
  exp::RunOptions capped;
  capped.arbiter.enabled = true;
  capped.arbiter.budget_w = 40.0;  // well under the uncapped draw

  const exp::RunResult free_run =
      exp::run_policy(machine, program, core::PolicyKind::kFull,
                      exp::RunOptions{});
  const exp::RunResult capped_run =
      exp::run_policy(machine, program, core::PolicyKind::kFull, capped);
  const exp::RunResult again =
      exp::run_policy(machine, program, core::PolicyKind::kFull, capped);

  EXPECT_GT(capped_run.time_s, free_run.time_s);
  EXPECT_EQ(capped_run.time_s, again.time_s);
  EXPECT_EQ(capped_run.energy_j, again.energy_j);
}

TEST(ArbiterCotenantTest, LockstepRunsAreDeterministic) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  std::vector<sim::PhaseProgram> programs;
  for (int i = 0; i < 2; ++i) programs.push_back(short_program());

  exp::CotenantOptions opt;
  opt.budget_w = 60.0;
  opt.arbitrated = true;
  const exp::CotenantResult a = exp::run_cotenants(machine, programs, opt);
  const exp::CotenantResult b = exp::run_cotenants(machine, programs, opt);
  EXPECT_EQ(a.node_time_s, b.node_time_s);
  EXPECT_EQ(a.node_energy_j, b.node_energy_j);
  ASSERT_EQ(a.tenants.size(), 2u);
  EXPECT_GT(a.tenants[0].grants + a.tenants[0].revocations, 0u);

  opt.arbitrated = false;
  const exp::CotenantResult c = exp::run_cotenants(machine, programs, opt);
  const exp::CotenantResult d = exp::run_cotenants(machine, programs, opt);
  EXPECT_EQ(c.node_time_s, d.node_time_s);
  EXPECT_EQ(c.node_energy_j, d.node_energy_j);
  EXPECT_GT(c.backstop_interventions, 0u);
}

}  // namespace
}  // namespace cuttlefish
