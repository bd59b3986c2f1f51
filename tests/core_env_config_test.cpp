#include "core/env_config.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

#include "core/icontroller.hpp"
#include "core/session.hpp"
#include "sim/machine_config.hpp"
#include "sim/sim_machine.hpp"
#include "sim/sim_platform.hpp"

namespace cuttlefish::core {
namespace {

/// RAII guard: sets an env var for the test and removes it afterwards.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    setenv(name, value, 1);
  }
  ~EnvGuard() { unsetenv(name_); }

 private:
  const char* name_;
};

TEST(EnvConfig, NoVariablesKeepsDefaults) {
  const ControllerConfig base;
  const ControllerConfig cfg = apply_env_overrides(base);
  EXPECT_EQ(cfg.policy, base.policy);
  EXPECT_DOUBLE_EQ(cfg.tinv_s, base.tinv_s);
  EXPECT_EQ(cfg.jpi_samples, base.jpi_samples);
  EXPECT_EQ(cfg.insertion_narrowing, base.insertion_narrowing);
}

TEST(EnvConfig, PolicyOverride) {
  EnvGuard g("CUTTLEFISH_POLICY", "uncore");
  EXPECT_EQ(apply_env_overrides({}).policy, PolicyKind::kUncoreOnly);
}

TEST(EnvConfig, PolicyAcceptsAllSpellings) {
  EXPECT_EQ(parse_policy("full"), PolicyKind::kFull);
  EXPECT_EQ(parse_policy("cuttlefish"), PolicyKind::kFull);
  EXPECT_EQ(parse_policy("core"), PolicyKind::kCoreOnly);
  EXPECT_EQ(parse_policy("Uncore"), PolicyKind::kUncoreOnly);
  EXPECT_FALSE(parse_policy("turbo").has_value());
}

TEST(EnvConfig, TinvMillisecondsConverted) {
  EnvGuard g("CUTTLEFISH_TINV_MS", "40");
  EXPECT_DOUBLE_EQ(apply_env_overrides({}).tinv_s, 0.040);
}

TEST(EnvConfig, MalformedTinvIgnoredWithDefaultKept) {
  EnvGuard g("CUTTLEFISH_TINV_MS", "fast");
  EXPECT_DOUBLE_EQ(apply_env_overrides({}).tinv_s,
                   ControllerConfig{}.tinv_s);
}

TEST(EnvConfig, NegativeTinvRejected) {
  EnvGuard g("CUTTLEFISH_TINV_MS", "-5");
  EXPECT_DOUBLE_EQ(apply_env_overrides({}).tinv_s,
                   ControllerConfig{}.tinv_s);
}

TEST(EnvConfig, TinvBelowOneMicrosecondRejected) {
  // Shorter quanta overflow the co-simulation's warm-up count (and at
  // 1e-17 ms its clock stops advancing): warn and keep the previous value.
  for (const char* tiny : {"1e-17", "0.0009", "4.9e-324"}) {
    EnvGuard g("CUTTLEFISH_TINV_MS", tiny);
    EXPECT_DOUBLE_EQ(apply_env_overrides({}).tinv_s,
                     ControllerConfig{}.tinv_s)
        << tiny;
    ControllerConfig previous;
    previous.tinv_s = 0.060;
    EXPECT_DOUBLE_EQ(apply_env_overrides(previous).tinv_s, 0.060) << tiny;
  }
  EnvGuard g("CUTTLEFISH_TINV_MS", "0.001");
  EXPECT_DOUBLE_EQ(apply_env_overrides({}).tinv_s, 1e-6);
}

TEST(EnvConfig, ZeroWarmupAccepted) {
  EnvGuard g("CUTTLEFISH_WARMUP_S", "0");
  EXPECT_DOUBLE_EQ(apply_env_overrides({}).warmup_s, 0.0);
}

TEST(EnvConfig, OptimizationSwitches) {
  EnvGuard g1("CUTTLEFISH_NARROWING", "0");
  EnvGuard g2("CUTTLEFISH_REVALIDATION", "off");
  const ControllerConfig cfg = apply_env_overrides({});
  EXPECT_FALSE(cfg.insertion_narrowing);
  EXPECT_FALSE(cfg.revalidation);
}

TEST(EnvConfig, BoolParser) {
  EXPECT_EQ(parse_bool("1"), true);
  EXPECT_EQ(parse_bool("on"), true);
  EXPECT_EQ(parse_bool("false"), false);
  EXPECT_FALSE(parse_bool("yes").has_value());
}

TEST(EnvConfig, SlabWidthAndSamples) {
  EnvGuard g1("CUTTLEFISH_SLAB_WIDTH", "0.008");
  EnvGuard g2("CUTTLEFISH_JPI_SAMPLES", "5");
  const ControllerConfig cfg = apply_env_overrides({});
  EXPECT_DOUBLE_EQ(cfg.tipi_slab_width, 0.008);
  EXPECT_EQ(cfg.jpi_samples, 5);
}

TEST(EnvConfig, PositiveDoubleParser) {
  EXPECT_EQ(parse_positive_double("2.5"), 2.5);
  EXPECT_FALSE(parse_positive_double("0").has_value());
  EXPECT_FALSE(parse_positive_double("2.5ms").has_value());
  EXPECT_FALSE(parse_positive_double("").has_value());
  EXPECT_FALSE(parse_positive_double("inf").has_value());
  EXPECT_FALSE(parse_positive_double("nan").has_value());
}

TEST(EnvConfig, IntInRangeParser) {
  EXPECT_EQ(parse_int_in_range("8", 1, 4096), 8);
  EXPECT_EQ(parse_int_in_range("8.0", 1, 4096), 8);
  EXPECT_EQ(parse_int_in_range("4096", 1, 4096), 4096);
  EXPECT_EQ(parse_int_in_range("0", 0, 5), 0);
  for (const char* bad :
       {"", "8x", "2.5", "0", "4097", "-1", "1e10", "-1e10", "inf", "nan"}) {
    EXPECT_FALSE(parse_int_in_range(bad, 1, 4096).has_value()) << bad;
  }
}

TEST(EnvConfig, JpiSamplesMustBeAWholeNumberInRange) {
  EXPECT_EQ(ControllerConfig{}.jpi_samples, 10);
  {
    EnvGuard g("CUTTLEFISH_JPI_SAMPLES", "1e6");
    EXPECT_EQ(apply_env_overrides({}).jpi_samples, 1000000);
  }
  // 1e10 used to be cast to int before any range check (UB: INT_MIN on
  // x86), which a controller then aborted on.
  for (const char* bad : {"1e10", "1000001", "2.5", "0", "-3", "inf", "nan"}) {
    EnvGuard g("CUTTLEFISH_JPI_SAMPLES", bad);
    EXPECT_EQ(apply_env_overrides({}).jpi_samples, 10) << bad;
  }
}

TEST(EnvConfig, DoublesMustBeFiniteAndDurationsBounded) {
  const ControllerConfig defaults;
  for (const char* bad : {"inf", "-inf", "nan"}) {
    EnvGuard g1("CUTTLEFISH_TINV_MS", bad);
    EnvGuard g2("CUTTLEFISH_WARMUP_S", bad);
    EnvGuard g3("CUTTLEFISH_SLAB_WIDTH", bad);
    const ControllerConfig cfg = apply_env_overrides({});
    EXPECT_DOUBLE_EQ(cfg.tinv_s, defaults.tinv_s) << bad;
    EXPECT_DOUBLE_EQ(cfg.warmup_s, defaults.warmup_s) << bad;
    EXPECT_DOUBLE_EQ(cfg.tipi_slab_width, defaults.tipi_slab_width) << bad;
  }
  // The daemon converts Tinv and the warm-up to int64 nanoseconds: both
  // stop at 1e9 s.
  {
    EnvGuard g1("CUTTLEFISH_TINV_MS", "1e12");
    EnvGuard g2("CUTTLEFISH_WARMUP_S", "1e9");
    const ControllerConfig cfg = apply_env_overrides({});
    EXPECT_DOUBLE_EQ(cfg.tinv_s, 1e9);
    EXPECT_DOUBLE_EQ(cfg.warmup_s, 1e9);
  }
  {
    EnvGuard g1("CUTTLEFISH_TINV_MS", "1e300");
    EnvGuard g2("CUTTLEFISH_WARMUP_S", "1.1e9");
    const ControllerConfig cfg = apply_env_overrides({});
    EXPECT_DOUBLE_EQ(cfg.tinv_s, defaults.tinv_s);
    EXPECT_DOUBLE_EQ(cfg.warmup_s, defaults.warmup_s);
  }
}

TEST(EnvConfig, AnUncountableWarmupPairKeepsTheCallersPair) {
  // Each value passes its own bound, but a co-simulation refuses a pair
  // whose warm-up count does not fit: the environment's pair is ignored
  // whole, with a warning, instead of aborting the host.
  const ControllerConfig defaults;
  ControllerConfig caller;
  caller.tinv_s = 0.060;
  caller.warmup_s = 3.0;
  const auto expect_kept = [&](const char* what) {
    ControllerConfig cfg = apply_env_overrides({});
    EXPECT_DOUBLE_EQ(cfg.tinv_s, defaults.tinv_s) << what;
    EXPECT_DOUBLE_EQ(cfg.warmup_s, defaults.warmup_s) << what;
    cfg = apply_env_overrides(caller);
    EXPECT_DOUBLE_EQ(cfg.tinv_s, caller.tinv_s) << what;
    EXPECT_DOUBLE_EQ(cfg.warmup_s, caller.warmup_s) << what;
  };
  {
    EnvGuard g("CUTTLEFISH_WARMUP_S", "1e9");  // 5e10 quanta at 20 ms
    EXPECT_FALSE(warmup_count_fits(defaults.tinv_s, 1e9));
    expect_kept("WARMUP_S=1e9");
  }
  {
    EnvGuard g1("CUTTLEFISH_TINV_MS", "0.001");
    EnvGuard g2("CUTTLEFISH_WARMUP_S", "1e6");  // 1e12 quanta
    expect_kept("TINV_MS=0.001 WARMUP_S=1e6");
  }
  EnvGuard g1("CUTTLEFISH_TINV_MS", "0.001");
  EnvGuard g2("CUTTLEFISH_WARMUP_S", "2");  // 2e6 quanta
  const ControllerConfig cfg = apply_env_overrides(caller);
  EXPECT_DOUBLE_EQ(cfg.tinv_s, 1e-6);
  EXPECT_DOUBLE_EQ(cfg.warmup_s, 2.0);
  EXPECT_TRUE(warmup_count_fits(cfg.tinv_s, cfg.warmup_s));
}

TEST(EnvConfig, UnrepresentableSamplesKeepAManualSessionAlive) {
  // The warn-and-keep contract end to end: a manual-tick session under
  // CUTTLEFISH_JPI_SAMPLES=1e10 starts with the default quota instead of
  // aborting the host on the controller's positivity assert.
  EnvGuard g("CUTTLEFISH_JPI_SAMPLES", "1e10");
  const sim::MachineConfig machine = sim::haswell_2650v3();
  sim::PhaseProgram program;
  program.add(1e9, 1.0, 0.02);
  sim::SimMachine sim_machine(machine, program, 1);
  sim::SimPlatform platform(sim_machine);
  Options options;
  options.manual_tick = true;
  Session session(platform, options);
  ASSERT_NE(session.controller(), nullptr);
  EXPECT_EQ(session.controller()->config().jpi_samples, 10);
  session.tick();
  session.tick();
}

// ---- CUTTLEFISH_ARBITER* ------------------------------------------------

TEST(ArbiterEnvConfig, NoVariablesDisabled) {
  const ArbiterEnvConfig cfg = apply_arbiter_env_overrides();
  EXPECT_FALSE(cfg.enabled());
  EXPECT_TRUE(cfg.plane_path.empty());
  EXPECT_DOUBLE_EQ(cfg.budget_w, 0.0);
  EXPECT_EQ(cfg.policy, arbiter::SharePolicy::kEqualShare);
  EXPECT_EQ(cfg.slots, 16);
}

TEST(ArbiterEnvConfig, PlanePathEnables) {
  EnvGuard g("CUTTLEFISH_ARBITER", "/dev/shm/cf-plane");
  const ArbiterEnvConfig cfg = apply_arbiter_env_overrides();
  EXPECT_TRUE(cfg.enabled());
  EXPECT_EQ(cfg.plane_path, "/dev/shm/cf-plane");
}

TEST(ArbiterEnvConfig, AllVariablesParsed) {
  EnvGuard g1("CUTTLEFISH_ARBITER", "/tmp/plane");
  EnvGuard g2("CUTTLEFISH_ARBITER_BUDGET_W", "142.5");
  EnvGuard g3("CUTTLEFISH_ARBITER_POLICY", "demand-weighted");
  EnvGuard g4("CUTTLEFISH_ARBITER_SLOTS", "32");
  const ArbiterEnvConfig cfg = apply_arbiter_env_overrides();
  EXPECT_EQ(cfg.plane_path, "/tmp/plane");
  EXPECT_DOUBLE_EQ(cfg.budget_w, 142.5);
  EXPECT_EQ(cfg.policy, arbiter::SharePolicy::kDemandWeighted);
  EXPECT_EQ(cfg.slots, 32);
}

TEST(ArbiterEnvConfig, MalformedBudgetIgnoredKeepsPrevious) {
  ArbiterEnvConfig base;
  base.budget_w = 99.0;
  {
    EnvGuard g("CUTTLEFISH_ARBITER_BUDGET_W", "plenty");
    EXPECT_DOUBLE_EQ(apply_arbiter_env_overrides(base).budget_w, 99.0);
  }
  {
    EnvGuard g("CUTTLEFISH_ARBITER_BUDGET_W", "-40");
    EXPECT_DOUBLE_EQ(apply_arbiter_env_overrides(base).budget_w, 99.0);
  }
}

TEST(ArbiterEnvConfig, MalformedPolicyIgnoredKeepsPrevious) {
  EnvGuard g("CUTTLEFISH_ARBITER_POLICY", "greedy");
  const ArbiterEnvConfig cfg = apply_arbiter_env_overrides();
  EXPECT_EQ(cfg.policy, arbiter::SharePolicy::kEqualShare);
}

TEST(ArbiterEnvConfig, MalformedSlotsIgnoredKeepsPrevious) {
  for (const char* bad :
       {"0", "-4", "4.5", "many", "5000", "8x", "1e10", "inf", "nan"}) {
    EnvGuard g("CUTTLEFISH_ARBITER_SLOTS", bad);
    EXPECT_EQ(apply_arbiter_env_overrides().slots, 16) << bad;
  }
}

TEST(ArbiterEnvConfig, SharePolicyParser) {
  EXPECT_EQ(parse_share_policy("equal"), arbiter::SharePolicy::kEqualShare);
  EXPECT_EQ(parse_share_policy("equal-share"),
            arbiter::SharePolicy::kEqualShare);
  EXPECT_EQ(parse_share_policy("demand"),
            arbiter::SharePolicy::kDemandWeighted);
  EXPECT_EQ(parse_share_policy("proportional"),
            arbiter::SharePolicy::kDemandWeighted);
  EXPECT_FALSE(parse_share_policy("turbo").has_value());
  EXPECT_FALSE(parse_share_policy("").has_value());
}

}  // namespace
}  // namespace cuttlefish::core
