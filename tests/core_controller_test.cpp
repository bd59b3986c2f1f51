// Controller (Algorithm 1) tests against a scripted platform: the test
// owns the sensor stream and models JPI as a function of the frequencies
// the controller sets, closing the loop without the full simulator.

#include "core/controller.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "hal/platform.hpp"

namespace cuttlefish::core {
namespace {

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
    ++cf_writes;
    return hal::IoOutcome::success();
  }
  hal::IoOutcome apply_uncore_frequency(FreqMHz f) override {
    uf_ = f;
    ++uf_writes;
    return hal::IoOutcome::success();
  }

  hal::SampleOutcome sample_sensors() override { return {sample_, {}}; }

  /// Advance the scripted counters by one interval at `tipi`; JPI comes
  /// from the installed model evaluated at the *current* frequencies.
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
  int cf_writes = 0;
  int uf_writes = 0;

 private:
  FreqLadder core_;
  FreqLadder uncore_;
  FreqMHz cf_;
  FreqMHz uf_;
  hal::SensorSample sample_;
};

ControllerConfig test_config(PolicyKind policy = PolicyKind::kFull) {
  ControllerConfig cfg;
  cfg.policy = policy;
  return cfg;
}

void run_ticks(ScriptedPlatform& p, Controller& c, double tipi, int n) {
  for (int i = 0; i < n; ++i) {
    p.produce_tick(tipi);
    c.tick();
  }
}

TEST(Controller, BeginPinsMaxFrequencies) {
  ScriptedPlatform p;
  p.apply_core_frequency(FreqMHz{1000});
  p.apply_uncore_frequency(FreqMHz{1000});
  Controller c(p, test_config());
  c.begin();
  EXPECT_EQ(p.core_frequency().value, 1600);
  EXPECT_EQ(p.uncore_frequency().value, 1600);
}

TEST(Controller, FirstTickInsertsNodeAndStartsCfExploration) {
  ScriptedPlatform p;
  Controller c(p, test_config());
  c.begin();
  run_ticks(p, c, 0.065, 1);
  EXPECT_EQ(c.list().size(), 1u);
  const TipiNode* n = c.list().head();
  EXPECT_EQ(n->slab, 16);
  EXPECT_TRUE(n->cf.window_set);
  EXPECT_FALSE(n->cf.complete());
  EXPECT_EQ(c.stats().nodes_inserted, 1u);
}

TEST(Controller, IdleTicksAreCountedAndSkipped) {
  ScriptedPlatform p;
  Controller c(p, test_config());
  c.begin();
  c.tick();  // no produce_tick -> zero instruction delta
  EXPECT_EQ(c.stats().idle_ticks, 1u);
  EXPECT_EQ(c.list().size(), 0u);
}

TEST(Controller, FullPolicyFindsComputeBoundOptima) {
  // JPI falls with CF and rises with UF: optimum (CFmax, UFmin), the
  // compute-bound pattern of §3.2.
  ScriptedPlatform p;
  p.jpi_model = [](Level cf, Level uf) {
    return 3.0 - 0.2 * cf + 0.2 * uf;
  };
  Controller c(p, test_config());
  c.begin();
  run_ticks(p, c, 0.002, 400);
  const TipiNode* n = c.list().head();
  ASSERT_NE(n, nullptr);
  ASSERT_TRUE(n->cf.complete());
  ASSERT_TRUE(n->uf.complete());
  EXPECT_EQ(n->cf.opt, 6);   // G
  EXPECT_LE(n->uf.opt, 1);   // A or B
  // Steady state: frequencies pinned at the optima.
  EXPECT_EQ(p.core_frequency().value, 1600);
  EXPECT_LE(p.uncore_frequency().value, 1100);
}

TEST(Controller, FullPolicyFindsMemoryBoundOptima) {
  // JPI rises with CF, falls with UF down to an interior valley at E.
  ScriptedPlatform p;
  p.jpi_model = [](Level cf, Level uf) {
    return 3.0 + 0.2 * cf + 0.15 * std::abs(static_cast<double>(uf) - 4.0);
  };
  Controller c(p, test_config());
  c.begin();
  run_ticks(p, c, 0.065, 400);
  const TipiNode* n = c.list().head();
  ASSERT_TRUE(n->cf.complete());
  ASSERT_TRUE(n->uf.complete());
  EXPECT_LE(n->cf.opt, 1);
  EXPECT_NEAR(n->uf.opt, 4, 1);
}

TEST(Controller, CfExplorationHoldsUncoreAtMax) {
  ScriptedPlatform p;
  p.jpi_model = [](Level cf, Level uf) {
    return 3.0 + 0.2 * cf + 0.1 * uf;
  };
  Controller c(p, test_config());
  c.begin();
  for (int i = 0; i < 50; ++i) {
    p.produce_tick(0.065);
    c.tick();
    const TipiNode* n = c.list().head();
    if (n != nullptr && !n->cf.complete()) {
      EXPECT_EQ(p.uncore_frequency().value, 1600);
    }
  }
}

TEST(Controller, CoreOnlyNeverMovesUncoreBelowMax) {
  ScriptedPlatform p;
  p.jpi_model = [](Level cf, Level uf) {
    return 3.0 + 0.2 * cf + 0.2 * uf;
  };
  Controller c(p, test_config(PolicyKind::kCoreOnly));
  c.begin();
  run_ticks(p, c, 0.065, 300);
  EXPECT_EQ(p.uncore_frequency().value, 1600);
  const TipiNode* n = c.list().head();
  ASSERT_TRUE(n->cf.complete());
  EXPECT_LE(n->cf.opt, 1);
  EXPECT_FALSE(n->uf.window_set);  // UF never explored
}

TEST(Controller, UncoreOnlyNeverMovesCoreBelowMax) {
  ScriptedPlatform p;
  p.jpi_model = [](Level cf, Level uf) {
    return 3.0 - 0.1 * cf + 0.2 * uf;
  };
  Controller c(p, test_config(PolicyKind::kUncoreOnly));
  c.begin();
  run_ticks(p, c, 0.065, 300);
  EXPECT_EQ(p.core_frequency().value, 1600);
  const TipiNode* n = c.list().head();
  ASSERT_TRUE(n->uf.complete());
  EXPECT_LE(n->uf.opt, 1);
  EXPECT_FALSE(n->cf.window_set);
}

TEST(Controller, TransitionTicksDiscardSamples) {
  ScriptedPlatform p;
  Controller c(p, test_config());
  c.begin();
  // Alternate slabs every tick: every sample spans a transition, so no
  // JPI ever accumulates and no exploration can conclude.
  for (int i = 0; i < 200; ++i) {
    p.produce_tick(i % 2 == 0 ? 0.002 : 0.065);
    c.tick();
  }
  EXPECT_EQ(c.stats().samples_recorded, 0u);
  for (const TipiNode* n = c.list().head(); n != nullptr; n = n->next) {
    EXPECT_FALSE(n->cf.complete());
  }
}

TEST(Controller, SecondSlabWindowIsNarrowedByFirst) {
  // Resolve slab 16 fully, then introduce a compute-bound slab 0: its CF
  // window must start at slab 16's CFopt rather than the ladder minimum
  // (Fig. 6(a)).
  ScriptedPlatform p;
  p.jpi_model = [](Level cf, Level uf) {
    return 3.0 + 0.2 * cf + 0.2 * uf;  // memory-bound: opt (A, A-ish)
  };
  Controller c(p, test_config());
  c.begin();
  run_ticks(p, c, 0.065, 400);
  const TipiNode* first = c.list().head();
  ASSERT_TRUE(first->cf.complete());
  const Level first_opt = first->cf.opt;

  p.jpi_model = [](Level cf, Level uf) {
    return 3.0 - 0.2 * cf + 0.2 * uf;
  };
  p.produce_tick(0.002);
  c.tick();
  const TipiNode* second = c.list().find(0);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->cf.lb, first_opt);
}

TEST(Controller, StatsCountWritesAndTransitions) {
  ScriptedPlatform p;
  Controller c(p, test_config());
  c.begin();
  run_ticks(p, c, 0.065, 30);
  p.produce_tick(0.002);
  c.tick();
  EXPECT_GE(c.stats().transitions, 2u);  // both discoveries transition
  EXPECT_GT(c.stats().freq_writes, 0u);
  EXPECT_EQ(c.stats().ticks, 31u);
}

TEST(Controller, TelemetryCapturesEveryProductiveTick) {
  ScriptedPlatform p;
  Controller c(p, test_config());
  std::vector<TickTelemetry> sink;
  c.set_telemetry(&sink);
  c.begin();
  run_ticks(p, c, 0.065, 25);
  ASSERT_EQ(sink.size(), 25u);
  EXPECT_EQ(sink.front().slab, 16);
  EXPECT_TRUE(sink.front().transition);
  EXPECT_FALSE(sink.back().transition);
}

TEST(Controller, RediscoveredSlabResumesExploration) {
  ScriptedPlatform p;
  p.jpi_model = [](Level cf, Level uf) {
    return 3.0 - 0.2 * cf + 0.2 * uf;
  };
  Controller c(p, test_config());
  c.begin();
  run_ticks(p, c, 0.002, 15);          // slab 0 mid-exploration
  run_ticks(p, c, 0.065, 5);           // interruption by another slab
  run_ticks(p, c, 0.002, 500);         // back to slab 0
  const TipiNode* n = c.list().find(0);
  ASSERT_NE(n, nullptr);
  EXPECT_TRUE(n->cf.complete());
  EXPECT_EQ(n->cf.opt, 6);
}

}  // namespace
}  // namespace cuttlefish::core
