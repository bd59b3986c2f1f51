// System-wide invariants checked across full co-simulated runs: these are
// the properties §§4.3-4.5 rely on implicitly. Violations would not
// necessarily fail the outcome tests (savings could still look fine), so
// they are asserted directly, every tick, over a multi-slab workload.

#include <gtest/gtest.h>

#include <map>

#include "core/controller.hpp"
#include "exp/calibrate.hpp"
#include "exp/driver.hpp"
#include "sim/machine_config.hpp"
#include "workloads/suite.hpp"

namespace cuttlefish {
namespace {

struct WindowSnapshot {
  Level cf_lb, cf_rb, cf_opt;
  Level uf_lb, uf_rb, uf_opt;
  bool uf_set;
};

class InvariantHarness {
 public:
  explicit InvariantHarness(const std::string& benchmark, uint64_t seed,
                            core::PolicyKind policy = core::PolicyKind::kFull)
      : machine_cfg_(sim::haswell_2650v3()),
        program_(exp::build_calibrated(
            workloads::find_benchmark(benchmark), machine_cfg_, seed)),
        stepper_(machine_cfg_, program_, run_options(seed)) {
    core::ControllerConfig cfg;
    cfg.policy = policy;
    controller_ = std::make_unique<core::Controller>(stepper_.platform(), cfg);
    stepper_.drive(*controller_);
  }

  /// Runs to completion, checking invariants after every tick. Returns
  /// the number of ticks executed.
  int run_checked() {
    int ticks = 0;
    stepper_.start();
    while (stepper_.running()) {
      stepper_.step();
      ++ticks;
      check_invariants();
    }
    return ticks;
  }

  const core::Controller& controller() const { return *controller_; }

 private:
  void check_invariants() {
    EXPECT_TRUE(controller_->list().check_invariants());
    for (const core::TipiNode* n = controller_->list().head(); n != nullptr;
         n = n->next) {
      check_node(*n);
    }
    check_monotone_order();
  }

  void check_node(const core::TipiNode& n) {
    // Windows never invert; opts lie inside their final window.
    if (n.cf.window_set) {
      ASSERT_LE(n.cf.lb, n.cf.rb) << "slab " << n.slab;
      if (n.cf.complete()) {
        ASSERT_GE(n.cf.opt, n.cf.lb - 1) << "slab " << n.slab;
        ASSERT_LE(n.cf.opt, n.cf.rb + 1) << "slab " << n.slab;
      }
    }
    if (n.uf.window_set) {
      ASSERT_LE(n.uf.lb, n.uf.rb) << "slab " << n.slab;
    }
    // UF exploration only starts once CFopt exists (Full policy).
    if (n.uf.window_set && controller_->config().policy ==
                               core::PolicyKind::kFull) {
      ASSERT_TRUE(n.cf.complete()) << "slab " << n.slab;
    }
    // Windows only shrink tick-over-tick.
    auto it = last_.find(n.slab);
    if (it != last_.end()) {
      const WindowSnapshot& prev = it->second;
      if (n.cf.window_set && prev.cf_opt == kNoLevel) {
        ASSERT_GE(n.cf.lb, prev.cf_lb) << "slab " << n.slab;
        ASSERT_LE(n.cf.rb, prev.cf_rb) << "slab " << n.slab;
      }
      if (n.uf.window_set && prev.uf_set && prev.uf_opt == kNoLevel) {
        ASSERT_GE(n.uf.lb, prev.uf_lb) << "slab " << n.slab;
        ASSERT_LE(n.uf.rb, prev.uf_rb) << "slab " << n.slab;
      }
      // Discovered optima are immutable.
      if (prev.cf_opt != kNoLevel) {
        ASSERT_EQ(n.cf.opt, prev.cf_opt) << "slab " << n.slab;
      }
      if (prev.uf_opt != kNoLevel) {
        ASSERT_EQ(n.uf.opt, prev.uf_opt) << "slab " << n.slab;
      }
    }
    last_[n.slab] = WindowSnapshot{
        n.cf.window_set ? n.cf.lb : kNoLevel,
        n.cf.window_set ? n.cf.rb : kNoLevel,
        n.cf.opt,
        n.uf.window_set ? n.uf.lb : kNoLevel,
        n.uf.window_set ? n.uf.rb : kNoLevel,
        n.uf.opt,
        n.uf.window_set};
  }

  void check_monotone_order() {
    // §4.4's premise: left-to-right = compute-bound to memory-bound, so
    // resolved CFopts never increase and UFopts never decrease along the
    // list. Collapsed/propagated nodes must respect it too.
    Level prev_cf = 99;
    Level prev_uf = -1;
    for (const core::TipiNode* n = controller_->list().head(); n != nullptr;
         n = n->next) {
      if (n->cf.complete()) {
        ASSERT_LE(n->cf.opt, prev_cf) << "slab " << n->slab;
        prev_cf = n->cf.opt;
      }
      if (n->uf.complete()) {
        ASSERT_GE(n->uf.opt, prev_uf) << "slab " << n->slab;
        prev_uf = n->uf.opt;
      }
    }
  }

  static exp::RunOptions run_options(uint64_t seed) {
    exp::RunOptions options;
    options.seed = seed;
    return options;
  }

  sim::MachineConfig machine_cfg_;
  sim::PhaseProgram program_;
  exp::Stepper stepper_;
  std::unique_ptr<core::Controller> controller_;
  std::map<int64_t, WindowSnapshot> last_;
};

TEST(Invariants, HoldAcrossAmgFullRun) {
  InvariantHarness harness("AMG", 21);
  const int ticks = harness.run_checked();
  EXPECT_GT(ticks, 1000);
}

TEST(Invariants, HoldAcrossMiniFeFullRun) {
  InvariantHarness harness("MiniFE", 22);
  harness.run_checked();
}

TEST(Invariants, HoldAcrossHeatWsUncoreOnlyRun) {
  InvariantHarness harness("Heat-ws", 23, core::PolicyKind::kUncoreOnly);
  harness.run_checked();
  // UncoreOnly: no CF windows are ever created.
  for (const core::TipiNode* n = harness.controller().list().head();
       n != nullptr; n = n->next) {
    EXPECT_FALSE(n->cf.window_set);
  }
}

TEST(Invariants, SteadyStateStopsWritingMsrs) {
  // After every frequent slab has both optima, the controller should
  // issue frequency writes only at slab transitions — no flapping.
  const sim::MachineConfig machine_cfg = sim::haswell_2650v3();
  sim::PhaseProgram p;
  p.add(2.5e12, 1.2, 0.066);  // single memory-bound slab
  exp::RunOptions options;
  options.seed = 3;
  exp::Stepper stepper(machine_cfg, p, options);
  const core::IController& controller =
      stepper.drive_policy(options.controller.policy);
  stepper.start();
  uint64_t writes_at_steady = 0;
  bool steady = false;
  while (stepper.running()) {
    stepper.step();
    const core::TipiNode* n = controller.list().head();
    if (!steady && n != nullptr && n->cf.complete() && n->uf.complete()) {
      steady = true;
      writes_at_steady = controller.stats().freq_writes;
    }
  }
  ASSERT_TRUE(steady);
  EXPECT_EQ(controller.stats().freq_writes, writes_at_steady);
}

}  // namespace
}  // namespace cuttlefish
