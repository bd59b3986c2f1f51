// Session lifecycle: stop-then-restart cycles, move semantics,
// daemon_cpu validation, and region re-arming on a live daemon thread
// (the concurrency surface the TSan job exercises).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <thread>

#include "core/api.hpp"
#include "core/controller.hpp"
#include "core/region.hpp"
#include "core/session.hpp"
#include "core/trace.hpp"
#include "exp/calibrate.hpp"
#include "exp/realtime.hpp"
#include "sim/machine_config.hpp"
#include "workloads/suite.hpp"

namespace cuttlefish {
namespace {

/// Point every hardware probe at empty trees so auto-selection
/// deterministically degrades to the "none" backend regardless of host.
class DegradedBackendEnv : public ::testing::Test {
 protected:
  void SetUp() override {
    unsetenv("CUTTLEFISH_BACKEND");
    setenv("CUTTLEFISH_MSR_ROOT", "/nonexistent/msr", 1);
    setenv("CUTTLEFISH_POWERCAP_ROOT", "/nonexistent/powercap", 1);
    setenv("CUTTLEFISH_CPUFREQ_ROOT", "/nonexistent/cpufreq", 1);
  }
  void TearDown() override {
    unsetenv("CUTTLEFISH_MSR_ROOT");
    unsetenv("CUTTLEFISH_POWERCAP_ROOT");
    unsetenv("CUTTLEFISH_CPUFREQ_ROOT");
  }

  Options fast_options() {
    Options options;
    options.controller.tinv_s = 0.001;
    options.controller.warmup_s = 0.0;
    options.daemon_cpu = -1;
    return options;
  }
};

using SessionLifecycle = DegradedBackendEnv;

TEST_F(SessionLifecycle, ShimStopThenRestartCycles) {
  for (int cycle = 0; cycle < 3; ++cycle) {
    ASSERT_TRUE(cuttlefish::start(fast_options())) << "cycle " << cycle;
    EXPECT_TRUE(cuttlefish::active());
    EXPECT_EQ(cuttlefish::session_backend(), "none");
    EXPECT_FALSE(cuttlefish::start(fast_options()));  // double start
    cuttlefish::stop();
    EXPECT_FALSE(cuttlefish::active());
    EXPECT_EQ(cuttlefish::session_controller(), nullptr);
  }
}

TEST_F(SessionLifecycle, SequentialSessionObjects) {
  for (int cycle = 0; cycle < 3; ++cycle) {
    Session session{fast_options()};
    ASSERT_TRUE(session.active());
    EXPECT_EQ(session.backend(), "none");
    ASSERT_NE(session.controller(), nullptr);
    EXPECT_EQ(session.controller()->effective_policy(),
              core::PolicyKind::kMonitor);
    EXPECT_TRUE(session.degraded());
    session.stop();
    EXPECT_FALSE(session.active());
    EXPECT_EQ(session.backend(), "");
    EXPECT_EQ(session.controller(), nullptr);
    session.stop();  // idempotent
  }
}

TEST_F(SessionLifecycle, MoveSemantics) {
  Session a{fast_options()};
  ASSERT_TRUE(a.active());

  Session b(std::move(a));
  EXPECT_TRUE(b.active());
  EXPECT_FALSE(a.active());  // NOLINT(bugprone-use-after-move): pinned

  Session c;
  EXPECT_FALSE(c.active());
  c = std::move(b);
  EXPECT_TRUE(c.active());
  EXPECT_EQ(c.backend(), "none");
  c.stop();
  EXPECT_FALSE(c.active());
}

TEST_F(SessionLifecycle, DefaultConstructedSessionIsInertEverywhere) {
  Session session;
  EXPECT_FALSE(session.active());
  EXPECT_FALSE(session.degraded());
  EXPECT_EQ(session.controller(), nullptr);
  EXPECT_EQ(session.backend(), "");
  EXPECT_FALSE(session.enter_region("x"));
  session.exit_region("x");
  session.tick();
  session.stop();
  EXPECT_EQ(session.region_depth(), 0u);
  EXPECT_FALSE(session.save_profiles("/nonexistent/dir/profiles.json"));
  EXPECT_FALSE(session.load_profiles("/nonexistent/profiles.json"));
}

TEST_F(SessionLifecycle, SimBackendRunsWhenNamed) {
  Options options = fast_options();
  options.backend = "sim";
  {
    Session session{options};
    ASSERT_TRUE(session.active());
    EXPECT_EQ(session.backend(), "sim");
    EXPECT_FALSE(session.degraded());
    // Let the daemon tick the live, self-advancing simulator.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    session.stop();
    EXPECT_FALSE(session.active());
  }  // ~Session after stop(): the platform's thread is already joined
}

TEST_F(SessionLifecycle, OutOfRangeDaemonCpuFallsBackToUnpinned) {
  Options options = fast_options();
  options.daemon_cpu = 1 << 20;  // beyond any real host
  Session session{options};
  // The session must start and run anyway (warn + unpinned), not
  // silently fail its affinity call.
  ASSERT_TRUE(session.active());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  session.stop();
  EXPECT_FALSE(session.active());
}

TEST(SessionDaemon, RegionRearmAcrossLiveDaemon) {
  // The daemon re-arms between regions without thread teardown: repeated
  // enter/exit cycles against a running wall-clock daemon, with warm
  // starts from the second entry on. This is the session tier's
  // concurrency surface (exercised under TSan in CI).
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const auto& model = workloads::find_benchmark("Heat-irt");
  sim::PhaseProgram program = exp::build_calibrated(model, machine, 1);
  program.scale_instructions(30.0 / model.default_time_s);

  exp::RealtimeSimPlatform platform(machine, program, 20.0);
  platform.start();
  Options options;
  options.controller.tinv_s = 0.001;
  options.controller.warmup_s = 0.050;
  options.daemon_cpu = -1;
  core::DecisionTrace trace(65536);
  options.trace = &trace;
  Session session(platform, options);
  ASSERT_TRUE(session.active());

  constexpr int kEntries = 4;
  for (int entry = 0; entry < kEntries && !platform.workload_done();
       ++entry) {
    Region region(session, "heat-step");
    ASSERT_TRUE(region.entered());
    EXPECT_EQ(session.region_depth(), 1u);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_EQ(session.region_depth(), 0u);

  const auto profiles = session.region_profiles();
  ASSERT_EQ(profiles.size(), 1u);
  EXPECT_EQ(profiles[0].name, "heat-step");
  EXPECT_GE(profiles[0].entries, 1u);
  // Every entry after the first replays the cached profile.
  EXPECT_EQ(profiles[0].warm_starts, profiles[0].entries - 1);

  session.stop();
  EXPECT_FALSE(session.active());
  platform.stop();

  // The daemon kept one thread across all re-arms; the trace shows the
  // region lifecycle interleaved with live decisions.
  bool saw_enter = false;
  for (const core::TraceRecord& rec : trace.snapshot()) {
    if (rec.event == core::TraceEvent::kRegionEnter) saw_enter = true;
  }
  EXPECT_TRUE(saw_enter);
}

TEST(SessionDaemon, TickIsNoOpOnDaemonSessions) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const auto& model = workloads::find_benchmark("SOR-ws");
  sim::PhaseProgram program = exp::build_calibrated(model, machine, 1);
  program.scale_instructions(4.0 / model.default_time_s);
  exp::RealtimeSimPlatform platform(machine, program, 20.0);
  platform.start();
  Options options;
  options.controller.tinv_s = 0.001;
  options.controller.warmup_s = 0.0;
  options.daemon_cpu = -1;
  Session session(platform, options);
  ASSERT_TRUE(session.active());
  session.tick();  // daemon sessions ignore manual ticks
  session.stop();
  platform.stop();
}

}  // namespace
}  // namespace cuttlefish
