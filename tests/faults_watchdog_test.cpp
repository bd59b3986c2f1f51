// The daemon watchdog: tick-overrun detection with re-phasing skips,
// escalation to a safe stop after persistent overruns, exception
// containment with a bounded strike count, and a clean daemon shutdown
// after the controller has been parked in monitor mode.

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <thread>

#include "core/controller.hpp"
#include "core/daemon.hpp"
#include "core/trace.hpp"
#include "exp/realtime.hpp"
#include "hal/fault_injection.hpp"
#include "sim/machine_config.hpp"
#include "sim/phase_workload.hpp"

namespace cuttlefish {
namespace {

using hal::FaultKind;
using hal::FaultSchedule;

sim::PhaseProgram long_program() {
  sim::PhaseProgram p;
  p.add(1e14, 1.0, 0.02);  // far longer than any test's wall budget
  return p;
}

/// Forwards to an inner platform until `healthy_samples` reads have
/// happened, then every sample throws — the bus-hang failure mode the
/// watchdog's strike counter exists for.
class EventuallyThrowingPlatform final : public hal::PlatformInterface {
 public:
  EventuallyThrowingPlatform(hal::PlatformInterface& inner,
                             int healthy_samples)
      : inner_(&inner), healthy_left_(healthy_samples) {}

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
    return inner_->apply_core_frequency(f);
  }
  hal::IoOutcome apply_uncore_frequency(FreqMHz f) override {
    return inner_->apply_uncore_frequency(f);
  }
  hal::SampleOutcome sample_sensors() override {
    if (healthy_left_ <= 0) throw std::runtime_error("sensor bus hang");
    --healthy_left_;
    return inner_->sample_sensors();
  }

 private:
  hal::PlatformInterface* inner_;
  int healthy_left_;
};

bool wait_for(const std::function<bool()>& done, double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return done();
}

core::ControllerConfig fast_config() {
  core::ControllerConfig cfg;
  cfg.policy = core::PolicyKind::kFull;
  cfg.tinv_s = 0.002;
  cfg.warmup_s = 0.0;
  return cfg;
}

TEST(DaemonWatchdog, PersistentOverrunsRephaseThenSafeStop) {
  exp::RealtimeSimPlatform realtime(sim::haswell_2650v3(), long_program());
  // Every sample blocks 25 ms against a 2 ms tick budget: each tick
  // overruns, each overrun skips one interval, and the consecutive run
  // crosses the watchdog limit.
  FaultSchedule schedule;
  schedule.add({FaultKind::kLatencySpike, 0, 0, 25});
  hal::FaultInjectionPlatform faulty(realtime, schedule);

  core::ControllerConfig cfg = fast_config();
  cfg.watchdog_overrun_limit = 4;
  core::Daemon daemon(faulty, cfg, /*pin_cpu=*/-1);
  core::DecisionTrace trace(1 << 12);
  daemon.run_on_controller(
      [&](core::IController& c) { c.set_trace(&trace); });
  realtime.start();
  daemon.start();

  ASSERT_TRUE(wait_for([&] { return daemon.watchdog().safe_stopped; },
                       /*timeout_s=*/10.0));
  daemon.stop();
  realtime.stop();

  const core::WatchdogStats wd = daemon.watchdog();
  EXPECT_GE(wd.overruns, 4u);
  EXPECT_GE(wd.skipped_ticks, 1u);
  EXPECT_EQ(wd.exceptions, 0u);
  EXPECT_TRUE(daemon.controller().safe_mode());
  EXPECT_EQ(daemon.controller().effective_policy(),
            core::PolicyKind::kMonitor);

  // The lifecycle is visible in the decision trace: overruns first, one
  // terminal safe-stop record.
  int overrun_records = 0;
  int safe_stop_records = 0;
  for (const core::TraceRecord& rec : trace.snapshot()) {
    if (rec.event == core::TraceEvent::kTickOverrun) {
      ++overrun_records;
      EXPECT_GE(rec.aux, 20u);  // elapsed ms payload
    }
    if (rec.event == core::TraceEvent::kSafeStop) ++safe_stop_records;
  }
  EXPECT_GE(overrun_records, 4);
  EXPECT_EQ(safe_stop_records, 1);
}

TEST(DaemonWatchdog, RepeatedTickExceptionsSafeStopTheController) {
  exp::RealtimeSimPlatform realtime(sim::haswell_2650v3(), long_program());
  // begin() and the first ticks sample cleanly, then the bus "hangs".
  EventuallyThrowingPlatform flaky(realtime, /*healthy_samples=*/3);

  core::ControllerConfig cfg = fast_config();
  cfg.watchdog_exception_limit = 3;
  core::Daemon daemon(flaky, cfg, /*pin_cpu=*/-1);
  realtime.start();
  daemon.start();

  ASSERT_TRUE(wait_for([&] { return daemon.watchdog().safe_stopped; },
                       /*timeout_s=*/10.0));

  // The parked daemon keeps running and serving commands: ticks continue
  // (idle, monitor-mode) and run_on_controller still round-trips.
  uint64_t ticks_at_stop = 0;
  daemon.run_on_controller([&](core::IController& c) {
    ticks_at_stop = c.stats().ticks;
  });
  uint64_t ticks_later = 0;
  ASSERT_TRUE(wait_for(
      [&] {
        daemon.run_on_controller(
            [&](core::IController& c) { ticks_later = c.stats().ticks; });
        return ticks_later > ticks_at_stop;
      },
      /*timeout_s=*/10.0));

  daemon.stop();
  realtime.stop();

  EXPECT_GE(daemon.watchdog().exceptions, 3u);
  EXPECT_TRUE(daemon.controller().safe_mode());
  EXPECT_EQ(daemon.controller().effective_policy(),
            core::PolicyKind::kMonitor);
}

TEST(DaemonWatchdog, BeginExceptionSafeStopsImmediately) {
  exp::RealtimeSimPlatform realtime(sim::haswell_2650v3(), long_program());
  EventuallyThrowingPlatform broken(realtime, /*healthy_samples=*/0);

  core::Daemon daemon(broken, fast_config(), /*pin_cpu=*/-1);
  daemon.start();
  ASSERT_TRUE(wait_for([&] { return daemon.watchdog().safe_stopped; },
                       /*timeout_s=*/10.0));
  daemon.stop();

  EXPECT_GE(daemon.watchdog().exceptions, 1u);
  EXPECT_TRUE(daemon.controller().safe_mode());
}

TEST(DaemonWatchdog, CleanRunKeepsTheWatchdogQuiet) {
  exp::RealtimeSimPlatform realtime(sim::haswell_2650v3(), long_program());
  // A roomy 20 ms budget so sanitizer-slowed ticks never look like
  // overruns.
  core::ControllerConfig cfg = fast_config();
  cfg.tinv_s = 0.02;
  core::Daemon daemon(realtime, cfg, /*pin_cpu=*/-1);
  realtime.start();
  daemon.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  daemon.stop();
  realtime.stop();

  const core::WatchdogStats wd = daemon.watchdog();
  EXPECT_FALSE(wd.safe_stopped);
  EXPECT_EQ(wd.exceptions, 0u);
  EXPECT_FALSE(daemon.controller().safe_mode());
  EXPECT_GT(daemon.controller().stats().ticks, 0u);
}

}  // namespace
}  // namespace cuttlefish
