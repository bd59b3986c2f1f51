// Acceptance pin for the batched-sampling rewrite: the controller issues
// exactly ONE sample_sensors() call per tick (and per begin/restore
// re-baseline) — on the simulator backend and on an MSR-stack backend,
// where one tick costs exactly the stack's three register reads.

#include <gtest/gtest.h>

#include <memory>

#include "core/controller.hpp"
#include "hal/backend.hpp"
#include "hal/linux_msr.hpp"
#include "sim/machine_config.hpp"
#include "sim/phase_workload.hpp"
#include "sim/sim_machine.hpp"
#include "sim/sim_platform.hpp"

namespace cuttlefish::core {
namespace {

sim::PhaseProgram long_program() {
  sim::PhaseProgram p;
  p.add(1e13, 1.0, 0.02);
  p.add(1e13, 1.2, 0.25);
  return p;
}

/// Counts sensor samples while forwarding everything.
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
    return inner_->apply_core_frequency(f);
  }
  hal::IoOutcome apply_uncore_frequency(FreqMHz f) override {
    return inner_->apply_uncore_frequency(f);
  }
  hal::SampleOutcome sample_sensors() override {
    ++sample_calls;
    return inner_->sample_sensors();
  }

  int sample_calls = 0;

 private:
  hal::PlatformInterface* inner_;
};

TEST(SampleBatching, SimBackendOneBatchedReadPerTick) {
  const sim::MachineConfig cfg = sim::haswell_2650v3();
  const sim::PhaseProgram program = long_program();
  sim::SimMachine machine(cfg, program);
  sim::SimPlatform platform(machine);
  CountingPlatform counting(platform);
  Controller controller(counting, ControllerConfig{});

  controller.begin();
  EXPECT_EQ(counting.sample_calls, 1);  // the begin() baseline
  const int ticks = 200;
  for (int i = 0; i < ticks; ++i) {
    machine.advance(controller.config().tinv_s);
    const int before = counting.sample_calls;
    controller.tick();
    EXPECT_EQ(counting.sample_calls, before + 1);
  }
  EXPECT_EQ(counting.sample_calls, 1 + ticks);
  EXPECT_GT(controller.stats().samples_recorded, 0u);

  // Re-baselining paths are batched too.
  controller.reset_exploration();
  EXPECT_EQ(counting.sample_calls, 2 + ticks);
}

/// Counting MsrDevice over the sim register map: stands in for a real
/// /dev/cpu/N/msr fd, where each read is one pread syscall.
class CountingMsrDevice final : public hal::MsrDevice {
 public:
  explicit CountingMsrDevice(hal::MsrDevice& inner) : inner_(&inner) {}
  bool read(uint32_t address, uint64_t& value) override {
    ++reads;
    return inner_->read(address, value);
  }
  bool write(uint32_t address, uint64_t value) override {
    return inner_->write(address, value);
  }
  int reads = 0;

 private:
  hal::MsrDevice* inner_;
};

TEST(SampleBatching, MsrBackendThreeRegisterReadsPerTick) {
  const sim::MachineConfig cfg = sim::haswell_2650v3();
  const sim::PhaseProgram program = long_program();
  sim::SimMachine machine(cfg, program);
  CountingMsrDevice device(machine);
  // Sensor-only MSR stack (read-only msr-safe shape): the controller
  // degrades to monitor but still samples every tick.
  hal::ComposedPlatform platform(
      std::make_unique<hal::MsrSensorStack>(device), nullptr, nullptr,
      cfg.core_ladder, cfg.uncore_ladder);
  CountingPlatform counting(platform);
  Controller controller(counting, ControllerConfig{});
  EXPECT_EQ(controller.effective_policy(), PolicyKind::kMonitor);

  controller.begin();
  device.reads = 0;
  const int ticks = 100;
  for (int i = 0; i < ticks; ++i) {
    machine.advance(controller.config().tinv_s);
    const int before = device.reads;
    controller.tick();
    // Exactly one batched sample = one pass over the three counters.
    EXPECT_EQ(device.reads, before + 3);
  }
  EXPECT_EQ(counting.sample_calls, 1 + ticks);  // begin() baseline + ticks
  EXPECT_EQ(device.reads, 3 * ticks);
}

}  // namespace
}  // namespace cuttlefish::core
