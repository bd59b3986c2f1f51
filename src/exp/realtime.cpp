#include "exp/realtime.hpp"

#include <chrono>

namespace cuttlefish::exp {

RealtimeSimPlatform::RealtimeSimPlatform(const sim::MachineConfig& cfg,
                                         const sim::PhaseProgram& program,
                                         double rate, uint64_t seed)
    : program_(program),
      machine_(cfg, program_, seed),
      platform_(machine_),
      rate_(rate) {}

RealtimeSimPlatform::~RealtimeSimPlatform() { stop(); }

void RealtimeSimPlatform::start() {
  if (running_.load()) return;
  running_.store(true);
  thread_ = std::thread([this] { advance_loop(); });
}

void RealtimeSimPlatform::stop() {
  // The advance thread clears running_ itself when the workload ends, so
  // join unconditionally: a joinable-but-finished thread still needs it.
  running_.store(false);
  if (thread_.joinable()) thread_.join();
}

void RealtimeSimPlatform::advance_loop() {
  using clock = std::chrono::steady_clock;
  auto last = clock::now();
  while (running_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const auto now = clock::now();
    const double wall_dt =
        std::chrono::duration<double>(now - last).count();
    last = now;
    std::lock_guard<std::mutex> lock(mutex_);
    machine_.advance(wall_dt * rate_);
    if (machine_.workload_done()) {
      running_.store(false);
      return;
    }
  }
}

bool RealtimeSimPlatform::workload_done() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return machine_.workload_done();
}

RealtimeSimPlatform::Snapshot RealtimeSimPlatform::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot s;
  s.time_s = machine_.now();
  s.energy_j = machine_.energy_joules();
  s.instructions = machine_.instructions_retired();
  s.cf = machine_.core_frequency();
  s.uf = machine_.uncore_frequency();
  return s;
}

const FreqLadder& RealtimeSimPlatform::core_ladder() const {
  return machine_.config().core_ladder;
}

const FreqLadder& RealtimeSimPlatform::uncore_ladder() const {
  return machine_.config().uncore_ladder;
}

FreqMHz RealtimeSimPlatform::core_frequency() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return platform_.core_frequency();
}

FreqMHz RealtimeSimPlatform::uncore_frequency() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return platform_.uncore_frequency();
}

hal::IoOutcome RealtimeSimPlatform::apply_core_frequency(FreqMHz f) {
  std::lock_guard<std::mutex> lock(mutex_);
  return platform_.apply_core_frequency(f);
}

hal::IoOutcome RealtimeSimPlatform::apply_uncore_frequency(FreqMHz f) {
  std::lock_guard<std::mutex> lock(mutex_);
  return platform_.apply_uncore_frequency(f);
}

hal::SampleOutcome RealtimeSimPlatform::sample_sensors() {
  std::lock_guard<std::mutex> lock(mutex_);
  return platform_.sample_sensors();
}

}  // namespace cuttlefish::exp
