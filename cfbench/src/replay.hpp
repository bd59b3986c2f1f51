#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "exp/sweep.hpp"
#include "hal/platform.hpp"
#include "sim/phase_workload.hpp"
#include "trace.hpp"

/// The Fig. 10/11 grids, the pinned sweep digest, and a replay of
/// exp::run_spec built only from public calls, so the traced run can put a
/// span around each layer (exp, sim, core, hal) without touching the
/// library.
namespace cfbench {

namespace exp = cuttlefish::exp;

/// Full-grid digest of the Fig. 10 grid at seed base 1000, 10 seeds
/// (bench/micro_sweep.cpp's serial_digest; unchanged since the sweep
/// engine's hot-path rewrite).
inline constexpr uint64_t kFig10PinnedDigest = 0xd2bd3252a66d7fd8ULL;
inline constexpr uint64_t kFig10DefaultSeed = 1000;
inline constexpr int kGridSeeds = 10;

/// models x (Default + Cuttlefish, -Core, -Uncore) x `seeds`, each policy
/// point paired with its model's Default point (micro_sweep's layout).
exp::SweepGrid build_policy_grid(
    const std::vector<cuttlefish::workloads::BenchmarkModel>& suite,
    const cuttlefish::sim::MachineConfig& machine, int seeds, uint64_t seed0);

/// FNV-1a over every run's scalar results and every summary aggregate,
/// exactly as bench/micro_sweep.cpp computes its sweep digest.
uint64_t sweep_digest(const exp::SweepGrid& grid,
                      const std::vector<exp::RunResult>& results);
std::string digest_hex(uint64_t digest);

/// Geomean over models of the Cuttlefish (kFull) point's mean per-seed
/// energy savings and slowdown vs Default, as fig10_openmp_eval prints.
struct Headline {
  double energy_savings_pct = 0.0;
  double slowdown_pct = 0.0;
};
Headline cuttlefish_geomeans(const exp::SweepGrid& grid,
                             const std::vector<exp::RunResult>& results);

/// Forwarding hal::PlatformInterface: every call goes to `inner`
/// unchanged, so results are byte-identical to driving `inner` directly.
/// It counts sensor samples and actuator writes and, while timing is on,
/// adds each call's wall time to per-kind totals. Counters are
/// single-writer atomics: the thread that drives the platform (the replay
/// loop, or a session's daemon) writes them, any thread may read them.
class TimedPlatform final : public cuttlefish::hal::PlatformInterface {
 public:
  explicit TimedPlatform(cuttlefish::hal::PlatformInterface& inner,
                         bool timing = false)
      : inner_(&inner), timing_(timing) {}

  /// Toggle only from the thread that calls the platform, or before the
  /// platform is handed to another thread.
  void set_timing(bool on) { timing_ = on; }

  struct Counts {
    uint64_t sample_calls = 0;
    uint64_t apply_calls = 0;
    uint64_t sample_timed = 0;  // calls made while timing was on
    uint64_t apply_timed = 0;
    uint64_t sample_ns = 0;     // wall time of the timed calls
    uint64_t apply_ns = 0;
  };
  Counts counts() const;

  cuttlefish::hal::CapabilitySet capabilities() const override {
    return inner_->capabilities();
  }
  const cuttlefish::FreqLadder& core_ladder() const override {
    return inner_->core_ladder();
  }
  const cuttlefish::FreqLadder& uncore_ladder() const override {
    return inner_->uncore_ladder();
  }
  cuttlefish::FreqMHz core_frequency() const override {
    return inner_->core_frequency();
  }
  cuttlefish::FreqMHz uncore_frequency() const override {
    return inner_->uncore_frequency();
  }
  void set_core_frequency(cuttlefish::FreqMHz f) override;
  void set_uncore_frequency(cuttlefish::FreqMHz f) override;
  cuttlefish::hal::SensorTotals read_sensors() override;
  cuttlefish::hal::SensorSample read_sample() override;
  cuttlefish::hal::IoOutcome apply_core_frequency(
      cuttlefish::FreqMHz f) override;
  cuttlefish::hal::IoOutcome apply_uncore_frequency(
      cuttlefish::FreqMHz f) override;
  cuttlefish::hal::SampleOutcome sample_sensors() override;

 private:
  struct Slot {
    std::atomic<uint64_t> calls{0};
    std::atomic<uint64_t> timed{0};
    std::atomic<uint64_t> ns{0};
  };
  template <typename F>
  auto forward(Slot& slot, F&& call);

  cuttlefish::hal::PlatformInterface* inner_;
  bool timing_;
  Slot sample_;
  Slot apply_;
};

/// Per-layer totals of replayed specs, summed over a pass. Times are
/// wall-clock ns; hot-call times are estimates extrapolated from one
/// call in kSampleEvery picked at random (see trace.hpp).
struct ReplayStats {
  static constexpr uint64_t kSampleEvery = 64;

  uint64_t advance_calls = 0;
  double advance_ns = 0.0;
  uint64_t tick_calls = 0;
  std::vector<double> tick_self_ns;  // sampled ticks, HAL excluded
  double tick_ns = 0.0;              // HAL included
  uint64_t sample_calls = 0;
  double sample_ns = 0.0;
  uint64_t apply_calls = 0;
  double apply_ns = 0.0;
  cuttlefish::core::ControllerStats controller;  // summed over specs
};

/// Cost of one cycles() read in ns, subtracted from every sampled interval.
double clock_overhead_ns();

/// Re-runs one spec the way exp::run_spec does — a benchmark-owned loop
/// over SimMachine::advance and IController::tick, with the SimPlatform
/// wrapped in a TimedPlatform — and returns the same RunResult bytes.
/// When `tracer` is set, the spec gets a span named after its variant
/// with estimated sim/core/hal child spans. Throws std::invalid_argument
/// for specs the replay does not model (fixed-frequency runs, timelines,
/// fault schedules, arbitration).
exp::RunResult replay_spec(const exp::RunSpec& spec,
                           const cuttlefish::sim::PhaseProgram& program,
                           Tracer* tracer, ReplayStats* stats);

/// Span name of a spec's variant: exp.run_spec.{default,full,core,uncore}.
const char* variant_span_name(const exp::RunSpec& spec);

}  // namespace cfbench
