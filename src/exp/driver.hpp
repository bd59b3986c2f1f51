#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "arbiter/local_arbiter.hpp"
#include "core/controller.hpp"
#include "core/session.hpp"
#include "hal/arbitrated.hpp"
#include "hal/fault_injection.hpp"
#include "sim/firmware_governor.hpp"
#include "sim/machine_config.hpp"
#include "sim/phase_workload.hpp"
#include "sim/sim_machine.hpp"
#include "sim/sim_platform.hpp"

namespace cuttlefish::exp {

/// One Tinv-quantum sample of a run (drives Fig. 2 style timelines).
struct TimePoint {
  double t = 0.0;      // end of the quantum, seconds
  double tipi = 0.0;
  double jpi = 0.0;
  FreqMHz cf{0};
  FreqMHz uf{0};
};

/// Final state of one TIPI node after a policy run (Table 2 inputs).
struct NodeSummary {
  int64_t slab = 0;
  uint64_t ticks = 0;
  Level cf_opt = kNoLevel;  // kNoLevel if never resolved
  Level uf_opt = kNoLevel;
};

struct RunResult {
  double time_s = 0.0;
  double energy_j = 0.0;
  uint64_t instructions = 0;
  std::vector<TimePoint> timeline;   // filled when capture_timeline
  std::vector<NodeSummary> nodes;    // policy runs only
  core::ControllerStats stats;       // policy runs only

  double edp() const { return time_s * energy_j; }
  double avg_power_w() const { return energy_j / time_s; }
};

/// Node-local power arbitration for policy runs (docs/ARBITER.md).
/// Disabled by default; when enabled, the simulated session is wrapped in
/// hal::ArbitratedPlatform over an in-process LocalArbiter with
/// `tenants` registered slots, of which this run occupies `tenant_index`
/// and the others sit idle (zero demand) — i.e. a single-tenant cap
/// against a configured budget. Part of the spec digest: arbitration
/// changes result bytes.
struct ArbiterSpec {
  bool enabled = false;
  double budget_w = 0.0;  // <= 0: uncapped
  arbiter::SharePolicy policy = arbiter::SharePolicy::kEqualShare;
  int tenants = 1;        // registered slots
  int tenant_index = 0;   // which slot this run's session occupies

  bool operator==(const ArbiterSpec&) const = default;
};

struct RunOptions {
  uint64_t seed = 1;
  bool capture_timeline = false;
  /// Tinv / warm-up / optimization switches for policy runs; tinv_s also
  /// sets the sampling quantum of Default and fixed runs so timelines are
  /// comparable.
  core::ControllerConfig controller;
  /// Deterministic fault schedule injected between the controller and the
  /// simulated platform (policy runs only; borrowed, may be null). Runs
  /// with a schedule are never served from or written to the sweep result
  /// cache — fault behaviour is not part of a spec's identity.
  const hal::FaultSchedule* faults = nullptr;
  /// Node-local power-budget arbitration (policy runs only).
  ArbiterSpec arbiter;

  /// Field by field; `faults` compares by address.
  bool operator==(const RunOptions&) const = default;
};

/// The one co-simulation loop (docs/ARCHITECTURE.md), the only code that
/// writes the paper's §4.1 protocol out:
///  1. advance whole Tinv quanta through the warm-up at the construction
///     frequencies, stopping if the workload ends;
///  2. begin() the driver only if the workload is still running;
///  3. tick once after every advance, the final partial quantum included.
/// It owns the machine, its SimPlatform, the decorators the RunOptions ask
/// for (faults, then the arbiter outermost) and the timeline. It drives
/// nothing (a fixed pair set on machine()), the firmware governor, a
/// controller or a manual-tick Session, picked before the first step. A
/// quantum makes no virtual call beyond the controller's own tick().
class Stepper {
 public:
  /// `program` must outlive the stepper (the machine keeps a pointer).
  Stepper(const sim::MachineConfig& machine_cfg,
          const sim::PhaseProgram& program, const RunOptions& options);
  Stepper(const Stepper&) = delete;
  Stepper& operator=(const Stepper&) = delete;

  /// Whole quanta of `tinv_s` that fit in `warmup_s` (100, 66 and 33 at
  /// 20, 30 and 60 ms over the paper's 2 s).
  static int warmup_quanta_for(double tinv_s, double warmup_s);

  /// The paper's Default: CF at max and the firmware uncore governor,
  /// which ticks through the warm-up too (firmware does not sleep).
  void drive_default();
  /// A controller built by core::make_controller over platform().
  core::IController& drive_policy(core::PolicyKind policy);
  /// A controller the caller built over platform() or over a decorator of
  /// it (not owned). Its config sets the quantum and the warm-up.
  void drive(core::IController& controller);
  /// A manual-tick Session over platform(); its controller's config
  /// (environment overrides applied) sets the quantum and the warm-up.
  Session& drive_session(Options options);

  /// False once the workload has ended.
  bool running() const { return !finished_; }
  /// True while warm-up quanta remain before begin().
  bool warming() const {
    return running() && !begun_ && warmup_done_ < warmup_target_;
  }
  /// One quantum: a bare advance while warming(), otherwise (after an
  /// implicit begin()) an advance and a tick. Returns running().
  bool step();
  /// Ends the warm-up and arms the driver if the workload still runs.
  /// Idempotent; lockstep co-tenants call it to order it themselves.
  void begin();
  /// The warm-up, then begin(). Returns running().
  bool start() {
    while (warming()) step();
    begin();
    return running();
  }
  void run() {
    start();
    while (step()) {
    }
  }

  /// Quanta advanced so far, and how many of them were warm-up.
  int64_t quanta() const { return quanta_; }
  int warmup_quanta() const { return warmup_done_; }

  /// For reading counters and setting frequencies: only the stepper
  /// advances the machine.
  sim::SimMachine& machine() { return machine_; }
  /// The top of the decorator stack: what a controller should drive.
  hal::PlatformInterface& platform() { return *top_; }
  /// The injector RunOptions::faults asked for, else null.
  const hal::FaultInjectionPlatform* faults() const {
    return faulty_ ? &*faulty_ : nullptr;
  }
  /// One TimePoint per quantum that retired instructions, when the
  /// options asked for a timeline.
  std::vector<TimePoint>& timeline() { return timeline_; }

 private:
  enum class Driver { kNone, kDefault, kController, kSession };

  void set_driver(Driver driver, const core::ControllerConfig& cfg);
  void advance_recording();

  sim::SimMachine machine_;
  sim::SimPlatform base_;
  std::optional<hal::FaultInjectionPlatform> faulty_;
  std::optional<arbiter::LocalArbiter> arbiter_;
  std::optional<hal::ArbitratedPlatform> arbitrated_;
  hal::PlatformInterface* top_ = &base_;
  core::ControllerConfig config_;

  Driver driver_ = Driver::kNone;
  std::optional<sim::FirmwareUncoreGovernor> governor_;
  std::unique_ptr<core::IController> owned_;
  core::IController* controller_ = nullptr;
  Session session_;

  int warmup_target_ = 0;
  int warmup_done_ = 0;
  int64_t quanta_ = 0;
  bool finished_ = false;
  bool begun_ = false;
  bool capture_timeline_ = false;
  std::vector<TimePoint> timeline_;
};

/// The paper's Default baseline: performance governor (CF pinned at max)
/// with the firmware "Auto" uncore scaler active.
RunResult run_default(const sim::MachineConfig& machine_cfg,
                      const sim::PhaseProgram& program,
                      const RunOptions& options);

/// Static frequency pair for the whole run (Fig. 3 sweeps).
RunResult run_fixed(const sim::MachineConfig& machine_cfg,
                    const sim::PhaseProgram& program, FreqMHz cf, FreqMHz uf,
                    const RunOptions& options);

/// A Cuttlefish policy run: 2 s warm-up at max frequencies, then the
/// controller ticks every Tinv of virtual time until the workload ends.
RunResult run_policy(const sim::MachineConfig& machine_cfg,
                     const sim::PhaseProgram& program,
                     core::PolicyKind policy, const RunOptions& options);

}  // namespace cuttlefish::exp
