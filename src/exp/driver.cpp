#include "exp/driver.hpp"

#include <cstdio>
#include <string>

#include "common/assert.hpp"
#include "core/controller_factory.hpp"

namespace cuttlefish::exp {

namespace {

std::string warmup_refusal(double tinv_s, double warmup_s) {
  char text[160];
  std::snprintf(text, sizeof(text),
                "Tinv %g s with warm-up %g s: the warm-up quantum count "
                "does not fit an int",
                tinv_s, warmup_s);
  return text;
}

}  // namespace

Stepper::Stepper(const sim::MachineConfig& machine_cfg,
                 const sim::PhaseProgram& program, const RunOptions& options)
    : machine_(machine_cfg, program, options.seed),
      base_(machine_),
      config_(options.controller),
      warmup_target_(warmup_quanta_for(config_.tinv_s, config_.warmup_s)),
      finished_(machine_.workload_done()),
      capture_timeline_(options.capture_timeline) {
  // Fault injection wraps the platform, not the machine: the workload and
  // power model stay byte-identical, only the controller's I/O is faulted.
  if (options.faults != nullptr) {
    top_ = &faulty_.emplace(*top_, *options.faults);
  }
  // Arbitration wraps outermost (docs/ARBITER.md): the controller's
  // writes are clamped to the granted share before any fault injection or
  // the simulator see them. A LocalArbiter with `tenants` slots, the
  // others idle, reproduces a single session's view of a shared budget
  // deterministically.
  if (options.arbiter.enabled) {
    arbiter::ArbiterConfig acfg;
    acfg.budget_w = options.arbiter.budget_w;
    acfg.policy = options.arbiter.policy;
    const int tenants =
        options.arbiter.tenants < 1 ? 1 : options.arbiter.tenants;
    arbiter_.emplace(acfg, tenants);
    // Occupy the neighbours' slots first so this run's session lands on
    // slot `tenant_index` — idle peers hold a registered, zero-demand
    // lease, exactly what a co-tenant looks like between its ticks.
    int index = options.arbiter.tenant_index;
    if (index < 0 || index >= tenants) index = 0;
    for (int i = 0; i < index; ++i) (void)arbiter_->attach();
    top_ = &arbitrated_.emplace(*top_, *arbiter_, config_.tinv_s);
    for (int i = index + 1; i < tenants; ++i) (void)arbiter_->attach();
  }
}

int Stepper::warmup_quanta_for(double tinv_s, double warmup_s) {
  // Refused up front: a count past INT_MAX overflows `n`, and a Tinv too
  // small to move `t` (t + tinv_s == t) would never end the loop.
  CF_ASSERT(core::warmup_count_fits(tinv_s, warmup_s),
            warmup_refusal(tinv_s, warmup_s).c_str());
  // Accumulated quantum by quantum, as every run has always counted it.
  int n = 0;
  for (double t = 0.0; t + tinv_s <= warmup_s + 1e-12; t += tinv_s) ++n;
  return n;
}

void Stepper::set_driver(Driver driver, const core::ControllerConfig& cfg) {
  CF_ASSERT(driver_ == Driver::kNone && quanta_ == 0,
            "stepper: pick one driver before the first step");
  driver_ = driver;
  config_ = cfg;
  warmup_target_ = warmup_quanta_for(cfg.tinv_s, cfg.warmup_s);
}

void Stepper::drive_default() {
  machine_.set_core_frequency(machine_.config().core_ladder.max());
  governor_.emplace(machine_);
  set_driver(Driver::kDefault, config_);
}

core::IController& Stepper::drive_policy(core::PolicyKind policy) {
  config_.policy = policy;
  // The factory picks the registered strategy for the kind (Default's
  // ladder descent, MPC's plant-model jumps, ...).
  owned_ = core::make_controller(*top_, config_);
  drive(*owned_);
  return *owned_;
}

void Stepper::drive(core::IController& controller) {
  controller_ = &controller;
  set_driver(Driver::kController, controller.config());
}

Session& Stepper::drive_session(Options options) {
  options.manual_tick = true;
  session_ = Session(*top_, options);
  set_driver(Driver::kSession, session_.controller()->config());
  return session_;
}

void Stepper::begin() {
  if (begun_) return;
  begun_ = true;
  if (!running()) return;
  if (driver_ == Driver::kController) controller_->begin();
  // A manual session's first tick is its begin().
  if (driver_ == Driver::kSession) session_.tick();
}

bool Stepper::step() {
  if (!running()) return false;
  const bool warm = !begun_ && warmup_done_ < warmup_target_;
  if (!warm && !begun_) begin();
  ++quanta_;
  // Runs without a timeline (nearly every sweep spec) advance with no
  // per-quantum bookkeeping.
  if (capture_timeline_) {
    advance_recording();
  } else {
    machine_.advance(config_.tinv_s);
  }
  // Controllers sleep through the warm-up; firmware does not.
  if (driver_ == Driver::kDefault) {
    governor_->tick();
  } else if (!warm && driver_ == Driver::kController) {
    controller_->tick();
  } else if (!warm && driver_ == Driver::kSession) {
    session_.tick();
  }
  if (warm) ++warmup_done_;
  finished_ = machine_.workload_done();
  return running();
}

void Stepper::advance_recording() {
  // The counter snapshots exist only to difference into a TimePoint.
  const uint64_t i0 = machine_.instructions_retired();
  const uint64_t t0 = machine_.tor_inserts();
  const double e0 = machine_.energy_joules();
  machine_.advance(config_.tinv_s);
  const uint64_t di = machine_.instructions_retired() - i0;
  if (di == 0) return;
  TimePoint pt;
  pt.t = machine_.now();
  pt.tipi = static_cast<double>(machine_.tor_inserts() - t0) /
            static_cast<double>(di);
  pt.jpi = (machine_.energy_joules() - e0) / static_cast<double>(di);
  pt.cf = machine_.core_frequency();
  pt.uf = machine_.uncore_frequency();
  timeline_.push_back(pt);
}

namespace {

/// Runs the stepper to the end: the machine's totals and the timeline.
RunResult run_to_end(Stepper& stepper) {
  stepper.run();
  RunResult result;
  result.time_s = stepper.machine().now();
  result.energy_j = stepper.machine().energy_joules();
  result.instructions = stepper.machine().instructions_retired();
  result.timeline = std::move(stepper.timeline());
  return result;
}

}  // namespace

RunResult run_default(const sim::MachineConfig& machine_cfg,
                      const sim::PhaseProgram& program,
                      const RunOptions& options) {
  Stepper stepper(machine_cfg, program, options);
  stepper.drive_default();
  return run_to_end(stepper);
}

RunResult run_fixed(const sim::MachineConfig& machine_cfg,
                    const sim::PhaseProgram& program, FreqMHz cf, FreqMHz uf,
                    const RunOptions& options) {
  Stepper stepper(machine_cfg, program, options);
  stepper.machine().set_core_frequency(cf);
  stepper.machine().set_uncore_frequency(uf);
  return run_to_end(stepper);
}

RunResult run_policy(const sim::MachineConfig& machine_cfg,
                     const sim::PhaseProgram& program,
                     core::PolicyKind policy, const RunOptions& options) {
  Stepper stepper(machine_cfg, program, options);
  const core::IController& controller = stepper.drive_policy(policy);
  RunResult result = run_to_end(stepper);
  result.stats = controller.stats();
  for (const core::TipiNode* node = controller.list().head();
       node != nullptr;
       node = node->next) {
    result.nodes.push_back(NodeSummary{node->slab, node->ticks, node->cf.opt,
                                       node->uf.opt});
  }
  return result;
}

}  // namespace cuttlefish::exp
