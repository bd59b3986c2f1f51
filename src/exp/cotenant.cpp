#include "exp/cotenant.hpp"

#include <algorithm>
#include <memory>
#include <optional>

#include "arbiter/local_arbiter.hpp"
#include "common/assert.hpp"
#include "core/controller_factory.hpp"
#include "exp/driver.hpp"
#include "hal/arbitrated.hpp"

namespace cuttlefish::exp {

namespace {

/// One co-scheduled session: its own stepper (machine and platform), an
/// optional wrapper over the shared arbiter, and the controller on top.
/// Heap-held so addresses stay stable across the vector.
struct Tenant {
  Tenant(const sim::MachineConfig& cfg, const sim::PhaseProgram& program,
         const RunOptions& options, arbiter::IArbiter* shared,
         TenantResult* out)
      : stepper(cfg, program, options),
        cap(cfg.core_ladder.max_level()),
        result(out) {
    hal::PlatformInterface* platform = &stepper.platform();
    if (shared != nullptr) {
      platform = &arbitrated.emplace(*platform, *shared,
                                     options.controller.tinv_s);
    }
    controller = core::make_controller(*platform, options.controller);
    stepper.drive(*controller);
  }

  Stepper stepper;
  std::optional<hal::ArbitratedPlatform> arbitrated;
  std::unique_ptr<core::IController> controller;
  double last_energy_j = 0.0;
  double power_w = 0.0;  // this quantum's interval power
  Level cap;             // uncoordinated firmware cap (core domain)
  TenantResult* result;
};

}  // namespace

CotenantResult run_cotenants(const sim::MachineConfig& machine_cfg,
                             const std::vector<sim::PhaseProgram>& programs,
                             const CotenantOptions& options) {
  CF_ASSERT(!programs.empty(), "co-tenant run needs at least one program");
  const double tinv = options.controller.tinv_s;
  const bool capped = options.budget_w > 0.0;
  const bool arbitrated = capped && options.arbitrated;
  const bool backstopped = capped && !options.arbitrated;

  // One shared in-process plane for every arbitrated tenant — the
  // deterministic stand-in for the ShmArbiter plane real co-located
  // processes would map.
  arbiter::ArbiterConfig acfg;
  acfg.budget_w = options.budget_w;
  acfg.policy = options.share_policy;
  arbiter::LocalArbiter arb(acfg,
                            static_cast<int>(programs.size()));

  CotenantResult out;
  out.tenants.resize(programs.size());
  std::vector<std::unique_ptr<Tenant>> tenants;
  tenants.reserve(programs.size());
  for (size_t i = 0; i < programs.size(); ++i) {
    RunOptions run_options;
    run_options.seed = options.seed + i;
    run_options.controller = options.controller;
    run_options.controller.policy = options.policy;
    tenants.push_back(std::make_unique<Tenant>(
        machine_cfg, programs[i], run_options, arbitrated ? &arb : nullptr,
        &out.tenants[i]));
  }
  const FreqLadder& ladder = machine_cfg.core_ladder;

  const auto drain_grants = [](Tenant& t) {
    if (!t.arbitrated) return;
    hal::ArbitratedPlatform::GrantChange change;
    while (t.arbitrated->poll_grant_change(&change)) {
      if (change.revoked) {
        ++t.result->revocations;
      } else {
        ++t.result->grants;
      }
    }
  };

  const auto interval_powers = [&] {
    double node_w = 0.0;
    for (auto& t : tenants) {
      if (!t->stepper.running()) continue;
      const double e = t->stepper.machine().energy_joules();
      t->power_w = (e - t->last_energy_j) / tinv;
      t->last_energy_j = e;
      node_w += t->power_w;
    }
    if (node_w > out.peak_node_power_w) out.peak_node_power_w = node_w;
    return node_w;
  };
  const auto backstop = [&](double node_w) {
    if (!backstopped) return;
    if (node_w > options.budget_w) {
      // Step the hottest tenant down one level.
      Tenant* hottest = nullptr;
      for (auto& t : tenants) {
        if (!t->stepper.running()) continue;
        if (hottest == nullptr || t->power_w > hottest->power_w) {
          hottest = t.get();
        }
      }
      if (hottest != nullptr && hottest->cap > ladder.min_level()) {
        hottest->cap -= 1;
        ++out.backstop_interventions;
      }
    } else if (node_w < options.backstop_release * options.budget_w) {
      for (auto& t : tenants) {
        if (t->stepper.running() && t->cap < ladder.max_level()) t->cap += 1;
      }
    }
    // Enforce: clamp any machine running above its cap. The controller
    // is never told — its next write fights the clamp right back.
    for (auto& t : tenants) {
      if (!t->stepper.running()) continue;
      sim::SimMachine& machine = t->stepper.machine();
      if (machine.core_frequency() > ladder.at(t->cap)) {
        machine.set_core_frequency(ladder.at(t->cap));
        ++out.backstop_interventions;
      }
    }
  };

  // One lockstep round: every running tenant steps one quantum, then the
  // firmware backstop sees the node's interval power. The backstop is
  // live in the warm-up too — real RAPL does not wait for anyone's
  // warm-up — but with every tenant at max it simply clamps from the
  // first over-budget quantum.
  const auto round = [&] {
    for (auto& t : tenants) {
      if (!t->stepper.running()) continue;
      t->stepper.step();
      drain_grants(*t);
      if (t->stepper.running()) continue;
      sim::SimMachine& machine = t->stepper.machine();
      t->result->time_s = machine.now();
      t->result->energy_j = machine.energy_joules();
      t->result->instructions = machine.instructions_retired();
      if (t->arbitrated) {
        // Release the slot so the survivors' very next publish rebalances
        // over the remaining demand — a finished tenant pins no budget.
        arb.detach(t->arbitrated->slot());
      }
    }
    backstop(interval_powers());
  };
  const auto any = [&](bool (Stepper::*state)() const) {
    return std::any_of(tenants.begin(), tenants.end(),
                       [&](const auto& t) { return (t->stepper.*state)(); });
  };

  // §4.1 warm-up in lockstep; every controller begins only after the
  // last warm-up round's backstop.
  while (any(&Stepper::warming)) round();
  for (auto& t : tenants) t->stepper.begin();
  while (any(&Stepper::running)) round();

  for (const TenantResult& r : out.tenants) {
    if (r.time_s > out.node_time_s) out.node_time_s = r.time_s;
    out.node_energy_j += r.energy_j;
  }
  return out;
}

}  // namespace cuttlefish::exp
