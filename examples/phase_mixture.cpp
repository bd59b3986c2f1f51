// Multi-phase workload (AMG-style, many TIPI ranges) run in fast virtual
// time through a *manual-tick* session — the embedded mode where the host
// drives the controller itself instead of donating a daemon thread.
//
// The AMG cycle executes twice inside the same named region. The first
// entry explores like the paper's §§4.4-4.5 walkthrough (windows,
// neighbour narrowing, propagation); its state is cached on exit. The
// second entry warm-starts from that cache: the controller lands on the
// discovered optima immediately and records (almost) no new exploration —
// the recurring-kernel amortisation Cuttlefish targets in iterative HPC
// programs.

#include <cstdio>

#include "core/controller.hpp"
#include "core/region.hpp"
#include "core/session.hpp"
#include "exp/calibrate.hpp"
#include "exp/driver.hpp"
#include "sim/machine_config.hpp"
#include "workloads/suite.hpp"

using namespace cuttlefish;

namespace {

void print_nodes(const core::IController& controller,
                 const sim::MachineConfig& machine) {
  std::printf("%-14s %8s %10s %10s %8s %8s\n", "TIPI range", "ticks",
              "CF window", "UF window", "CFopt", "UFopt");
  for (const core::TipiNode* n = controller.list().head(); n != nullptr;
       n = n->next) {
    char cfw[24] = "-", ufw[24] = "-";
    if (n->cf.window_set) {
      std::snprintf(cfw, sizeof(cfw), "[%.1f,%.1f]",
                    machine.core_ladder.at(n->cf.lb).ghz(),
                    machine.core_ladder.at(n->cf.rb).ghz());
    }
    if (n->uf.window_set) {
      std::snprintf(ufw, sizeof(ufw), "[%.1f,%.1f]",
                    machine.uncore_ladder.at(n->uf.lb).ghz(),
                    machine.uncore_ladder.at(n->uf.rb).ghz());
    }
    char cf_opt[16] = "-";
    char uf_opt[16] = "-";
    if (n->cf.complete()) {
      std::snprintf(cf_opt, sizeof(cf_opt), "%.1f",
                    machine.core_ladder.at(n->cf.opt).ghz());
    }
    if (n->uf.complete()) {
      std::snprintf(uf_opt, sizeof(uf_opt), "%.1f",
                    machine.uncore_ladder.at(n->uf.opt).ghz());
    }
    std::printf("%-14s %8llu %10s %10s %8s %8s\n",
                controller.slabber().range_label(n->slab).c_str(),
                static_cast<unsigned long long>(n->ticks), cfw, ufw, cf_opt,
                uf_opt);
  }
}

}  // namespace

int main() {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const auto& model = workloads::find_benchmark("AMG");
  const sim::PhaseProgram cycle = exp::build_calibrated(model, machine, 9);

  // The same AMG cycle back to back: one recurring kernel, entered twice.
  sim::PhaseProgram program;
  program.repeat(2, cycle.segments());
  const double cycle_instructions = cycle.total_instructions();

  std::printf("AMG-style phase mixture: %zu segments per cycle, 2 cycles, "
              "%.0f s per cycle at Default\n\n",
              cycle.segments().size(), model.default_time_s);

  // Virtual-time co-simulation through a manual-tick session: the
  // stepper is the "daemon" and ticks the session once per Tinv of
  // virtual time.
  exp::RunOptions run_options;
  run_options.seed = 9;
  exp::Stepper stepper(machine, program, run_options);
  Session& session = stepper.drive_session(Options{});
  stepper.start();  // warm-up, then the first tick baselines the sensors

  for (int entry = 1; entry <= 2; ++entry) {
    const uint64_t samples_before =
        session.controller()->stats().samples_recorded;
    Region region(session, "amg-cycle");
    while (stepper.running() &&
           stepper.machine().instructions_retired() <
               static_cast<uint64_t>(cycle_instructions) *
                   static_cast<uint64_t>(entry)) {
      stepper.step();
    }
    const core::ControllerStats& stats = session.controller()->stats();
    std::printf("--- entry %d of region \"amg-cycle\" ---\n", entry);
    print_nodes(*session.controller(), machine);
    std::printf("JPI samples recorded this entry: %llu\n\n",
                static_cast<unsigned long long>(stats.samples_recorded -
                                                samples_before));
  }

  for (const RegionProfileInfo& info : session.region_profiles()) {
    std::printf("profile \"%s\": %llu entries, %llu warm starts, %zu TIPI "
                "ranges (%zu CFopt, %zu UFopt resolved)\n",
                info.name.c_str(),
                static_cast<unsigned long long>(info.entries),
                static_cast<unsigned long long>(info.warm_starts),
                info.nodes, info.cf_resolved, info.uf_resolved);
  }
  std::printf("(second entry warm-starts: resolved ranges skip straight to "
              "their optima; only windows the first entry left unfinished "
              "keep sampling)\n");
  return 0;
}
