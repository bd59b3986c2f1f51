// UTS (Unbalanced Tree Search) on the async-finish work-stealing
// runtime — the paper's compute-bound extreme (TIPI ~ 0) — with
// Cuttlefish managing the simulated package. Expected outcome per
// Table 2: CFopt stays at 2.3 GHz and UFopt drops to ~1.2-1.3 GHz,
// saving uncore energy at negligible slowdown.

#include <chrono>
#include <cstdio>
#include <thread>

#include "core/controller.hpp"
#include "core/region.hpp"
#include "core/session.hpp"
#include "exp/calibrate.hpp"
#include "exp/driver.hpp"
#include "exp/realtime.hpp"
#include "runtime/scheduler.hpp"
#include "workloads/kernels/uts.hpp"
#include "workloads/suite.hpp"

using namespace cuttlefish;

int main() {
  std::printf("UTS on the work-stealing runtime + Cuttlefish\n\n");

  // Real tree search on this machine.
  runtime::TaskScheduler rt(runtime::default_thread_count());
  workloads::UtsParams params;
  params.root_branching = 2000;
  const auto t0 = std::chrono::steady_clock::now();
  const uint64_t nodes = workloads::uts_count_parallel(rt, params);
  const double dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const auto stats = rt.stats();
  std::printf("tree nodes: %llu (expected ~%.0f), %.3f s, %llu tasks, "
              "%llu steals\n",
              static_cast<unsigned long long>(nodes),
              workloads::uts_expected_size(params), dt,
              static_cast<unsigned long long>(stats.executed),
              static_cast<unsigned long long>(stats.steals));

  // Cuttlefish on the UTS memory-access profile (simulated package).
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const auto& model = workloads::find_benchmark("UTS");
  sim::PhaseProgram profile = exp::build_calibrated(model, machine, 3);
  profile.scale_instructions(15.0 / model.default_time_s);
  const exp::RunResult baseline =
      exp::run_default(machine, profile, exp::RunOptions{});

  exp::RealtimeSimPlatform platform(machine, profile, /*rate=*/20.0);
  platform.start();
  Options options;
  options.controller.tinv_s = 0.001;
  options.controller.warmup_s = 0.100;
  options.daemon_cpu = -1;
  Session session(platform, options);
  {
    Region region(session, "uts-search");
    while (!platform.workload_done()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    const core::IController* ctl = session.controller();
    const core::TipiNode* n = ctl->list().head();
    if (n != nullptr && n->cf.complete()) {
      std::printf("\ncompute-bound MAP %s: CFopt %.1f GHz",
                  ctl->slabber().range_label(n->slab).c_str(),
                  machine.core_ladder.at(n->cf.opt).ghz());
      if (n->uf.complete()) {
        std::printf(", UFopt %.1f GHz",
                    machine.uncore_ladder.at(n->uf.opt).ghz());
      }
      std::printf("  (paper: 2.3 / 1.3)\n");
    }
  }  // "uts-search" profile cached; a rerun would warm-start from it
  const auto snap = platform.snapshot();
  session.stop();
  platform.stop();
  std::printf("energy: %.1f J vs Default %.1f J -> %.1f%% savings, "
              "%.1f%% slowdown\n",
              snap.energy_j, baseline.energy_j,
              (1.0 - snap.energy_j / baseline.energy_j) * 100.0,
              (snap.time_s / baseline.time_s - 1.0) * 100.0);
  return 0;
}
