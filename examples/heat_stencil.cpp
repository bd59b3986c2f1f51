// Heat diffusion with all three of the paper's concurrency
// decompositions — work-sharing (ws), regular task DAG (rt) and irregular
// task DAG (irt) — computed for real on this machine's cores while
// Cuttlefish manages the simulated Haswell package that models the
// paper's testbed.
//
// Demonstrates (a) the runtime substrates on an actual kernel, (b) that
// Cuttlefish is oblivious to which decomposition produced the memory
// traffic: all three variants land the same CFopt/UFopt, as in the paper.

#include <chrono>
#include <cstdio>
#include <thread>

#include "core/controller.hpp"
#include "core/region.hpp"
#include "core/session.hpp"
#include "exp/calibrate.hpp"
#include "exp/realtime.hpp"
#include "runtime/scheduler.hpp"
#include "sim/machine_config.hpp"
#include "workloads/kernels/stencil.hpp"
#include "workloads/suite.hpp"

using namespace cuttlefish;

namespace {

double run_variant(Session& session, const char* name,
                   const std::function<void(const workloads::Grid2D&,
                                            workloads::Grid2D&)>& step) {
  // Each decomposition is its own named region: the session caches one
  // exploration profile per kernel name.
  Region region(session, name);
  workloads::Grid2D a(513, 513, 0.0);
  workloads::Grid2D b(513, 513, 0.0);
  for (int64_t c = 0; c < a.cols(); ++c) a.at(0, c) = 100.0;
  for (int64_t c = 0; c < b.cols(); ++c) b.at(0, c) = 100.0;
  const auto t0 = std::chrono::steady_clock::now();
  const int steps = 200;
  for (int s = 0; s < steps; ++s) {
    step(a, b);
    std::swap(a, b);
  }
  const double dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf("  %-22s %8.3f s   checksum %.6e\n", name, dt, a.checksum());
  return a.checksum();
}

}  // namespace

int main() {
  std::printf("Heat 513x513, 200 Jacobi steps, three decompositions "
              "(paper Fig. 1)\n");

  // Cuttlefish watches a simulated package executing the matching
  // memory-access profile while the kernels run for real.
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const auto& model = workloads::find_benchmark("Heat-irt");
  sim::PhaseProgram profile = exp::build_calibrated(model, machine, 7);
  profile.scale_instructions(30.0 / model.default_time_s);
  exp::RealtimeSimPlatform platform(machine, profile, /*rate=*/20.0);
  platform.start();
  Options options;
  options.controller.tinv_s = 0.001;
  options.controller.warmup_s = 0.100;
  options.daemon_cpu = -1;
  Session session(platform, options);

  runtime::TaskScheduler tasks(runtime::default_thread_count());

  const double ws = run_variant(session, "Heat-ws (static loop)",
                                [&](const workloads::Grid2D& in,
                                    workloads::Grid2D& out) {
                                  workloads::heat_step_ws(tasks, in, out);
                                });
  const double rt = run_variant(
      session, "Heat-rt (regular DAG)",
      [&](const workloads::Grid2D& in, workloads::Grid2D& out) {
        workloads::heat_step_tasks(tasks, in, out,
                                   runtime::DagShape::kRegular);
      });
  const double irt = run_variant(
      session, "Heat-irt (irregular DAG)",
      [&](const workloads::Grid2D& in, workloads::Grid2D& out) {
        workloads::heat_step_tasks(tasks, in, out,
                                   runtime::DagShape::kIrregular);
      });
  // Loop decomposition on the *task* runtime: lazy binary splitting only
  // sheds stealable halves while thieves are starving, so balanced steps
  // spawn O(workers) tasks rather than one per 16-row block.
  const double lbs = run_variant(
      session, "Heat-lbs (task loop)",
      [&](const workloads::Grid2D& in, workloads::Grid2D& out) {
        workloads::heat_step_lbs(tasks, in, out);
      });
  std::printf("  decompositions agree: %s\n",
              (ws == rt && rt == irt && irt == lbs) ? "yes" : "NO (bug!)");
  const auto rt_stats = tasks.stats();
  std::printf("  task runtime: %llu tasks, %llu steals, %llu parks, "
              "%llu slab blocks, %llu heap fallbacks\n",
              static_cast<unsigned long long>(rt_stats.executed),
              static_cast<unsigned long long>(rt_stats.steals),
              static_cast<unsigned long long>(rt_stats.parks),
              static_cast<unsigned long long>(rt_stats.slab_blocks),
              static_cast<unsigned long long>(rt_stats.heap_fallbacks));

  // Give the daemon time to finish its exploration of the profile.
  for (int i = 0; i < 300 && !platform.workload_done(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const core::IController* ctl = session.controller();
  std::printf("\nCuttlefish state after the run:\n");
  for (const core::TipiNode* n = ctl->list().head(); n != nullptr;
       n = n->next) {
    if (!n->cf.complete()) continue;
    char uf[16] = "-";
    if (n->uf.complete()) {
      std::snprintf(uf, sizeof(uf), "%.1f",
                    machine.uncore_ladder.at(n->uf.opt).ghz());
    }
    std::printf("  TIPI %s -> CFopt %.1f GHz, UFopt %s GHz\n",
                ctl->slabber().range_label(n->slab).c_str(),
                machine.core_ladder.at(n->cf.opt).ghz(), uf);
  }
  std::printf("\nregion profiles cached by the session:\n");
  for (const RegionProfileInfo& info : session.region_profiles()) {
    std::printf("  %-24s %llu entries, %zu TIPI ranges\n", info.name.c_str(),
                static_cast<unsigned long long>(info.entries), info.nodes);
  }
  session.stop();
  platform.stop();
  return 0;
}
