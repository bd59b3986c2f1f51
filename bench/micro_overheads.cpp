// google-benchmark microbenchmarks for the runtime-overhead claims: the
// Cuttlefish daemon must be lightweight (one tick every 20 ms), and the
// substrate runtimes must have low per-task overheads.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "core/explorer.hpp"
#include "core/tipi_list.hpp"
#include "exp/driver.hpp"
#include "hal/fault_injection.hpp"
#include "hal/health.hpp"
#include "runtime/deque.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/scheduler.hpp"
#include "sim/machine_config.hpp"
#include "sim/sim_machine.hpp"

namespace {

using namespace cuttlefish;

// --- controller tick ------------------------------------------------------

/// A Cuttlefish co-simulation of one endless phase through the one
/// stepper, past its warm-up and begin(), then `settle` more ticks
/// (steady state; 0 leaves it exploring). Each step() is one quantum: an
/// advance plus a tick.
std::unique_ptr<exp::Stepper> settled_stepper(
    const hal::FaultSchedule* faults, int settle) {
  static const sim::PhaseProgram program =
      sim::PhaseProgram().add(1e18, 0.8, 0.066);
  exp::RunOptions options;
  options.seed = 0x5eed;
  options.faults = faults;
  auto stepper = std::make_unique<exp::Stepper>(sim::haswell_2650v3(),
                                                program, options);
  stepper->drive_policy(core::PolicyKind::kFull);
  stepper->start();
  for (int i = 0; i < settle; ++i) stepper->step();
  return stepper;
}

void BM_ControllerTickSteadyState(benchmark::State& state) {
  const auto stepper = settled_stepper(nullptr, 1000);
  for (auto _ : state) stepper->step();
  state.SetLabel("one Tinv tick incl. simulated sensor read");
}
BENCHMARK(BM_ControllerTickSteadyState);

void BM_ControllerTickExploring(benchmark::State& state) {
  const auto stepper = settled_stepper(nullptr, 0);
  for (auto _ : state) stepper->step();
}
BENCHMARK(BM_ControllerTickExploring);

// --- TIPI list -------------------------------------------------------------

void BM_TipiListInsert(benchmark::State& state) {
  for (auto _ : state) {
    core::SortedTipiList list;
    for (int64_t s = 0; s < state.range(0); ++s) {
      benchmark::DoNotOptimize(list.insert((s * 37) % 997));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TipiListInsert)->Arg(60);

void BM_TipiListFind(benchmark::State& state) {
  core::SortedTipiList list;
  for (int64_t s = 0; s < 60; ++s) list.insert(s);
  int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(list.find(i++ % 60));
  }
  state.SetLabel("cycling keys: every lookup misses the MRU cache");
}
BENCHMARK(BM_TipiListFind);

void BM_TipiListFindRepeated(benchmark::State& state) {
  // The controller's actual access pattern: consecutive Tinv intervals
  // overwhelmingly look up the same slab (Table 1's frequent ranges), so
  // the MRU last-hit cache answers with one compare.
  core::SortedTipiList list;
  for (int64_t s = 0; s < 60; ++s) list.insert(s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(list.find(42));
  }
  state.SetLabel("repeated key: MRU last-hit cache path");
}
BENCHMARK(BM_TipiListFindRepeated);

// --- explorer --------------------------------------------------------------

void BM_ExplorerStep(benchmark::State& state) {
  const FreqLadder ladder = haswell_uncore_ladder();
  core::FrequencyExplorer ex(ladder, 2);
  core::DomainState st;
  st.lb = 0;
  st.rb = ladder.max_level();
  st.window_set = true;
  st.jpi = std::make_unique<core::JpiTable>(ladder.levels(), 1000000000);
  Level current = st.rb;
  for (auto _ : state) {
    const auto res = ex.step(st, 1.0, current, true);
    current = res.next;
    benchmark::DoNotOptimize(current);
  }
}
BENCHMARK(BM_ExplorerStep);

// --- work-stealing deque -----------------------------------------------------

void BM_DequePushPop(benchmark::State& state) {
  runtime::ChaseLevDeque<int*> deque;
  int item = 0;
  int* out = nullptr;
  for (auto _ : state) {
    deque.push(&item);
    benchmark::DoNotOptimize(deque.pop(out));
  }
}
BENCHMARK(BM_DequePushPop);

// --- schedulers --------------------------------------------------------------

void BM_SchedulerAsyncFinish(benchmark::State& state) {
  runtime::TaskScheduler rt(4);
  const int tasks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    rt.finish([&] {
      for (int i = 0; i < tasks; ++i) rt.async([] {});
    });
  }
  state.SetItemsProcessed(state.iterations() * tasks);
}
BENCHMARK(BM_SchedulerAsyncFinish)->Arg(1000);

void BM_ParallelForStatic(benchmark::State& state) {
  runtime::TaskScheduler rt(4);
  std::vector<double> data(65536, 1.0);
  for (auto _ : state) {
    runtime::parallel_for_static(
        rt, 0, static_cast<int64_t>(data.size()),
        [&](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) {
            data[static_cast<size_t>(i)] *= 1.0000001;
          }
        });
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_ParallelForStatic);

// --- simulator ---------------------------------------------------------------

void BM_SimMachineAdvanceQuantum(benchmark::State& state) {
  const sim::MachineConfig cfg = sim::haswell_2650v3();
  sim::PhaseProgram program;
  program.add(1e18, 0.8, 0.066);
  sim::SimMachine machine(cfg, program);
  for (auto _ : state) {
    benchmark::DoNotOptimize(machine.advance(0.02));
  }
}
BENCHMARK(BM_SimMachineAdvanceQuantum);

// --- fault machinery ---------------------------------------------------------

void BM_DeviceHealthRecordSuccess(benchmark::State& state) {
  // The per-tick bookkeeping the health tracker adds on the sensor path
  // of a healthy device — the common case that must stay free.
  hal::DeviceHealth health{hal::RetryPolicy{}};
  uint64_t tick = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(health.record_success(++tick));
  }
}
BENCHMARK(BM_DeviceHealthRecordSuccess);

void BM_ControllerTickFaultWrapped(benchmark::State& state) {
  // Steady-state tick through a FaultInjectionPlatform with an empty
  // schedule: the full outcome plumbing + decorator, zero faults firing.
  // Compare against BM_ControllerTickSteadyState for the added cost.
  const hal::FaultSchedule empty;
  const auto stepper = settled_stepper(&empty, 1000);
  for (auto _ : state) stepper->step();
  state.SetLabel("empty fault schedule: outcome plumbing only");
}
BENCHMARK(BM_ControllerTickFaultWrapped);

// --- CF_BENCH_GATE: fault machinery stays in the noise floor ----------------

/// Steady-state ticks/s of one timed sample of `stepper`.
double ticks_per_s(exp::Stepper& stepper) {
  constexpr int kTicks = 50000;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kTicks; ++i) stepper.step();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return kTicks / wall;
}

/// The paper's "for free" claim, made fatal: the error-aware HAL contract
/// plus health tracking may not slow the steady-state tick by more than
/// 50% even through the fault-injection decorator (in practice the two
/// are within noise of each other; 1.5x absorbs shared-CI jitter). The
/// two stacks, each settled by 1000 ticks, are timed in alternating
/// rounds (which one goes first alternates too), and the gate reads the
/// median round's ratio: one noisy sample cannot decide it.
int run_overhead_gate() {
  constexpr int kRounds = 9;
  const hal::FaultSchedule empty;
  const auto plain = settled_stepper(nullptr, 1000);
  const auto wrapped = settled_stepper(&empty, 1000);
  std::vector<double> ratios;
  for (int round = 0; round < kRounds; ++round) {
    double plain_tps = 0.0;
    double wrapped_tps = 0.0;
    if (round % 2 == 0) {
      plain_tps = ticks_per_s(*plain);
      wrapped_tps = ticks_per_s(*wrapped);
    } else {
      wrapped_tps = ticks_per_s(*wrapped);
      plain_tps = ticks_per_s(*plain);
    }
    ratios.push_back(plain_tps / wrapped_tps);
    std::printf("fault-machinery round %d: plain %.0f ticks/s, "
                "fault-wrapped %.0f ticks/s -> %.3fx\n",
                round + 1, plain_tps, wrapped_tps, ratios.back());
  }
  std::sort(ratios.begin(), ratios.end());
  const double ratio = ratios[kRounds / 2];
  std::printf("fault-machinery overhead: median of %d rounds %.3fx "
              "slowdown\n",
              kRounds, ratio);
  if (std::getenv("CF_BENCH_GATE") != nullptr && ratio > 1.5) {
    std::fprintf(stderr,
                 "FAIL: fault machinery costs %.3fx (> 1.5x gate) on the "
                 "steady-state tick\n",
                 ratio);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return run_overhead_gate();
}
