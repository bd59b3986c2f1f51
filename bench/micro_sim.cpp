// Co-simulation hot-path microbenchmark: raw quanta per wall-second of
// SimMachine::advance against the pre-rate-cache design, plus the two
// end-to-end per-quantum loops the sweep engine actually runs (Default
// with the firmware governor, and a full Cuttlefish policy co-simulation
// with the controller in the loop). The loops run on two program shapes,
// the two ends of a rate row's lifetime: a repeat() program whose few ops
// keep their rows for the whole run, and the calibrated AMG and Heat-rt
// programs, where every segment is its own op and rows are recycled.
//
// Three variants of the same (CF, UF)-ladder walk — identical frequency
// switches, segment crossings and noise draws per quantum, so the ratios
// isolate the hot-path rewrite:
//   direct  the seed design, reproduced in-bench (like micro_runtime's
//           LegacyScheduler): every segment step re-evaluates
//           instructions_per_second, utilization (which pays the
//           smooth-min pow pair a second time) and package_watts.
//   cold    SimMachine on an empty rate cache: every (op, CF, UF) visit
//           fills its table entry once (memoised p-norm terms make most
//           fills a single pow).
//   warm    SimMachine on a filled cache: table lookups + multiply-adds.
//
// Results go to BENCH_sim.json. Absolute numbers are host-dependent;
// CF_BENCH_GATE=1 makes the warm >= 3x direct (cold-path) acceptance
// check fatal (meant for dedicated hosts, not shared CI boxes).

#include <chrono>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "exp/driver.hpp"
#include "sim/machine_config.hpp"
#include "sim/phase_workload.hpp"
#include "sim/sim_machine.hpp"

using namespace cuttlefish;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr int kOps = 16;          // distinct operating points in the walk
constexpr double kTinv = 1e-3;    // quantum of the raw-advance walk
constexpr int kQuantaPerPair = 2; // quanta at each (CF, UF) pair

/// A long program cycling through kOps distinct operating points (all
/// with TIPI > 0 so every rate fill pays the memory-roofline pow), sized
/// so a segment spans several quanta — the sweep-realistic shape where
/// the seed design re-evaluated the models every quantum while the rate
/// cache's hoisted segment rates make those quanta pure multiply-adds.
sim::PhaseProgram walk_program() {
  sim::PhaseProgram block_builder;
  for (int j = 0; j < kOps; ++j) {
    block_builder.add(1e8, 1.0 + 0.05 * j, 0.01 + 0.008 * j);
  }
  sim::PhaseProgram program;
  program.repeat(800, block_builder.segments());
  return program;
}

/// The seed's co-simulation hot path, reproduced as the bench reference:
/// per-quantum direct model evaluation with no rate table and the
/// double-pay of utilization() re-deriving instructions_per_second.
class DirectSim {
 public:
  DirectSim(const sim::MachineConfig& cfg, const sim::PhaseProgram& program,
            uint64_t noise_seed)
      : cfg_(cfg), perf_(cfg_), power_(cfg_), cursor_(&program),
        noise_(noise_seed), core_f_(cfg_.core_ladder.max()),
        uncore_f_(cfg_.uncore_ladder.max()) {}

  void set_core_frequency(FreqMHz f) {
    if (f != core_f_) stall_s_ += cfg_.core_switch_latency_s;
    core_f_ = f;
  }
  void set_uncore_frequency(FreqMHz f) {
    if (f != uncore_f_) stall_s_ += cfg_.uncore_switch_latency_s;
    uncore_f_ = f;
  }
  bool workload_done() const { return cursor_.done(); }
  double energy_joules() const { return energy_j_; }

  void advance(double dt) {
    double left = dt;
    while (left > 1e-12 && !cursor_.done()) {
      if (stall_s_ > 1e-12) {
        const double step = std::min(left, stall_s_);
        const double watts =
            power_.package_watts(core_f_, uncore_f_, 0.0, 0.0);
        energy_j_ += watts * step * noise_factor();
        stall_s_ -= step;
        left -= step;
        continue;
      }
      const sim::OperatingPoint& op = cursor_.op();
      const double ips =
          perf_.instructions_per_second(core_f_, uncore_f_, op);
      const double seg_time = cursor_.remaining_in_segment() / ips;
      const double step = std::min(left, seg_time);
      const double instr = ips * step;
      const double util = perf_.utilization(core_f_, uncore_f_, op);
      const double miss_rate = ips * op.tipi;
      const double watts =
          power_.package_watts(core_f_, uncore_f_, util, miss_rate);
      energy_j_ += watts * step * noise_factor();
      cursor_.consume(instr);
      left -= step;
    }
  }

 private:
  double noise_factor() {
    if (cfg_.power_noise_sigma <= 0.0) return 1.0;
    const double u =
        noise_.next_double() + noise_.next_double() + noise_.next_double();
    return 1.0 + cfg_.power_noise_sigma * (u - 1.5) * 2.0;
  }

  sim::MachineConfig cfg_;
  sim::PerfModel perf_;
  sim::PowerModel power_;
  sim::WorkloadCursor cursor_;
  SplitMix64 noise_;
  double energy_j_ = 0.0;
  double stall_s_ = 0.0;
  FreqMHz core_f_;
  FreqMHz uncore_f_;
};

/// One full sweep over the (CF, UF) ladder grid: kQuantaPerPair quanta at
/// each pair. Works on SimMachine and DirectSim alike (identical walk,
/// switches and noise draws). Returns quanta advanced (aborts the bench
/// if the program ran dry — the walk must never measure a truncated
/// pass).
template <typename Machine>
int ladder_walk(Machine& machine, const sim::MachineConfig& cfg) {
  const FreqLadder& cf = cfg.core_ladder;
  const FreqLadder& uf = cfg.uncore_ladder;
  int quanta = 0;
  for (Level c = 0; c <= cf.max_level(); ++c) {
    machine.set_core_frequency(cf.at(c));
    for (Level u = 0; u <= uf.max_level(); ++u) {
      machine.set_uncore_frequency(uf.at(u));
      for (int q = 0; q < kQuantaPerPair; ++q) {
        machine.advance(kTinv);
        ++quanta;
      }
    }
  }
  if (machine.workload_done()) {
    std::fprintf(stderr, "micro_sim: walk program exhausted mid-pass\n");
    std::exit(1);
  }
  return quanta;
}

/// A sweep-shaped co-simulation program: three phases the controller can
/// explore and settle on, long enough for thousands of Tinv quanta.
sim::PhaseProgram cosim_program() {
  sim::PhaseProgram block_builder;
  block_builder.add(4e9, 1.0, 0.02);   // compute-bound
  block_builder.add(4e9, 1.2, 0.25);   // memory-bound
  block_builder.add(4e9, 0.9, 0.08);   // mixed
  sim::PhaseProgram program;
  program.repeat(400, block_builder.segments());
  return program;
}

/// Quanta and virtual seconds a co-simulation loop ran, over its wall time.
struct LoopRate {
  int64_t quanta = 0;
  double virtual_s = 0.0;
  double wall_s = 0.0;
  double quanta_per_s() const { return static_cast<double>(quanta) / wall_s; }
  double virtual_per_wall() const { return virtual_s / wall_s; }
};

/// The sweep's co-simulation loop at the paper's Tinv, timed whole (the
/// §4.1 warm-up included): a Cuttlefish run (the controller ticks every
/// Tinv) or the Default run (the firmware uncore governor adapts after
/// every quantum).
LoopRate cosim_loop(const sim::MachineConfig& cfg,
                    const sim::PhaseProgram& program, bool policy, int reps) {
  LoopRate rate;
  for (int rep = 0; rep < reps; ++rep) {
    exp::RunOptions options;
    options.seed = 0x5eed + rep;
    exp::Stepper stepper(cfg, program, options);
    if (policy) {
      stepper.drive_policy(core::PolicyKind::kFull);
    } else {
      stepper.drive_default();
    }
    const double t0 = now_s();
    stepper.run();
    rate.wall_s += now_s() - t0;
    rate.quanta += stepper.quanta();
    rate.virtual_s += stepper.machine().now();
  }
  return rate;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = std::getenv("CF_BENCH_SMOKE") != nullptr;
  auto args = benchharness::parse_args(argc, argv, smoke ? 2 : 8,
                                       /*has_reps=*/true);
  if (args.json_out.empty()) args.json_out = "BENCH_sim.json";
  const sim::MachineConfig machine_cfg = sim::haswell_2650v3();
  const int reps = args.runs;
  const int warm_passes = 3;

  // --- raw advance: direct (seed design) vs cold vs warm rate cache -------
  // Noise off for the raw walk: the measurement isolates the model
  // evaluation itself (the jitter RNG costs the same in every variant and
  // is measured by the end-to-end loops below).
  sim::MachineConfig walk_cfg = machine_cfg;
  walk_cfg.power_noise_sigma = 0.0;
  const sim::PhaseProgram walk = walk_program();
  double direct_s = 0.0, cold_s = 0.0, warm_s = 0.0;
  int64_t direct_quanta = 0, cold_quanta = 0, warm_quanta = 0;
  for (int rep = 0; rep < reps; ++rep) {
    // The seed hot path: every segment step re-evaluates the models.
    DirectSim direct(walk_cfg, walk, 0x5eed + rep);
    double t0 = now_s();
    for (int p = 0; p < 1 + warm_passes; ++p) {
      direct_quanta += ladder_walk(direct, walk_cfg);
    }
    direct_s += now_s() - t0;

    sim::SimMachine machine(walk_cfg, walk, 0x5eed + rep);
    // Pass 1 on a fresh machine: every (op, CF, UF) combination is a
    // cache fill.
    t0 = now_s();
    cold_quanta += ladder_walk(machine, walk_cfg);
    cold_s += now_s() - t0;
    // Identical walks on the now-filled cache: pure lookups.
    t0 = now_s();
    for (int p = 0; p < warm_passes; ++p) {
      warm_quanta += ladder_walk(machine, walk_cfg);
    }
    warm_s += now_s() - t0;
  }
  const double direct_qps = static_cast<double>(direct_quanta) / direct_s;
  const double cold_qps = static_cast<double>(cold_quanta) / cold_s;
  const double warm_qps = static_cast<double>(warm_quanta) / warm_s;
  const double ratio = warm_qps / direct_qps;
  std::printf("micro_sim: %d ops x %d (CF,UF) pairs, %d reps (%s mode)\n",
              kOps,
              machine_cfg.core_ladder.levels() *
                  machine_cfg.uncore_ladder.levels(),
              reps, smoke ? "smoke" : "full");
  std::printf("  cold path (seed design, direct eval): %10.0f quanta/s\n",
              direct_qps);
  std::printf("  cold rate cache (fill pass):          %10.0f quanta/s  "
              "(%.2fx cold path)\n",
              cold_qps, cold_qps / direct_qps);
  std::printf("  warm rate cache:                      %10.0f quanta/s  "
              "(%.2fx cold path)\n",
              warm_qps, ratio);

  // --- end-to-end per-quantum loops ---------------------------------------
  const sim::PhaseProgram cosim = cosim_program();
  const LoopRate default_rate = cosim_loop(machine_cfg, cosim, false, reps);
  const LoopRate policy_rate = cosim_loop(machine_cfg, cosim, true, reps);
  std::printf("  Default co-sim:  %10.0f quanta/s  (%8.0f virtual s/s)\n",
              default_rate.quanta_per_s(), default_rate.virtual_per_wall());
  std::printf("  policy co-sim:   %10.0f quanta/s  (%8.0f virtual s/s)\n",
              policy_rate.quanta_per_s(), policy_rate.virtual_per_wall());

  // The same loops on Fig. 10 programs, calibrated at its seed base.
  constexpr uint64_t kPaperSeed = 1000;
  benchharness::JsonWriter paper;
  for (const char* name : {"AMG", "Heat-rt"}) {
    const sim::PhaseProgram program = exp::build_calibrated(
        workloads::find_benchmark(name), machine_cfg, kPaperSeed);
    const LoopRate d = cosim_loop(machine_cfg, program, false, reps);
    const LoopRate p = cosim_loop(machine_cfg, program, true, reps);
    std::printf("  %-7s (%zu segments, %zu ops): Default %10.0f, policy "
                "%10.0f quanta/s\n",
                name, program.segments().size(), program.ops().size(),
                d.quanta_per_s(), p.quanta_per_s());
    benchharness::JsonWriter row;
    row.field("seed", static_cast<int64_t>(kPaperSeed));
    row.field("segments", static_cast<int64_t>(program.segments().size()));
    row.field("ops", static_cast<int64_t>(program.ops().size()));
    row.field("default_quanta_per_s", d.quanta_per_s(), 0);
    row.field("policy_quanta_per_s", p.quanta_per_s(), 0);
    paper.raw(name, row.compact());
  }

  benchharness::JsonWriter json;
  json.raw("provenance", benchharness::provenance_json(CF_BENCH_COMPILER,
                                                       CF_BENCH_BUILD_TYPE));
  json.field("smoke", smoke);
  json.field("reps", reps);
  json.field("distinct_ops", kOps);
  json.field("walk_segments", static_cast<int64_t>(walk.segments().size()));
  json.field("ladder_pairs", machine_cfg.core_ladder.levels() *
                                 machine_cfg.uncore_ladder.levels());
  // "Cold path" per the acceptance criterion = the uncached seed design
  // (direct evaluation); the cache-fill pass is reported separately.
  json.field("cold_path_quanta_per_s", direct_qps, 0);
  json.field("cold_cache_fill_quanta_per_s", cold_qps, 0);
  json.field("warm_quanta_per_s", warm_qps, 0);
  json.field("warm_over_cold_path", ratio, 3);
  json.field("default_quanta_per_s", default_rate.quanta_per_s(), 0);
  json.field("default_virtual_s_per_wall_s", default_rate.virtual_per_wall(),
             1);
  json.field("policy_quanta_per_s", policy_rate.quanta_per_s(), 0);
  json.field("policy_virtual_s_per_wall_s", policy_rate.virtual_per_wall(), 1);
  json.raw("paper_programs", paper.compact());
  json.write(args.json_out);

  if (std::getenv("CF_BENCH_GATE") != nullptr && ratio < 3.0) {
    std::fprintf(stderr,
                 "micro_sim: warm cache %.2fx the cold path is below the "
                 "3x acceptance floor\n",
                 ratio);
    return 1;
  }
  return 0;
}
