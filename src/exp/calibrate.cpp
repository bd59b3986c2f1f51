#include "exp/calibrate.hpp"

#include <cmath>
#include <utility>

#include "common/assert.hpp"

namespace cuttlefish::exp {

std::optional<RunResult> calibrate_program(sim::PhaseProgram& program,
                                           const sim::MachineConfig& machine_cfg,
                                           double target_s, uint64_t seed,
                                           double tolerance) {
  CF_ASSERT(target_s > 0.0, "target time must be positive");
  CF_ASSERT(!program.empty(), "cannot calibrate an empty program");
  RunOptions options;
  options.seed = seed;
  for (int iteration = 0; iteration < 6; ++iteration) {
    RunResult r = run_default(machine_cfg, program, options);
    const double ratio = target_s / r.time_s;
    if (std::abs(ratio - 1.0) <= tolerance) return r;
    program.scale_instructions(ratio);
  }
  return std::nullopt;
}

const RunResult* Calibrated::default_run_for(const RunOptions& options) const {
  // The one predicate that lets a sweep skip a Default simulation: the
  // options of the run calibrate_program performed, compared field by
  // field (a field added to RunOptions joins the comparison by itself).
  RunOptions performed;
  performed.seed = seed;
  return default_run && options == performed ? &*default_run : nullptr;
}

Calibrated calibrate(const workloads::BenchmarkModel& model,
                     const sim::MachineConfig& machine_cfg, uint64_t seed) {
  Calibrated c;
  c.program = model.build_program(seed);
  c.seed = seed;
  c.default_run =
      calibrate_program(c.program, machine_cfg, model.default_time_s, seed);
  return c;
}

sim::PhaseProgram build_calibrated(const workloads::BenchmarkModel& model,
                                   const sim::MachineConfig& machine_cfg,
                                   uint64_t seed) {
  return std::move(calibrate(model, machine_cfg, seed).program);
}

}  // namespace cuttlefish::exp
