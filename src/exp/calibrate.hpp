#pragma once

#include <cstdint>
#include <optional>

#include "exp/driver.hpp"
#include "sim/machine_config.hpp"
#include "sim/phase_workload.hpp"
#include "workloads/suite.hpp"

namespace cuttlefish::exp {

/// Rescale `program`'s instruction counts so its Default-policy execution
/// on `machine_cfg` lasts `target_s` seconds (the Table-1 "OpenMP Time"
/// column). Iterates simulate-and-scale until within `tolerance`
/// (relative); the Default run is noise-free in time, so two or three
/// iterations converge. Each iteration is run_default with a default
/// RunOptions at noise seed `seed`, which moves only the runs' energy,
/// never a scale factor. Returns the last run, the one that met the
/// tolerance on the final program, or nothing when six iterations did not
/// converge (the program was scaled after its last run).
std::optional<RunResult> calibrate_program(sim::PhaseProgram& program,
                                           const sim::MachineConfig& machine_cfg,
                                           double target_s, uint64_t seed = 0,
                                           double tolerance = 0.002);

/// A benchmark model's calibrated program plus the verified Default run
/// calibration ended on, which a sweep serves instead of simulating the
/// same trajectory again.
struct Calibrated {
  sim::PhaseProgram program;
  uint64_t seed = 0;  // model construction and calibration noise seed
  /// calibrate_program's result: empty when calibration did not converge.
  std::optional<RunResult> default_run;

  /// The run run_default(machine, program, options) would produce, when
  /// calibration already performed it: `options` equal a default
  /// RunOptions apart from a seed equal to `seed`. Null otherwise (a
  /// timeline, another Tinv or warm-up, faults, an arbiter, another seed,
  /// or no converged run); the caller then simulates.
  const RunResult* default_run_for(const RunOptions& options) const;
};

/// Build a benchmark model's phase program at `seed` and calibrate it at
/// the same noise seed.
Calibrated calibrate(const workloads::BenchmarkModel& model,
                     const sim::MachineConfig& machine_cfg, uint64_t seed);

/// calibrate()'s program alone.
sim::PhaseProgram build_calibrated(const workloads::BenchmarkModel& model,
                                   const sim::MachineConfig& machine_cfg,
                                   uint64_t seed);

}  // namespace cuttlefish::exp
