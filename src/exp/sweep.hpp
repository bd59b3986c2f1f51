#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "exp/driver.hpp"
#include "exp/metrics.hpp"
#include "runtime/scheduler.hpp"
#include "sim/machine_config.hpp"
#include "workloads/suite.hpp"

namespace cuttlefish::exp {

/// Batched experiment engine: a declarative grid of independent
/// co-simulation runs, fanned out over the task runtime. Every headline
/// artifact (Fig. 3/10/11, Tables 1-3, both ablations) is a sweep of
/// workloads x policies x seeds x controller settings; each cell is a full
/// virtual-time co-simulation, so sweep breadth — not per-run cost —
/// dominates wall-clock. The engine's contract:
///
///  * **Determinism.** A spec's seed is fixed at grid-expansion time
///    (derived from its point's seed base and replicate index, never from
///    execution order), its result is a pure function of the spec (its
///    calibrated PhaseProgram is built from that seed, once per unique
///    (model, machine, seed) and shared by the specs that use it), and
///    results land at the spec's index in the output vector. The result
///    table is therefore bit-identical whether the grid runs serially or
///    on N workers.
///
///  * **No run twice.** Calibration ends on a verified Default run at the
///    program's seed with default options; a Default spec asking for
///    exactly that run (exp/calibrate.hpp, Calibrated::default_run_for) is
///    served its bytes. Every other spec simulates.
///
///  * **Isolation.** Tasks share only immutable inputs (the
///    MachineConfig, the BenchmarkModel, the calibrations); each
///    constructs its own SimMachine/Controller, so no synchronisation is
///    needed beyond the runtime's own join.

/// Which driver entry point a spec exercises.
enum class RunKind { kDefault, kFixed, kPolicy };

/// One co-simulation: a (workload, variant, seed, controller config) cell.
struct RunSpec {
  const workloads::BenchmarkModel* model = nullptr;
  const sim::MachineConfig* machine = nullptr;
  RunKind kind = RunKind::kDefault;
  core::PolicyKind policy = core::PolicyKind::kFull;
  FreqMHz cf{0};  // kFixed only
  FreqMHz uf{0};  // kFixed only
  /// Drives both model construction (build_calibrated) and simulator
  /// noise; options.seed is overwritten with this value before the run.
  uint64_t seed = 1;
  RunOptions options;
  int point = -1;           // aggregation cell this run belongs to
  int rep = 0;              // replicate index within the point
  int baseline_point = -1;  // point whose same-rep run is the denominator
};

/// One aggregation cell of the grid: `reps` runs differing only in seed.
struct SweepPoint {
  std::string label;
  int first_spec = 0;  // index of rep 0 in specs(); reps are contiguous
  int reps = 0;
  int baseline_point = -1;
};

/// Declarative grid builder. Points expand eagerly into contiguous
/// RunSpecs with per-replicate seeds seed0 + rep, so the full spec list —
/// including every seed — is fixed before anything executes.
class SweepGrid {
 public:
  explicit SweepGrid(const sim::MachineConfig& machine)
      : machine_(&machine) {}

  int add_default(std::string label, const workloads::BenchmarkModel& model,
                  const RunOptions& options, int reps, uint64_t seed0);
  int add_fixed(std::string label, const workloads::BenchmarkModel& model,
                FreqMHz cf, FreqMHz uf, const RunOptions& options, int reps,
                uint64_t seed0);
  int add_policy(std::string label, const workloads::BenchmarkModel& model,
                 core::PolicyKind policy, const RunOptions& options, int reps,
                 uint64_t seed0, int baseline_point = -1);

  const std::vector<RunSpec>& specs() const { return specs_; }
  const std::vector<SweepPoint>& points() const { return points_; }
  const sim::MachineConfig& machine() const { return *machine_; }
  size_t size() const { return specs_.size(); }

  /// Spec index of replicate `rep` of `point`.
  int spec_index(int point, int rep) const;

 private:
  int add_point(std::string label, const workloads::BenchmarkModel& model,
                RunKind kind, core::PolicyKind policy, FreqMHz cf, FreqMHz uf,
                const RunOptions& options, int reps, uint64_t seed0,
                int baseline_point);

  const sim::MachineConfig* machine_;
  std::vector<RunSpec> specs_;
  std::vector<SweepPoint> points_;
};

/// Execute one spec (the unit of work the engine fans out); calibrates its
/// own program, and serves a Default spec at default options the run
/// calibration ended on, as run_sweep does.
RunResult run_spec(const RunSpec& spec);
/// Simulate one spec against a pre-built calibrated program, whatever its
/// kind.
RunResult run_spec(const RunSpec& spec, const sim::PhaseProgram& program);

class ResultCache;  // exp/result_cache.hpp

/// Hit/miss accounting of one cached sweep (misses == specs simulated).
struct SweepRunStats {
  size_t cache_hits = 0;
  size_t cache_misses = 0;
};

/// Run every spec of the grid; results are indexed like grid.specs().
/// A null scheduler (or a 1-worker pool) runs serially in-place; otherwise
/// the specs fan out over the scheduler via parallel_for with grain 1.
std::vector<RunResult> run_sweep(const SweepGrid& grid,
                                 runtime::TaskScheduler* scheduler = nullptr);

/// Convenience: builds a transient `workers`-sized scheduler (workers <= 1
/// runs serially without one).
std::vector<RunResult> run_sweep(const SweepGrid& grid, int workers);

/// The content-addressed fast path: specs whose digest is already in the
/// cache are served from disk with zero simulation; only the misses fan
/// out over the scheduler, and their results are persisted as one new
/// shard before returning. Because cached results are byte-exact copies of
/// fresh runs, the returned table is bit-identical to run_sweep without a
/// cache — at any hit rate, at any worker count. The cache is driven only
/// from the calling thread (lookups before the fan-out, the insert after
/// the join), so it needs no internal locking.
std::vector<RunResult> run_sweep(const SweepGrid& grid,
                                 runtime::TaskScheduler* scheduler,
                                 ResultCache* cache,
                                 SweepRunStats* stats = nullptr);

/// Deterministic `--shard i/N` partition: spec `index` belongs to shard
/// `index % count`. Striding (rather than chunking) balances shards even
/// when a grid clusters its expensive points.
inline bool shard_owns(uint64_t index, int shard_index, int shard_count) {
  return static_cast<int>(index % static_cast<uint64_t>(shard_count)) ==
         shard_index;
}

/// Run only the specs shard `shard_index` of `shard_count` owns, returning
/// their (spec index, result) rows; given a cache, they land in its store.
/// The stores of the N shards of one grid, copied into one, serve the grid
/// byte-identically to the single-process table.
std::vector<std::pair<uint64_t, RunResult>> run_sweep_shard(
    const SweepGrid& grid, int shard_index, int shard_count,
    runtime::TaskScheduler* scheduler = nullptr, ResultCache* cache = nullptr,
    SweepRunStats* stats = nullptr);

/// Ordered parallel map for analytic (non co-simulation) sweeps: runs
/// fn(0..n) with results keyed by index, serial when scheduler is null.
/// fn must not touch shared mutable state.
void sweep_ordered(int64_t n, const std::function<void(int64_t)>& fn,
                   runtime::TaskScheduler* scheduler);

/// Mean / 95% CI half-width / min / max over a point's replicates.
struct ValueAggregate {
  double mean = 0.0;
  double ci95 = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Aggregated view of one SweepPoint. Ratio metrics pair each replicate
/// with the same-rep run of the designated baseline point (the paper's
/// per-seed Default pairing), and are valid only when has_baseline.
struct PointSummary {
  ValueAggregate time_s;
  ValueAggregate energy_j;
  ValueAggregate edp;
  bool has_baseline = false;
  ValueAggregate energy_savings_pct;
  ValueAggregate slowdown_pct;
  ValueAggregate edp_savings_pct;
};

ValueAggregate aggregate_values(const std::vector<double>& values);

/// Summarize every point of the grid from its ordered results.
std::vector<PointSummary> summarize(const SweepGrid& grid,
                                    const std::vector<RunResult>& results);

}  // namespace cuttlefish::exp
