#include "exp/sweep.hpp"

#include <algorithm>
#include <map>
#include <span>
#include <tuple>
#include <utility>

#include "common/assert.hpp"
#include "exp/calibrate.hpp"
#include "exp/result_cache.hpp"
#include "exp/spec_digest.hpp"
#include "runtime/parallel_for.hpp"

namespace cuttlefish::exp {

int SweepGrid::add_point(std::string label,
                         const workloads::BenchmarkModel& model, RunKind kind,
                         core::PolicyKind policy, FreqMHz cf, FreqMHz uf,
                         const RunOptions& options, int reps, uint64_t seed0,
                         int baseline_point) {
  CF_ASSERT(reps > 0, "a sweep point needs at least one replicate");
  const int point = static_cast<int>(points_.size());
  CF_ASSERT(baseline_point < point, "baseline must be an earlier point");
  if (baseline_point >= 0) {
    CF_ASSERT(points_[static_cast<size_t>(baseline_point)].reps == reps,
              "baseline point must have the same replicate count");
  }
  SweepPoint p;
  p.label = std::move(label);
  p.first_spec = static_cast<int>(specs_.size());
  p.reps = reps;
  p.baseline_point = baseline_point;
  points_.push_back(std::move(p));

  for (int rep = 0; rep < reps; ++rep) {
    RunSpec spec;
    spec.model = &model;
    spec.machine = machine_;
    spec.kind = kind;
    spec.policy = policy;
    spec.cf = cf;
    spec.uf = uf;
    // Seeds are a pure function of the point's seed base and the
    // replicate index — never of execution order.
    spec.seed = seed0 + static_cast<uint64_t>(rep);
    spec.options = options;
    spec.point = point;
    spec.rep = rep;
    spec.baseline_point = baseline_point;
    specs_.push_back(std::move(spec));
  }
  return point;
}

int SweepGrid::add_default(std::string label,
                           const workloads::BenchmarkModel& model,
                           const RunOptions& options, int reps,
                           uint64_t seed0) {
  return add_point(std::move(label), model, RunKind::kDefault,
                   core::PolicyKind::kFull, FreqMHz{0}, FreqMHz{0}, options,
                   reps, seed0, -1);
}

int SweepGrid::add_fixed(std::string label,
                         const workloads::BenchmarkModel& model, FreqMHz cf,
                         FreqMHz uf, const RunOptions& options, int reps,
                         uint64_t seed0) {
  return add_point(std::move(label), model, RunKind::kFixed,
                   core::PolicyKind::kFull, cf, uf, options, reps, seed0, -1);
}

int SweepGrid::add_policy(std::string label,
                          const workloads::BenchmarkModel& model,
                          core::PolicyKind policy, const RunOptions& options,
                          int reps, uint64_t seed0, int baseline_point) {
  return add_point(std::move(label), model, RunKind::kPolicy, policy,
                   FreqMHz{0}, FreqMHz{0}, options, reps, seed0,
                   baseline_point);
}

int SweepGrid::spec_index(int point, int rep) const {
  const SweepPoint& p = points_[static_cast<size_t>(point)];
  CF_ASSERT(rep >= 0 && rep < p.reps, "replicate out of range");
  return p.first_spec + rep;
}

RunResult run_spec(const RunSpec& spec, const sim::PhaseProgram& program) {
  CF_ASSERT(spec.model != nullptr && spec.machine != nullptr,
            "spec missing model or machine");
  RunOptions options = spec.options;
  options.seed = spec.seed;
  switch (spec.kind) {
    case RunKind::kDefault:
      return run_default(*spec.machine, program, options);
    case RunKind::kFixed:
      return run_fixed(*spec.machine, program, spec.cf, spec.uf, options);
    case RunKind::kPolicy:
      return run_policy(*spec.machine, program, spec.policy, options);
  }
  CF_ASSERT(false, "unreachable run kind");
  return RunResult{};
}

namespace {

/// A spec's result over its calibration: a Default spec that asks for
/// exactly the run calibration ended on is served that run's bytes (time
/// is noise-free and the noise seed is the spec's, so it is the run
/// run_default would repeat); every other spec simulates.
RunResult run_calibrated(const RunSpec& spec, const Calibrated& calibrated) {
  if (spec.kind == RunKind::kDefault) {
    RunOptions options = spec.options;
    options.seed = spec.seed;
    if (const RunResult* served = calibrated.default_run_for(options)) {
      return *served;
    }
  }
  return run_spec(spec, calibrated.program);
}

}  // namespace

RunResult run_spec(const RunSpec& spec) {
  CF_ASSERT(spec.model != nullptr && spec.machine != nullptr,
            "spec missing model or machine");
  // A standalone run owns its calibration: calibrate() is deterministic
  // in (model, machine, seed), so rebuilding here produces the same bits
  // run_sweep's memoised copy would, served Default runs included.
  return run_calibrated(spec, calibrate(*spec.model, *spec.machine, spec.seed));
}

void sweep_ordered(int64_t n, const std::function<void(int64_t)>& fn,
                   runtime::TaskScheduler* scheduler) {
  if (n <= 0) return;
  if (scheduler == nullptr || scheduler->size() <= 1 || n == 1) {
    for (int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Grain 1: each index is a whole co-simulation (or comparable unit),
  // far heavier than a task spawn.
  runtime::parallel_for(*scheduler, 0, n, fn, /*grain=*/1);
}

namespace {

/// Simulate the specs at `indices`, writing each result at its spec index
/// in the full-size `results` vector.
///
/// Calibrated programs are a pure function of (model, machine, seed) — the
/// full memo key — and a grid reuses each one across its variant points
/// (Default + three policies share the same seeds, Fig. 3 sweeps share one
/// model across a frequency grid), so every unique program is calibrated
/// exactly once — itself fanned out — and then shared read-only by the
/// runs. A Default spec at default options is served the run calibration
/// ended on instead of simulating it again. Neither changes a bit:
/// run_spec(spec) would rebuild the identical calibration. The memo spans
/// only `indices`: when the cache or a shard partition shrinks the work
/// list, no program is calibrated for a spec that will not run.
void run_subset(const SweepGrid& grid, const std::vector<uint64_t>& indices,
                runtime::TaskScheduler* scheduler,
                std::vector<RunResult>* results) {
  if (indices.empty()) return;
  const std::vector<RunSpec>& specs = grid.specs();
  std::map<std::tuple<const workloads::BenchmarkModel*,
                      const sim::MachineConfig*, uint64_t>,
           size_t>
      program_index;
  std::vector<size_t> spec_program(indices.size());
  for (size_t i = 0; i < indices.size(); ++i) {
    const RunSpec& spec = specs[indices[i]];
    const auto key = std::make_tuple(spec.model, spec.machine, spec.seed);
    const auto [it, inserted] =
        program_index.emplace(key, program_index.size());
    spec_program[i] = it->second;
  }
  std::vector<const RunSpec*> rep_spec(program_index.size());
  for (size_t i = indices.size(); i-- > 0;) {
    rep_spec[spec_program[i]] = &specs[indices[i]];
  }
  std::vector<Calibrated> programs(program_index.size());
  sweep_ordered(
      static_cast<int64_t>(programs.size()),
      [&](int64_t i) {
        const RunSpec& spec = *rep_spec[static_cast<size_t>(i)];
        programs[static_cast<size_t>(i)] =
            calibrate(*spec.model, *spec.machine, spec.seed);
      },
      scheduler);

  sweep_ordered(
      static_cast<int64_t>(indices.size()),
      [&](int64_t i) {
        const uint64_t idx = indices[static_cast<size_t>(i)];
        (*results)[idx] = run_calibrated(
            specs[idx], programs[spec_program[static_cast<size_t>(i)]]);
      },
      scheduler);
}

/// Shared core of the cached, uncached and sharded entry points: serve
/// what the cache holds, simulate the rest, persist the news. The cache is
/// touched only from this (the calling) thread.
void run_indices(const SweepGrid& grid, const std::vector<uint64_t>& indices,
                 runtime::TaskScheduler* scheduler, ResultCache* cache,
                 SweepRunStats* stats, std::vector<RunResult>* results) {
  if (cache == nullptr) {
    run_subset(grid, indices, scheduler, results);
    if (stats != nullptr) {
      stats->cache_hits = 0;
      stats->cache_misses = indices.size();
    }
    return;
  }
  const std::vector<RunSpec>& specs = grid.specs();
  // Digest every cacheable spec, then serve them in one batch, which
  // opens each shard once. Fault-injected specs bypass the cache
  // entirely: the schedule is not part of the digest identity, so serving
  // a clean cached result (or persisting a faulted one under the clean
  // key) would be wrong.
  std::vector<ResultCache::Lookup> lookups;
  lookups.reserve(indices.size());
  for (const uint64_t idx : indices) {
    if (specs[idx].options.faults != nullptr) continue;
    lookups.push_back(
        ResultCache::Lookup{digest_spec(specs[idx]), &(*results)[idx], false});
  }
  const size_t hits = cache->lookup(std::span(lookups));

  // Hits and misses sorted in index order, as the specs came: the miss
  // list, and so the new shard's bytes and name, do not depend on the
  // batch. A miss's spec is encoded again for its record (cheap beside
  // its co-simulation), and its insert points at the result slot the
  // run fills.
  std::vector<uint64_t> misses;
  std::vector<ResultCache::Insert> inserts;
  size_t next = 0;  // the next lookup, in index order
  for (const uint64_t idx : indices) {
    if (specs[idx].options.faults != nullptr) {
      misses.push_back(idx);
      continue;
    }
    const size_t k = next++;
    if (lookups[k].hit) continue;
    misses.push_back(idx);
    inserts.push_back(ResultCache::Insert{
        lookups[k].digest, encode_spec(specs[idx]), &(*results)[idx]});
  }
  run_subset(grid, misses, scheduler, results);
  if (!inserts.empty()) cache->insert_batch(inserts);
  cache->note_run(hits, misses.size());
  if (stats != nullptr) {
    stats->cache_hits = hits;
    stats->cache_misses = misses.size();
  }
}

std::vector<uint64_t> all_indices(size_t n) {
  std::vector<uint64_t> indices(n);
  for (size_t i = 0; i < n; ++i) indices[i] = i;
  return indices;
}

}  // namespace

std::vector<RunResult> run_sweep(const SweepGrid& grid,
                                 runtime::TaskScheduler* scheduler) {
  std::vector<RunResult> results(grid.size());
  run_subset(grid, all_indices(grid.size()), scheduler, &results);
  return results;
}

std::vector<RunResult> run_sweep(const SweepGrid& grid, int workers) {
  if (workers <= 1) return run_sweep(grid, nullptr);
  runtime::TaskScheduler scheduler(workers);
  return run_sweep(grid, &scheduler);
}

std::vector<RunResult> run_sweep(const SweepGrid& grid,
                                 runtime::TaskScheduler* scheduler,
                                 ResultCache* cache, SweepRunStats* stats) {
  std::vector<RunResult> results(grid.size());
  run_indices(grid, all_indices(grid.size()), scheduler, cache, stats,
              &results);
  return results;
}

std::vector<std::pair<uint64_t, RunResult>> run_sweep_shard(
    const SweepGrid& grid, int shard_index, int shard_count,
    runtime::TaskScheduler* scheduler, ResultCache* cache,
    SweepRunStats* stats) {
  CF_ASSERT(shard_count > 0, "shard count must be positive");
  CF_ASSERT(shard_index >= 0 && shard_index < shard_count,
            "shard index out of range");
  std::vector<uint64_t> owned;
  for (uint64_t i = 0; i < grid.size(); ++i) {
    if (shard_owns(i, shard_index, shard_count)) owned.push_back(i);
  }
  // The full-size scratch table keeps run_indices index-stable; only the
  // owned cells are ever written.
  std::vector<RunResult> results(grid.size());
  run_indices(grid, owned, scheduler, cache, stats, &results);
  std::vector<std::pair<uint64_t, RunResult>> rows;
  rows.reserve(owned.size());
  for (const uint64_t idx : owned) {
    rows.emplace_back(idx, std::move(results[idx]));
  }
  return rows;
}

ValueAggregate aggregate_values(const std::vector<double>& values) {
  ValueAggregate out;
  const Aggregate a = aggregate(values);
  out.mean = a.mean;
  out.ci95 = a.ci95;
  if (!values.empty()) {
    const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
    out.min = *lo;
    out.max = *hi;
  }
  return out;
}

std::vector<PointSummary> summarize(const SweepGrid& grid,
                                    const std::vector<RunResult>& results) {
  CF_ASSERT(results.size() == grid.size(), "results do not match the grid");
  std::vector<PointSummary> summaries;
  summaries.reserve(grid.points().size());
  for (const SweepPoint& point : grid.points()) {
    PointSummary s;
    std::vector<double> time_s, energy_j, edp;
    std::vector<double> savings, slowdown, edp_savings;
    for (int rep = 0; rep < point.reps; ++rep) {
      const RunResult& r =
          results[static_cast<size_t>(point.first_spec + rep)];
      time_s.push_back(r.time_s);
      energy_j.push_back(r.energy_j);
      edp.push_back(r.edp());
      if (point.baseline_point >= 0) {
        const RunResult& base = results[static_cast<size_t>(
            grid.spec_index(point.baseline_point, rep))];
        const Comparison c = compare(r, base);
        savings.push_back(c.energy_savings_pct);
        slowdown.push_back(c.slowdown_pct);
        edp_savings.push_back(c.edp_savings_pct);
      }
    }
    s.time_s = aggregate_values(time_s);
    s.energy_j = aggregate_values(energy_j);
    s.edp = aggregate_values(edp);
    if (point.baseline_point >= 0) {
      s.has_baseline = true;
      s.energy_savings_pct = aggregate_values(savings);
      s.slowdown_pct = aggregate_values(slowdown);
      s.edp_savings_pct = aggregate_values(edp_savings);
    }
    summaries.push_back(std::move(s));
  }
  return summaries;
}

}  // namespace cuttlefish::exp
