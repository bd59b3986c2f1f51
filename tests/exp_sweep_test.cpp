#include "exp/sweep.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <utility>

#include "exp/calibrate.hpp"
#include "exp/result_cache.hpp"
#include "runtime/scheduler.hpp"
#include "sim/machine_config.hpp"
#include "workloads/suite.hpp"

namespace cuttlefish::exp {
namespace {

/// Bitwise equality — determinism means *byte*-identical doubles, not
/// approximately equal ones.
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_bits(const ValueAggregate& a, const ValueAggregate& b) {
  return same_bits(a.mean, b.mean) && same_bits(a.ci95, b.ci95) &&
         same_bits(a.min, b.min) && same_bits(a.max, b.max);
}

::testing::AssertionResult results_identical(
    const std::vector<RunResult>& a, const std::vector<RunResult>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "size mismatch";
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i].time_s, b[i].time_s) ||
        !same_bits(a[i].energy_j, b[i].energy_j) ||
        a[i].instructions != b[i].instructions) {
      return ::testing::AssertionFailure()
             << "scalar mismatch at spec " << i;
    }
    if (a[i].nodes.size() != b[i].nodes.size()) {
      return ::testing::AssertionFailure() << "node count at spec " << i;
    }
    for (size_t n = 0; n < a[i].nodes.size(); ++n) {
      if (a[i].nodes[n].slab != b[i].nodes[n].slab ||
          a[i].nodes[n].ticks != b[i].nodes[n].ticks ||
          a[i].nodes[n].cf_opt != b[i].nodes[n].cf_opt ||
          a[i].nodes[n].uf_opt != b[i].nodes[n].uf_opt) {
        return ::testing::AssertionFailure()
               << "node " << n << " mismatch at spec " << i;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// A grid shaped like the paper benches: per model a Default baseline
/// point plus a policy point paired to it, several seeds each.
SweepGrid make_grid(const sim::MachineConfig& machine, int reps) {
  SweepGrid grid(machine);
  RunOptions opt;
  for (const char* name : {"SOR-irt", "Heat-irt"}) {
    const auto& model = workloads::find_benchmark(name);
    const int base = grid.add_default(std::string(name) + "/Default", model,
                                      opt, reps, 900);
    grid.add_policy(std::string(name) + "/Cuttlefish", model,
                    core::PolicyKind::kFull, opt, reps, 900, base);
  }
  return grid;
}

TEST(SweepGrid, SeedsDeriveFromPointBaseAndRep) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 3);
  ASSERT_EQ(grid.size(), 12u);
  ASSERT_EQ(grid.points().size(), 4u);
  for (const SweepPoint& p : grid.points()) {
    for (int rep = 0; rep < p.reps; ++rep) {
      const RunSpec& spec =
          grid.specs()[static_cast<size_t>(grid.spec_index(
              static_cast<int>(&p - grid.points().data()), rep))];
      EXPECT_EQ(spec.seed, 900u + static_cast<uint64_t>(rep));
      EXPECT_EQ(spec.rep, rep);
    }
  }
  // Policy points pair with their model's Default point.
  EXPECT_EQ(grid.points()[1].baseline_point, 0);
  EXPECT_EQ(grid.points()[3].baseline_point, 2);
}

TEST(SweepEngine, RepeatedSerialRunsAreByteIdentical) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 2);
  const auto first = run_sweep(grid, nullptr);
  const auto second = run_sweep(grid, nullptr);
  EXPECT_TRUE(results_identical(first, second));
}

TEST(SweepEngine, ParallelMatchesSerialByteForByte) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 3);
  const auto serial = run_sweep(grid, nullptr);

  // 1 worker and 4 workers must reproduce the serial table exactly,
  // including every aggregated statistic, regardless of how the runs
  // interleave across workers.
  for (const int workers : {1, 4}) {
    const auto parallel = run_sweep(grid, workers);
    EXPECT_TRUE(results_identical(serial, parallel))
        << workers << " workers";
    const auto s_sum = summarize(grid, serial);
    const auto p_sum = summarize(grid, parallel);
    ASSERT_EQ(s_sum.size(), p_sum.size());
    for (size_t i = 0; i < s_sum.size(); ++i) {
      EXPECT_TRUE(same_bits(s_sum[i].time_s, p_sum[i].time_s));
      EXPECT_TRUE(same_bits(s_sum[i].energy_j, p_sum[i].energy_j));
      EXPECT_TRUE(same_bits(s_sum[i].edp, p_sum[i].edp));
      EXPECT_EQ(s_sum[i].has_baseline, p_sum[i].has_baseline);
      if (s_sum[i].has_baseline) {
        EXPECT_TRUE(same_bits(s_sum[i].energy_savings_pct,
                              p_sum[i].energy_savings_pct));
        EXPECT_TRUE(same_bits(s_sum[i].slowdown_pct, p_sum[i].slowdown_pct));
        EXPECT_TRUE(
            same_bits(s_sum[i].edp_savings_pct, p_sum[i].edp_savings_pct));
      }
    }
  }
}

TEST(SweepEngine, ReusedSchedulerRunsBackToBackSweeps) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 2);
  const auto serial = run_sweep(grid, nullptr);
  runtime::TaskScheduler scheduler(2);
  const auto first = run_sweep(grid, &scheduler);
  const auto second = run_sweep(grid, &scheduler);
  EXPECT_TRUE(results_identical(serial, first));
  EXPECT_TRUE(results_identical(serial, second));
}

TEST(SweepEngine, SummarizePairsBaselineBySeed) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  SweepGrid grid(machine);
  const auto& model = workloads::find_benchmark("SOR-irt");
  RunOptions opt;
  const int base =
      grid.add_default("base", model, opt, /*reps=*/2, /*seed0=*/7);
  // A "policy" point that is actually another Default run with the same
  // seeds: every paired ratio must be exactly zero.
  grid.add_default("other", model, opt, 2, 7);
  const int self = grid.add_policy("self", model, core::PolicyKind::kFull,
                                   opt, 2, 7, base);
  (void)self;
  auto specs_copy = grid.specs();
  ASSERT_EQ(specs_copy.size(), 6u);

  auto results = run_sweep(grid, nullptr);
  // Overwrite the policy runs with the baseline's to isolate the pairing
  // arithmetic from the actual policy behaviour.
  results[4] = results[0];
  results[5] = results[1];
  const auto summary = summarize(grid, results);
  ASSERT_EQ(summary.size(), 3u);
  EXPECT_FALSE(summary[0].has_baseline);
  EXPECT_TRUE(summary[2].has_baseline);
  EXPECT_EQ(summary[2].energy_savings_pct.mean, 0.0);
  EXPECT_EQ(summary[2].slowdown_pct.mean, 0.0);
  EXPECT_EQ(summary[2].edp_savings_pct.mean, 0.0);
}

/// Default points over both suites at two seeds: one at default options,
/// which calibration serves, and three it must not serve (a timeline,
/// Tinv 30 ms, a 1 s warm-up).
SweepGrid make_default_grid(const sim::MachineConfig& machine) {
  SweepGrid grid(machine);
  RunOptions plain;
  RunOptions timeline;
  timeline.capture_timeline = true;
  RunOptions tinv30;
  tinv30.controller.tinv_s = 0.030;
  RunOptions warmup1;
  warmup1.controller.warmup_s = 1.0;
  for (const auto* suite :
       {&workloads::openmp_suite(), &workloads::hclib_suite()}) {
    for (const workloads::BenchmarkModel& model : *suite) {
      grid.add_default(model.name + "/Default", model, plain, 2, 40);
      grid.add_default(model.name + "/timeline", model, timeline, 2, 40);
      grid.add_default(model.name + "/Tinv30", model, tinv30, 2, 40);
      grid.add_default(model.name + "/warmup1", model, warmup1, 2, 40);
    }
  }
  return grid;
}

/// Every spec's result bytes from run_default over build_calibrated's
/// program, called directly: the oracle for any path that serves Default
/// runs from calibration.
std::vector<std::string> direct_default_bytes(const SweepGrid& grid) {
  std::map<std::pair<const workloads::BenchmarkModel*, uint64_t>,
           sim::PhaseProgram>
      programs;
  std::vector<std::string> bytes;
  for (const RunSpec& spec : grid.specs()) {
    auto it = programs.find({spec.model, spec.seed});
    if (it == programs.end()) {
      it = programs
               .emplace(std::make_pair(spec.model, spec.seed),
                        build_calibrated(*spec.model, grid.machine(),
                                         spec.seed))
               .first;
    }
    RunOptions options = spec.options;
    options.seed = spec.seed;
    bytes.push_back(
        encode_result(run_default(grid.machine(), it->second, options)));
  }
  return bytes;
}

::testing::AssertionResult bytes_match(const std::vector<std::string>& want,
                                       const std::vector<RunResult>& got) {
  if (want.size() != got.size()) {
    return ::testing::AssertionFailure() << "size mismatch";
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (encode_result(got[i]) != want[i]) {
      return ::testing::AssertionFailure() << "result bytes differ at spec "
                                           << i;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(Calibration, ServesOnlyTheRunItPerformed) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const auto& model = workloads::find_benchmark("Heat-irt");
  const Calibrated c = calibrate(model, machine, 41);
  ASSERT_TRUE(c.default_run.has_value());
  EXPECT_EQ(c.seed, 41u);
  // Time is noise-free, so the seed-41 calibration scales exactly as a
  // seed-0 one does.
  sim::PhaseProgram seed0 = model.build_program(41);
  calibrate_program(seed0, machine, model.default_time_s, 0);
  ASSERT_EQ(seed0.segments().size(), c.program.segments().size());
  for (size_t i = 0; i < seed0.segments().size(); ++i) {
    ASSERT_TRUE(same_bits(seed0.segments()[i].instructions,
                          c.program.segments()[i].instructions))
        << "segment " << i;
  }

  RunOptions performed;
  performed.seed = 41;
  const RunResult* served = c.default_run_for(performed);
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(encode_result(*served),
            encode_result(run_default(machine, c.program, performed)));

  std::vector<RunOptions> others(7, performed);
  others[0].seed = 42;
  others[1].capture_timeline = true;
  others[2].controller.tinv_s = 0.030;
  others[3].controller.warmup_s = 1.0;
  others[4].controller.resilience.max_retries = 3;
  others[5].arbiter.enabled = true;
  const hal::FaultSchedule faults;
  others[6].faults = &faults;
  for (size_t i = 0; i < others.size(); ++i) {
    EXPECT_EQ(c.default_run_for(others[i]), nullptr) << "options " << i;
  }
}

TEST(SweepEngine, CalibrationServedDefaultsMatchDirectRuns) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_default_grid(machine);
  const std::vector<std::string> want = direct_default_bytes(grid);
  const std::filesystem::path store =
      std::filesystem::temp_directory_path() /
      ("cuttlefish_sweep_test_" + std::to_string(::getpid()));
  for (const int workers : {1, 2}) {
    EXPECT_TRUE(bytes_match(want, run_sweep(grid, workers)))
        << workers << " workers, uncached";
    std::filesystem::remove_all(store);
    runtime::TaskScheduler scheduler(workers);
    {
      ResultCache cold(store.string());
      EXPECT_TRUE(bytes_match(want, run_sweep(grid, &scheduler, &cold)))
          << workers << " workers, cold cache";
    }
    ResultCache warm(store.string());
    SweepRunStats stats;
    EXPECT_TRUE(
        bytes_match(want, run_sweep(grid, &scheduler, &warm, &stats)))
        << workers << " workers, warm cache";
    EXPECT_EQ(stats.cache_hits, grid.size());
  }
  std::filesystem::remove_all(store);
  std::vector<RunResult> standalone;
  for (const RunSpec& spec : grid.specs()) {
    standalone.push_back(run_spec(spec));
  }
  EXPECT_TRUE(bytes_match(want, standalone)) << "standalone run_spec";
}

TEST(SweepEngine, SweepOrderedPreservesIndexKeying) {
  std::vector<int64_t> out(64, -1);
  runtime::TaskScheduler scheduler(4);
  sweep_ordered(
      64, [&](int64_t i) { out[static_cast<size_t>(i)] = i * i; },
      &scheduler);
  for (int64_t i = 0; i < 64; ++i) EXPECT_EQ(out[static_cast<size_t>(i)], i * i);
}

}  // namespace
}  // namespace cuttlefish::exp
