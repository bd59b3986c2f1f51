// Tests for the benchmark's own code: the order statistics, the span
// self-time arithmetic, and the replay's forwarding platform as a
// byte-identical passthrough of exp::run_spec.

#include <gtest/gtest.h>

#include "exp/calibrate.hpp"
#include "exp/result_cache.hpp"
#include "exp/sweep.hpp"
#include "replay.hpp"
#include "sim/machine_config.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads/suite.hpp"

namespace {

using namespace cuttlefish;

TEST(Stats, MedianOfOddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(cfbench::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(cfbench::median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(cfbench::median({7.0}), 7.0);
  EXPECT_DOUBLE_EQ(cfbench::median({}), 0.0);
}

TEST(Stats, PercentileInterpolatesLinearly) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(cfbench::percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(cfbench::percentile(v, 100), 100.0);
  EXPECT_DOUBLE_EQ(cfbench::percentile(v, 50), 50.5);
  EXPECT_NEAR(cfbench::percentile(v, 99), 99.01, 1e-9);
  EXPECT_DOUBLE_EQ(cfbench::percentile({10.0, 20.0}, 25), 12.5);
}

TEST(Stats, IqrShareMatchesPythonQuantilesInclusive) {
  // statistics.quantiles([1..9], n=4, method='inclusive') -> 3, 5, 7.
  const std::vector<double> v{9, 1, 8, 2, 7, 3, 6, 4, 5};
  EXPECT_DOUBLE_EQ(cfbench::iqr_share(v), (7.0 - 3.0) / 5.0);
  EXPECT_DOUBLE_EQ(cfbench::iqr_share({0.0, 0.0}), 0.0);
}

TEST(Stats, RatioOfZeroDenominatorIsZero) {
  EXPECT_DOUBLE_EQ(cfbench::ratio(3.0, 4.0), 0.75);
  EXPECT_DOUBLE_EQ(cfbench::ratio(3.0, 0.0), 0.0);
}

/// Builds spans with fixed times: root [0,100) with children A [10,40)
/// and B [50,70); A has a child [15,25); B has an estimated child of 5 ns.
std::vector<cfbench::Span> nested_spans() {
  std::vector<cfbench::Span> s;
  s.push_back({"root", -1, 0, 0, 100, false});
  s.push_back({"a", 0, 0, 10, 40, false});
  s.push_back({"b", 0, 0, 50, 70, false});
  s.push_back({"leaf", 1, 0, 15, 25, false});
  s.push_back({"leaf", 2, 0, 0, 5, true});
  return s;
}

TEST(Trace, SelfTimeSubtractsDirectChildren) {
  const auto t = cfbench::self_times(nested_spans());
  EXPECT_DOUBLE_EQ(t.at("root").total_ns, 100.0);
  EXPECT_DOUBLE_EQ(t.at("root").self_ns, 100.0 - 30.0 - 20.0);
  EXPECT_DOUBLE_EQ(t.at("a").self_ns, 30.0 - 10.0);
  EXPECT_DOUBLE_EQ(t.at("b").self_ns, 20.0 - 5.0);
  EXPECT_DOUBLE_EQ(t.at("leaf").total_ns, 15.0);
  EXPECT_DOUBLE_EQ(t.at("leaf").self_ns, 15.0);
  EXPECT_EQ(t.at("leaf").spans, 2u);
  // Self times of all names add up to the root's duration.
  double sum = 0.0;
  for (const auto& [name, lt] : t) sum += lt.self_ns;
  EXPECT_DOUBLE_EQ(sum, 100.0);
}

TEST(Trace, SelfTimeIsFlooredWhenEstimatesOvershoot) {
  std::vector<cfbench::Span> s;
  s.push_back({"parent", -1, 0, 0, 10, false});
  s.push_back({"estimate", 0, 0, 0, 25, true});
  const auto t = cfbench::self_times(s);
  EXPECT_DOUBLE_EQ(t.at("parent").self_ns, 0.0);
}

TEST(Trace, TracerNestsOpenSpans) {
  cfbench::Tracer tracer;
  const int root = tracer.begin("root");
  const int child = tracer.begin("child");
  const int est = tracer.add_estimate("est", 3.0);
  tracer.end(child);
  tracer.end(root);
  const auto& spans = tracer.spans();
  EXPECT_EQ(spans[static_cast<size_t>(child)].parent, root);
  EXPECT_EQ(spans[static_cast<size_t>(est)].parent, child);
  EXPECT_EQ(spans[static_cast<size_t>(est)].duration(), 3);
  EXPECT_GE(spans[static_cast<size_t>(root)].duration(),
            spans[static_cast<size_t>(child)].duration());
}

TEST(Replay, ForwardingPlatformReproducesRunSpecBytes) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  std::vector<workloads::BenchmarkModel> models{
      workloads::find_benchmark("HPCCG"), workloads::find_benchmark("Heat-irt")};
  const exp::SweepGrid grid =
      cfbench::build_policy_grid(models, machine, 2, 1000);
  ASSERT_EQ(grid.size(), 16u);
  int policy_specs = 0;
  for (const exp::RunSpec& spec : grid.specs()) {
    const sim::PhaseProgram program =
        exp::build_calibrated(*spec.model, machine, spec.seed);
    cfbench::ReplayStats stats;
    cfbench::Tracer tracer;
    const exp::RunResult replayed =
        cfbench::replay_spec(spec, program, &tracer, &stats);
    EXPECT_EQ(exp::encode_result(replayed),
              exp::encode_result(exp::run_spec(spec, program)))
        << cfbench::variant_span_name(spec) << " seed " << spec.seed;
    if (spec.kind == exp::RunKind::kPolicy) {
      ++policy_specs;
      EXPECT_GT(stats.tick_calls, 0u);
      EXPECT_EQ(stats.controller.ticks, replayed.stats.ticks);
      EXPECT_GT(stats.sample_calls, stats.tick_calls);  // + begin()
      EXPECT_FALSE(stats.tick_self_ns.empty());
    }
    EXPECT_GT(stats.advance_calls, 0u);
  }
  EXPECT_EQ(policy_specs, 12);
}

TEST(Replay, RejectsSpecsItDoesNotModel) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  exp::SweepGrid grid(machine);
  const workloads::BenchmarkModel& model = workloads::find_benchmark("HPCCG");
  exp::RunOptions timeline;
  timeline.capture_timeline = true;
  grid.add_default("timeline", model, timeline, 1, 1);
  grid.add_fixed("fixed", model, machine.core_ladder.max(),
                 machine.uncore_ladder.max(), exp::RunOptions{}, 1, 1);
  const sim::PhaseProgram program = exp::build_calibrated(model, machine, 1);
  for (const exp::RunSpec& spec : grid.specs()) {
    EXPECT_THROW(cfbench::replay_spec(spec, program, nullptr, nullptr),
                 std::invalid_argument);
  }
}

TEST(Grid, Fig10DigestAtTheDefaultSeedIsPinned) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const exp::SweepGrid grid =
      cfbench::build_policy_grid(workloads::openmp_suite(), machine,
                                 cfbench::kGridSeeds,
                                 cfbench::kFig10DefaultSeed);
  ASSERT_EQ(grid.size(), 400u);
  const auto results = exp::run_sweep(grid, nullptr);
  EXPECT_EQ(cfbench::sweep_digest(grid, results), cfbench::kFig10PinnedDigest);
  const cfbench::Headline h = cfbench::cuttlefish_geomeans(grid, results);
  EXPECT_NEAR(h.energy_savings_pct, 18.7645, 5e-5);
  EXPECT_NEAR(h.slowdown_pct, 1.3375, 5e-5);
}

}  // namespace
