// Arbiter microbenchmarks + the co-tenant headline number.
//
// Three sections:
//   1. allocate() cost — the pure division every tenant (and observer)
//      runs per tick, over growing tenant counts.
//   2. Shared-memory plane contention — N threads publishing to distinct
//      slots of one ShmArbiter as fast as they can; throughput plus a
//      post-join consistency check.
//   3. Co-tenant sweep — four co-scheduled sessions under one node power
//      budget, uncoordinated (RAPL-style firmware backstop) vs arbitrated
//      (shared plane, self-clamping). The acceptance number this binary
//      hard-fails on: arbitrated node EDP must beat uncoordinated.
//
// Writes BENCH_arbiter.json (override with --json-out).

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "arbiter/arbiter.hpp"
#include "arbiter/shm_arbiter.hpp"
#include "bench_util.hpp"
#include "exp/cotenant.hpp"
#include "sim/machine_config.hpp"

namespace {

using namespace cuttlefish;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- 1. allocate() cost -----------------------------------------------

void bench_allocate(benchharness::JsonWriter* json) {
  std::printf("allocate() cost (the per-tick division)\n");
  benchharness::print_rule(60);
  benchharness::JsonWriter section;
  for (const int tenants : {2, 4, 16, 64}) {
    std::vector<double> demands(static_cast<size_t>(tenants));
    for (int i = 0; i < tenants; ++i) {
      demands[static_cast<size_t>(i)] = 40.0 + 13.0 * (i % 7);
    }
    const int iters = 200000;
    double sink = 0.0;
    const double t0 = now_s();
    for (int i = 0; i < iters; ++i) {
      // Alternate policies so neither branch trains the predictor alone.
      const auto policy = (i & 1) != 0
                              ? arbiter::SharePolicy::kEqualShare
                              : arbiter::SharePolicy::kDemandWeighted;
      sink += arbiter::allocate(policy, 150.0, demands)[0];
    }
    const double ns = (now_s() - t0) / iters * 1e9;
    std::printf("  %3d tenants  %8.0f ns/call   (sink %.1f)\n", tenants, ns,
                sink);
    section.field("allocate_ns_" + std::to_string(tenants), ns, 1);
  }
  json->raw("allocate", section.compact());
}

// ---- 2. plane contention ----------------------------------------------

int bench_contention(benchharness::JsonWriter* json) {
  char tmpl[] = "/tmp/cf-arbiter-bench-XXXXXX";
  if (mkdtemp(tmpl) == nullptr) {
    std::fprintf(stderr, "micro_arbiter: mkdtemp failed\n");
    return 1;
  }
  const std::string plane = std::string(tmpl) + "/plane";
  arbiter::ArbiterConfig cfg;
  cfg.budget_w = 150.0;
  cfg.policy = arbiter::SharePolicy::kEqualShare;
  std::string error;
  const auto arb = arbiter::ShmArbiter::open(plane, cfg, 16, &error);
  if (arb == nullptr) {
    std::fprintf(stderr, "micro_arbiter: %s\n", error.c_str());
    return 1;
  }

  constexpr int kThreads = 4;
  constexpr int kTicks = 20000;
  std::vector<int> slots(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    slots[static_cast<size_t>(i)] = arb->attach();
    if (slots[static_cast<size_t>(i)] < 0) {
      std::fprintf(stderr, "micro_arbiter: attach failed\n");
      return 1;
    }
  }
  const double t0 = now_s();
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        arbiter::Demand d;
        for (int tick = 1; tick <= kTicks; ++tick) {
          d.watts = 30.0 + static_cast<double>((tick + i) % 17);
          d.jpi = 1e-9;
          d.tipi = 0.01;
          (void)arb->publish(slots[static_cast<size_t>(i)], d,
                             static_cast<uint64_t>(tick));
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  const double elapsed = now_s() - t0;
  const double per_publish_us =
      elapsed / (static_cast<double>(kThreads) * kTicks) * 1e6;

  // Post-join consistency: every slot live, every grant from the same
  // pure division any observer would compute.
  const auto view = arb->view();
  if (arb->active_tenants() != kThreads ||
      view.size() != static_cast<size_t>(kThreads)) {
    std::fprintf(stderr, "micro_arbiter: plane lost tenants under load\n");
    return 1;
  }
  double granted = 0.0;
  for (const auto& slot : view) granted += slot.grant.watts;
  std::printf(
      "plane contention: %d threads x %d publishes  %.2f us/publish  "
      "(granted %.1f W of %.1f W budget)\n",
      kThreads, kTicks, per_publish_us, granted, cfg.budget_w);

  benchharness::JsonWriter section;
  section.field("threads", kThreads);
  section.field("publishes_per_thread", kTicks);
  section.field("publish_us", per_publish_us, 3);
  json->raw("contention", section.compact());

  arb->detach(slots[0]);  // exercise detach before teardown
  std::remove(plane.c_str());
  rmdir(tmpl);
  return 0;
}

// ---- 3. co-tenant sweep ------------------------------------------------

/// Four tenants with staggered compute/memory mixes, so demand varies and
/// phases interleave — the workload shape arbitration exists for.
sim::PhaseProgram tenant_program(int tenant) {
  sim::PhaseProgram program;
  const double base = 1.5e10 + 1.0e9 * tenant;
  for (int rep = 0; rep < 40; ++rep) {
    program.add(base, 1.0 + 0.05 * tenant, 0.02);
    program.add(base * 0.8, 1.2, 0.20 + 0.02 * tenant);
  }
  return program;
}

std::string mode_json(const exp::CotenantResult& r) {
  benchharness::JsonWriter row;
  row.field("node_time_s", r.node_time_s, 3);
  row.field("node_energy_j", r.node_energy_j, 1);
  row.field("node_edp", r.node_edp(), 1);
  row.field("peak_node_power_w", r.peak_node_power_w, 1);
  row.field("backstop_interventions",
            static_cast<int64_t>(r.backstop_interventions));
  uint64_t grants = 0, revocations = 0;
  for (const auto& t : r.tenants) {
    grants += t.grants;
    revocations += t.revocations;
  }
  row.field("grants", static_cast<int64_t>(grants));
  row.field("revocations", static_cast<int64_t>(revocations));
  return row.compact();
}

void print_mode(const char* name, const exp::CotenantResult& r,
                const exp::CotenantResult& ref) {
  std::printf("  %-22s  time %7.2f s  energy %9.1f J  node EDP %12.1f"
              "  (%+6.1f%% vs uncapped)  peak %6.1f W\n",
              name, r.node_time_s, r.node_energy_j, r.node_edp(),
              (r.node_edp() / ref.node_edp() - 1.0) * 100.0,
              r.peak_node_power_w);
}

int bench_cotenants(benchharness::JsonWriter* json) {
  constexpr int kTenants = 4;
  const sim::MachineConfig machine = sim::haswell_2650v3();
  std::vector<sim::PhaseProgram> programs;
  for (int i = 0; i < kTenants; ++i) programs.push_back(tenant_program(i));

  exp::CotenantOptions opt;
  opt.seed = 42;

  std::printf("\nco-tenant sweep: %d sessions, one node budget\n", kTenants);
  benchharness::print_rule(110);

  // Uncapped reference fixes the budget: 45%% of the average node draw.
  opt.budget_w = 0.0;
  const exp::CotenantResult ref = exp::run_cotenants(machine, programs, opt);
  const double uncapped_w = ref.node_energy_j / ref.node_time_s;
  const double budget = 0.45 * uncapped_w;
  print_mode("uncapped reference", ref, ref);

  opt.budget_w = budget;
  opt.arbitrated = false;
  const exp::CotenantResult uncoord =
      exp::run_cotenants(machine, programs, opt);
  print_mode("uncoordinated+backstop", uncoord, ref);

  opt.arbitrated = true;
  opt.share_policy = arbiter::SharePolicy::kEqualShare;
  const exp::CotenantResult arb_equal =
      exp::run_cotenants(machine, programs, opt);
  print_mode("arbitrated equal-share", arb_equal, ref);

  opt.share_policy = arbiter::SharePolicy::kDemandWeighted;
  const exp::CotenantResult arb_demand =
      exp::run_cotenants(machine, programs, opt);
  print_mode("arbitrated demand-wtd", arb_demand, ref);

  benchharness::print_rule(110);
  const double best_arb =
      std::min(arb_equal.node_edp(), arb_demand.node_edp());
  std::printf(
      "budget %.1f W (45%% of uncapped %.1f W)   backstop interventions "
      "%" PRIu64 "   arbitrated/uncoordinated EDP %.3f\n",
      budget, uncapped_w, uncoord.backstop_interventions,
      best_arb / uncoord.node_edp());

  json->field("tenants", kTenants);
  json->field("uncapped_node_power_w", uncapped_w, 1);
  json->field("budget_w", budget, 1);
  json->raw("uncapped", mode_json(ref));
  json->raw("uncoordinated", mode_json(uncoord));
  json->raw("arbitrated_equal", mode_json(arb_equal));
  json->raw("arbitrated_demand", mode_json(arb_demand));

  const bool win = arb_equal.node_edp() < uncoord.node_edp();
  json->field("arbitrated_beats_uncoordinated", win);
  if (!win) {
    std::fprintf(stderr,
                 "micro_arbiter: FAIL — arbitrated node EDP %.1f did not "
                 "beat uncoordinated %.1f under the %.1f W budget\n",
                 arb_equal.node_edp(), uncoord.node_edp(), budget);
    return 1;
  }
  std::printf("PASS: arbitrated sessions beat the uncoordinated backstop "
              "on node EDP (%.1f < %.1f)\n",
              arb_equal.node_edp(), uncoord.node_edp());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args =
      benchharness::parse_args(argc, argv, 1, /*has_reps=*/false);
  benchharness::JsonWriter json;

  bench_allocate(&json);
  if (const int rc = bench_contention(&json); rc != 0) return rc;
  const int rc = bench_cotenants(&json);

  const std::string out =
      args.json_out.empty() ? "BENCH_arbiter.json" : args.json_out;
  json.write(out);
  return rc;
}
