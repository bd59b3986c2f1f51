// cuttlefishctl — operator tool for probing backends and demonstrating
// the Cuttlefish policies.
//
//   cuttlefishctl backends                   registry: probe + capabilities
//   cuttlefishctl probe                      host + simulator summary
//   cuttlefishctl policies                   registered controller kinds +
//                                            required capabilities
//   cuttlefishctl demo  <benchmark> [policy] co-simulated run + results
//   cuttlefishctl trace <benchmark> [policy] [lines]
//                                            decision log of a run
//   cuttlefishctl list                       available benchmarks
//   cuttlefishctl regions [profiles.json]    cached region profiles (no
//                                            file: run a warm-start demo)
//   cuttlefishctl cache stats  <dir>         sweep result cache summary
//   cuttlefishctl cache verify <dir> [--sample N]
//                                            re-simulate cached entries and
//                                            compare byte-for-byte
//   cuttlefishctl cache gc <dir> --max-bytes N
//                                            drop oldest shards to fit N
//   cuttlefishctl faults [benchmark]         fault-injection walkthrough:
//                                            retry, quarantine, re-narrow,
//                                            heal, warm restart
//   cuttlefishctl arbiter init <file> --budget W [--policy P] [--slots N]
//                                            create a coordination plane
//   cuttlefishctl arbiter status <file>      plane header + live slot table
//   cuttlefishctl arbiter demo [tenants] [budget_w]
//                                            co-tenant comparison: backstop
//                                            vs arbitrated under one budget
//   cuttlefishctl sweep run <dir> [--runs N] [--workers N] [--attempts K]
//                           [--spec-timeout S] [--sweep-timeout S]
//                           [--crash-at SPEC:MODE[:N]]
//                                            crash-safe supervised sweep of
//                                            the built-in demo grid,
//                                            journaled into <dir>
//   cuttlefishctl sweep resume <dir> [...]   finish an interrupted run
//                                            (same flags as `run`)
//   cuttlefishctl sweep status <dir>         journal + quarantine summary
//
// policy: full (default) | core | uncore | monitor | mpc — any name
// `cuttlefishctl policies` lists.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>

#include "arbiter/arbiter.hpp"
#include "arbiter/shm_arbiter.hpp"
#include "core/api.hpp"
#include "core/controller_factory.hpp"
#include "core/env_config.hpp"
#include "core/region.hpp"
#include "core/session.hpp"
#include "core/trace.hpp"
#include "exp/calibrate.hpp"
#include "exp/cotenant.hpp"
#include "exp/driver.hpp"
#include "exp/metrics.hpp"
#include "exp/result_cache.hpp"
#include "exp/spec_digest.hpp"
#include "exp/supervisor.hpp"
#include "exp/sweep.hpp"
#include "hal/cpufreq.hpp"
#include "hal/fault_injection.hpp"
#include "hal/linux_msr.hpp"
#include "sim/machine_config.hpp"
#include "sim/sim_machine.hpp"
#include "sim/sim_platform.hpp"
#include "workloads/suite.hpp"

using namespace cuttlefish;

namespace {

int cmd_backends() {
  std::printf("%-9s %4s %-10s %-44s %s\n", "backend", "pri", "available",
              "capabilities", "detail");
  for (const BackendStatus& b : list_backends()) {
    std::printf("%-9s %4d %-10s %-44s %s\n", b.name.c_str(), b.priority,
                b.available ? (b.auto_selected ? "yes (auto)" : "yes")
                            : "no",
                b.capabilities.c_str(), b.detail.c_str());
  }
  std::printf(
      "\nauto-probe order: descending priority; negative priorities are\n"
      "explicit-only. Force one with CUTTLEFISH_BACKEND=<name> or\n"
      "Options::backend; CUTTLEFISH_MSR_ROOT / CUTTLEFISH_POWERCAP_ROOT /\n"
      "CUTTLEFISH_CPUFREQ_ROOT relocate the probed device trees (tests,\n"
      "containers).\n");
  return 0;
}

int cmd_probe() {
  std::printf("MSR access (/dev/cpu/*/msr):    %s\n",
              hal::LinuxMsrPlatform::available() ? "available"
                                                 : "not available");
  hal::CpufreqActuator cpufreq;
  std::printf("cpufreq sysfs:                  %s (%d cpus)\n",
              cpufreq.available() ? "available" : "not available",
              cpufreq.cpu_count());
  std::string auto_backend = "?";
  for (const BackendStatus& b : list_backends()) {
    if (b.auto_selected) auto_backend = b.name;
  }
  std::printf("start() would auto-select:      %s  (see `cuttlefishctl "
              "backends`)\n",
              auto_backend.c_str());
  const sim::MachineConfig hw = sim::haswell_2650v3();
  std::printf("simulator (always available):   20-core Haswell model\n");
  std::printf("  core ladder:   %s\n", hw.core_ladder.to_string().c_str());
  std::printf("  uncore ladder: %s\n",
              hw.uncore_ladder.to_string().c_str());
  std::printf("  bandwidth knee: %.2f GHz uncore\n",
              hw.dram_bw_gbs / hw.uncore_bw_gbs_per_ghz);
  std::printf("\nenvironment overrides honoured by cuttlefish::start():\n"
              "  CUTTLEFISH_BACKEND, CUTTLEFISH_POLICY, CUTTLEFISH_TINV_MS, "
              "CUTTLEFISH_WARMUP_S,\n"
              "  CUTTLEFISH_JPI_SAMPLES, CUTTLEFISH_SLAB_WIDTH, "
              "CUTTLEFISH_NARROWING,\n  CUTTLEFISH_REVALIDATION\n");
  return 0;
}

int cmd_list() {
  std::printf("%-10s %-16s %10s %8s\n", "name", "parallelism", "time(s)",
              "memory?");
  for (const auto& m : workloads::openmp_suite()) {
    std::printf("%-10s %-16s %10.1f %8s\n", m.name.c_str(),
                m.parallelism.c_str(), m.default_time_s,
                m.memory_bound ? "yes" : "no");
  }
  return 0;
}

/// A whole-number argument in [lo, hi]; anything else ("2x", "2.5", out
/// of range) exits 2 naming the argument.
int int_arg(const char* name, const char* text, int lo, int hi) {
  const auto value = core::parse_int_in_range(text, lo, hi);
  if (!value) {
    std::fprintf(stderr, "%s expects a whole number in %d..%d, got '%s'\n",
                 name, lo, hi, text);
    std::exit(2);
  }
  return *value;
}

/// A finite positive argument; anything else exits 2 naming it.
double positive_arg(const char* name, const char* text) {
  const auto value = core::parse_positive_double(text);
  if (!value) {
    std::fprintf(stderr, "%s expects a positive number, got '%s'\n", name,
                 text);
    std::exit(2);
  }
  return *value;
}

core::PolicyKind parse_policy_arg(const char* arg) {
  if (arg == nullptr) return core::PolicyKind::kFull;
  const auto parsed = core::policy_kind_from_string(arg);
  if (!parsed) {
    std::fprintf(stderr, "unknown policy '%s' (registered: %s), using full\n",
                 arg, core::known_policy_names().c_str());
    return core::PolicyKind::kFull;
  }
  return *parsed;
}

int cmd_policies() {
  std::printf("%-8s %-18s %-44s %s\n", "name", "display", "requires",
              "description");
  for (const core::PolicyInfo& info : core::registered_policies()) {
    std::printf("%-8s %-18s %-44s %s\n", info.name, info.display,
                info.requires_caps, info.description);
  }
  std::printf("\nselect with `demo/trace <benchmark> <name>` or "
              "CUTTLEFISH_POLICY=<name>\n");
  return 0;
}

int cmd_demo(const char* bench, const char* policy_arg) {
  const auto& model = workloads::find_benchmark(bench);
  const core::PolicyKind policy = parse_policy_arg(policy_arg);
  const sim::MachineConfig machine = sim::haswell_2650v3();
  sim::PhaseProgram program = exp::build_calibrated(model, machine, 1);

  exp::RunOptions opt;
  const exp::RunResult base = exp::run_default(machine, program, opt);
  const exp::RunResult pol = exp::run_policy(machine, program, policy, opt);
  const exp::Comparison c = exp::compare(pol, base);

  std::printf("%s under %s on the simulated Haswell\n", model.name.c_str(),
              core::to_string(policy));
  std::printf("  Default:    %7.2f s  %9.1f J  (%.1f W avg)\n", base.time_s,
              base.energy_j, base.avg_power_w());
  std::printf("  %-10s  %7.2f s  %9.1f J  (%.1f W avg)\n",
              core::to_string(policy), pol.time_s, pol.energy_j,
              pol.avg_power_w());
  std::printf("  savings %.1f%%  slowdown %.1f%%  EDP savings %.1f%%\n",
              c.energy_savings_pct, c.slowdown_pct, c.edp_savings_pct);
  std::printf("  TIPI ranges (%zu):\n", pol.nodes.size());
  const TipiSlabber slabber;
  for (const auto& n : pol.nodes) {
    std::printf("    %s  %6llu ticks  CFopt %s  UFopt %s\n",
                slabber.range_label(n.slab).c_str(),
                static_cast<unsigned long long>(n.ticks),
                n.cf_opt == kNoLevel
                    ? "-"
                    : std::to_string(machine.core_ladder.at(n.cf_opt).value)
                          .c_str(),
                n.uf_opt == kNoLevel
                    ? "-"
                    : std::to_string(
                          machine.uncore_ladder.at(n.uf_opt).value)
                          .c_str());
  }
  return 0;
}

// trace <benchmark> [policy] [lines]: the optional middle argument is a
// registered policy name; a bare integer there is taken as the line
// count (the historical two-argument form).
int cmd_trace(const char* bench, const char* policy_arg,
              const char* lines_arg) {
  const auto& model = workloads::find_benchmark(bench);
  if (policy_arg != nullptr && lines_arg == nullptr &&
      !core::policy_kind_from_string(policy_arg)) {
    lines_arg = policy_arg;
    policy_arg = nullptr;
  }
  const int max_lines =
      lines_arg != nullptr ? int_arg("trace: lines", lines_arg, 0, 1000000)
                           : 40;
  const sim::MachineConfig machine = sim::haswell_2650v3();
  sim::PhaseProgram program = exp::build_calibrated(model, machine, 1);

  sim::SimMachine sim_machine(machine, program, 1);
  sim::SimPlatform platform(sim_machine);
  core::ControllerConfig cfg;
  cfg.policy = parse_policy_arg(policy_arg);
  const std::unique_ptr<core::IController> controller =
      core::make_controller(platform, cfg);
  core::DecisionTrace trace(65536);
  controller->set_trace(&trace);

  for (double t = 0.0; t < cfg.warmup_s; t += cfg.tinv_s) {
    sim_machine.advance(cfg.tinv_s);
  }
  controller->begin();
  while (!sim_machine.workload_done()) {
    sim_machine.advance(cfg.tinv_s);
    controller->tick();
  }

  const std::string text =
      trace.to_text(machine.core_ladder, machine.uncore_ladder);
  int printed = 0;
  size_t pos = 0;
  while (printed < max_lines && pos < text.size()) {
    const size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) break;
    std::printf("%s\n", text.substr(pos, eol - pos).c_str());
    pos = eol + 1;
    ++printed;
  }
  std::printf("... (%llu decisions total; showing %d)\n",
              static_cast<unsigned long long>(trace.total_recorded()),
              printed);
  return 0;
}

void print_profiles(const Session& session) {
  std::printf("%-16s %8s %12s %8s %8s %8s\n", "region", "entries",
              "warm-starts", "ranges", "CFopt", "UFopt");
  for (const RegionProfileInfo& info : session.region_profiles()) {
    std::printf("%-16s %8llu %12llu %8zu %8zu %8zu\n", info.name.c_str(),
                static_cast<unsigned long long>(info.entries),
                static_cast<unsigned long long>(info.warm_starts),
                info.nodes, info.cf_resolved, info.uf_resolved);
  }
}

int cmd_regions(const char* path) {
  if (path != nullptr) {
    // Inspect a profile file written by Session::save_profiles(). The
    // session is backed by the paper's simulated Haswell, whose ladder
    // shape matches profiles recorded against it (mismatched profiles
    // are listed as skipped by the loader's warnings).
    const sim::MachineConfig machine = sim::haswell_2650v3();
    const auto& model = workloads::find_benchmark("HPCCG");
    const sim::PhaseProgram program =
        exp::build_calibrated(model, machine, 1);
    sim::SimMachine sim_machine(machine, program, 1);
    sim::SimPlatform platform(sim_machine);
    Options options;
    options.manual_tick = true;
    Session session(platform, options);
    if (!session.load_profiles(path)) return 1;
    print_profiles(session);
    return 0;
  }

  // No file: demonstrate the warm start live. One CG solve, entered
  // twice through a manual-tick session in virtual time.
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const auto& model = workloads::find_benchmark("HPCCG");
  const sim::PhaseProgram cycle = exp::build_calibrated(model, machine, 1);
  sim::PhaseProgram program;
  program.repeat(2, cycle.segments());

  sim::SimMachine sim_machine(machine, program, 1);
  sim::SimPlatform platform(sim_machine);
  Options options;
  options.manual_tick = true;
  Session session(platform, options);
  const core::ControllerConfig& cfg = session.controller()->config();
  for (double t = 0.0; t < cfg.warmup_s; t += cfg.tinv_s) {
    sim_machine.advance(cfg.tinv_s);
  }
  session.tick();
  const double cycle_instructions = cycle.total_instructions();
  for (int entry = 1; entry <= 2; ++entry) {
    Region region(session, "cg-solve");
    while (!sim_machine.workload_done() &&
           platform.sample_sensors().sample.instructions <
               static_cast<uint64_t>(cycle_instructions) *
                   static_cast<uint64_t>(entry)) {
      sim_machine.advance(cfg.tinv_s);
      session.tick();
    }
  }
  print_profiles(session);
  std::printf(
      "\n(the second \"cg-solve\" entry replayed the cached profile —\n"
      "save with Session::save_profiles() to persist optima across runs)\n");
  return 0;
}

int cmd_cache_stats(const char* dir) {
  exp::ResultCache cache(dir);
  const auto stats = cache.stats();
  std::printf("cache %s\n", cache.dir().c_str());
  std::printf("  entries:         %zu\n", stats.entries);
  std::printf("  shards:          %zu\n", stats.shards);
  std::printf("  bytes:           %llu\n",
              static_cast<unsigned long long>(stats.bytes));
  std::printf("  skipped records: %llu%s\n",
              static_cast<unsigned long long>(stats.skipped_records),
              stats.skipped_records != 0
                  ? "  (corrupt/truncated — re-simulated on next sweep)"
                  : "");
  const auto last = cache.last_run();
  if (last.present) {
    const uint64_t total = last.hits + last.misses;
    std::printf("  last run:        %llu hits / %llu misses (%.1f%% hit "
                "rate)\n",
                static_cast<unsigned long long>(last.hits),
                static_cast<unsigned long long>(last.misses),
                total != 0 ? 100.0 * static_cast<double>(last.hits) /
                                 static_cast<double>(total)
                           : 0.0);
  } else {
    std::printf("  last run:        (none recorded)\n");
  }
  return 0;
}

// Trust-but-verify for a cache that outlives code changes: decode each
// sampled entry's canonical spec, re-run the co-simulation, and require
// the fresh result to be byte-identical to the stored one. Any digest
// collision, codec drift, or silent simulator change shows up here.
int cmd_cache_verify(const char* dir, int sample) {
  exp::ResultCache cache(dir);
  if (cache.size() == 0) {
    std::printf("cache %s is empty — nothing to verify\n",
                cache.dir().c_str());
    return 0;
  }
  const size_t n = cache.size();
  const size_t want = sample <= 0 ? n : static_cast<size_t>(sample);
  // Deterministic stride sampling: same entries every invocation, spread
  // across shards rather than clustered at the front.
  const size_t step = want >= n ? 1 : n / want;
  size_t checked = 0, mismatches = 0, unreadable = 0;
  for (size_t i = 0; i < n && checked < want; i += step, ++checked) {
    exp::ResultCache::EntryView view;
    if (!cache.entry(i, &view)) {
      std::printf("  entry %zu: UNREADABLE\n", i);
      ++unreadable;
      continue;
    }
    const auto decoded =
        exp::decode_spec(view.spec_blob.data(), view.spec_blob.size());
    if (decoded == nullptr) {
      std::printf("  entry %zu (%s): spec blob no longer decodes\n", i,
                  view.digest.hex().c_str());
      ++unreadable;
      continue;
    }
    const exp::RunResult fresh = exp::run_spec(decoded->spec);
    if (exp::encode_result(fresh) != exp::encode_result(view.result)) {
      std::printf("  entry %zu (%s): MISMATCH vs fresh simulation\n", i,
                  view.digest.hex().c_str());
      ++mismatches;
    }
  }
  std::printf("verified %zu of %zu entries: %zu identical, %zu mismatched, "
              "%zu unreadable\n",
              checked, n, checked - mismatches - unreadable, mismatches,
              unreadable);
  return mismatches + unreadable != 0 ? 1 : 0;
}

int cmd_cache_gc(const char* dir, const char* max_bytes_arg) {
  char* end = nullptr;
  const unsigned long long max_bytes = std::strtoull(max_bytes_arg, &end, 10);
  if (end == max_bytes_arg || *end != '\0') {
    std::fprintf(stderr, "cache gc: --max-bytes expects an integer, got "
                         "'%s'\n",
                 max_bytes_arg);
    return 2;
  }
  exp::ResultCache cache(dir);
  const auto before = cache.stats();
  const uint64_t removed = cache.gc(max_bytes);
  const auto after = cache.stats();
  std::printf("gc %s to <= %llu bytes: removed %llu bytes (%zu -> %zu "
              "shards, %zu -> %zu entries)\n",
              cache.dir().c_str(), max_bytes,
              static_cast<unsigned long long>(removed), before.shards,
              after.shards, before.entries, after.entries);
  return 0;
}

int cmd_cache(int argc, char** argv) {
  const std::string sub = argc >= 3 ? argv[2] : "";
  if (sub == "stats" && argc == 4) return cmd_cache_stats(argv[3]);
  if (sub == "verify" && argc >= 4) {
    int sample = 0;  // 0 = every entry
    if (argc == 6 && std::string(argv[4]) == "--sample") {
      sample = int_arg("cache verify: --sample", argv[5], 1, 1000000);
    } else if (argc != 4) {
      std::fprintf(stderr,
                   "usage: cuttlefishctl cache verify <dir> [--sample N]\n");
      return 2;
    }
    return cmd_cache_verify(argv[3], sample);
  }
  if (sub == "gc" && argc == 6 && std::string(argv[4]) == "--max-bytes") {
    return cmd_cache_gc(argv[3], argv[5]);
  }
  std::fprintf(stderr,
               "usage: cuttlefishctl cache stats <dir> | cache verify <dir> "
               "[--sample N] | cache gc <dir> --max-bytes N\n");
  return 2;
}

// Walk the fault-tolerance machinery (docs/FAULTS.md) end to end on the
// simulator: a transient sensor blip absorbed by in-call retries, then an
// uncore actuator outage long enough to quarantine the device, re-narrow
// the policy to core-only, and — once backoff probes find it healed —
// re-widen with a warm restart from the pre-quarantine snapshot.
int cmd_faults(const char* bench) {
  const auto& model =
      workloads::find_benchmark(bench != nullptr ? bench : "HPCCG");
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const sim::PhaseProgram program =
      exp::build_calibrated(model, machine, 1);

  sim::SimMachine sim_machine(machine, program, 1);
  sim::SimPlatform platform(sim_machine);

  hal::FaultSchedule schedule;
  // A 2-op sensor failure: shorter than the in-call retry budget, so the
  // controller's decision stream is unperturbed (only io_retries moves).
  schedule.add({hal::FaultKind::kSensorError, 60, 2, 0});
  // A 9-op uncore write outage: outlasts the retry budget, so the device
  // is quarantined and the policy re-narrows until backoff probes heal it.
  schedule.add({hal::FaultKind::kUncoreWriteError, 1, 9, 0});
  hal::FaultInjectionPlatform faulty(platform, schedule);

  std::printf("injected fault schedule:\n");
  for (const hal::FaultWindow& w : schedule.windows()) {
    std::printf("  %-18s ops [%llu, %llu)\n", hal::to_string(w.kind),
                static_cast<unsigned long long>(w.start_op),
                static_cast<unsigned long long>(
                    w.start_op + (w.duration_ops != 0 ? w.duration_ops
                                                      : ~0ull)));
  }

  core::ControllerConfig cfg;
  const std::unique_ptr<core::IController> controller =
      core::make_controller(faulty, cfg);
  core::DecisionTrace trace(1 << 16);
  controller->set_trace(&trace);

  for (double t = 0.0; t < cfg.warmup_s; t += cfg.tinv_s) {
    sim_machine.advance(cfg.tinv_s);
  }
  controller->begin();
  while (!sim_machine.workload_done()) {
    sim_machine.advance(cfg.tinv_s);
    controller->tick();
  }

  std::printf("\ncapability lifecycle (%s on the simulated Haswell):\n",
              model.name.c_str());
  for (const core::TraceRecord& rec : trace.snapshot()) {
    if (rec.event != core::TraceEvent::kCapabilityDegraded &&
        rec.event != core::TraceEvent::kCapabilityRestored &&
        rec.event != core::TraceEvent::kSafeStop) {
      continue;
    }
    std::printf("  tick %6llu  %-20s %s\n",
                static_cast<unsigned long long>(rec.tick),
                core::to_string(rec.event),
                hal::CapabilitySet(rec.aux).to_string().c_str());
  }

  const core::ControllerStats& stats = controller->stats();
  const hal::FaultStats& injected = faulty.fault_stats();
  std::printf("\ninjector:   %llu sensor errors, %llu actuator errors\n",
              static_cast<unsigned long long>(injected.sensor_errors),
              static_cast<unsigned long long>(injected.actuator_errors));
  std::printf("controller: %llu in-call retries, %llu ticks lost to sensor "
              "errors,\n            %llu writes failed after retries, "
              "%llu quarantines, %llu recoveries\n",
              static_cast<unsigned long long>(stats.io_retries),
              static_cast<unsigned long long>(stats.sensor_read_errors),
              static_cast<unsigned long long>(stats.actuator_write_errors),
              static_cast<unsigned long long>(stats.quarantines),
              static_cast<unsigned long long>(stats.recoveries));
  std::printf("final policy: %s (requested %s)\n",
              core::to_string(controller->effective_policy()),
              core::to_string(cfg.policy));
  std::printf(
      "\n(the transient blip cost retries but no decisions; the uncore\n"
      "outage quarantined the actuator, re-narrowed to core-only, then\n"
      "healed, re-widened, and warm-restarted from the snapshot)\n");
  return 0;
}

int cmd_arbiter_init(int argc, char** argv) {
  // arbiter init <file> --budget W [--policy P] [--slots N]
  const char* path = argv[3];
  arbiter::ArbiterConfig cfg;
  int slots = 16;
  bool have_budget = false;
  for (int i = 4; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "arbiter init: %s expects a value\n",
                   flag.c_str());
      return 2;
    }
    const char* value = argv[i + 1];
    if (flag == "--budget") {
      cfg.budget_w = positive_arg("arbiter init: --budget", value);
      have_budget = true;
    } else if (flag == "--policy") {
      const auto parsed = arbiter::share_policy_from_string(value);
      if (!parsed) {
        std::fprintf(stderr,
                     "arbiter init: unknown policy '%s' (equal-share | "
                     "demand-weighted)\n",
                     value);
        return 2;
      }
      cfg.policy = *parsed;
    } else if (flag == "--slots") {
      slots = int_arg("arbiter init: --slots", value, 1, 4096);
    } else {
      std::fprintf(stderr, "arbiter init: unknown flag '%s'\n", flag.c_str());
      return 2;
    }
  }
  if (!have_budget) {
    std::fprintf(stderr, "arbiter init: --budget W is required\n");
    return 2;
  }
  std::string error;
  const auto arb = arbiter::ShmArbiter::open(path, cfg, slots, &error);
  if (arb == nullptr) {
    std::fprintf(stderr, "arbiter init: %s\n", error.c_str());
    return 1;
  }
  // An existing plane's header wins over our flags — echo what's in force.
  const arbiter::ArbiterConfig live = arb->config();
  std::printf("plane %s: budget %.1f W, policy %s, %d slots\n",
              arb->path().c_str(), live.budget_w,
              arbiter::to_string(live.policy), arb->nslots());
  std::printf("sessions join with CUTTLEFISH_ARBITER=%s\n", path);
  return 0;
}

int cmd_arbiter_status(const char* path) {
  std::string error;
  // Open without creating config of our own: an existing plane's header
  // wins; if the file doesn't exist this creates an empty uncapped plane,
  // so check first and say so instead.
  if (FILE* f = std::fopen(path, "rb"); f != nullptr) {
    std::fclose(f);
  } else {
    std::fprintf(stderr, "arbiter status: no plane at %s (create one with "
                         "`cuttlefishctl arbiter init`)\n",
                 path);
    return 1;
  }
  const auto arb =
      arbiter::ShmArbiter::open(path, arbiter::ArbiterConfig{}, 16, &error);
  if (arb == nullptr) {
    std::fprintf(stderr, "arbiter status: %s\n", error.c_str());
    return 1;
  }
  const arbiter::ArbiterConfig cfg = arb->config();
  std::printf("plane %s\n", arb->path().c_str());
  if (cfg.budget_w > 0.0) {
    std::printf("  budget: %.1f W   policy: %s   slots: %d\n", cfg.budget_w,
                arbiter::to_string(cfg.policy), arb->nslots());
  } else {
    std::printf("  budget: uncapped   policy: %s   slots: %d\n",
                arbiter::to_string(cfg.policy), arb->nslots());
  }
  const auto view = arb->view();
  std::printf("  tenants: %zu\n", view.size());
  if (!view.empty()) {
    std::printf("  %4s %8s %10s %10s %10s %8s %10s %s\n", "slot", "pid",
                "tick", "demand W", "jpi", "tipi", "grant W", "capped");
    for (const arbiter::SlotView& s : view) {
      std::printf("  %4d %8u %10llu %10.1f %10.2e %8.3f %10.1f %s\n",
                  s.slot, s.pid, static_cast<unsigned long long>(s.tick),
                  s.demand.watts, s.demand.jpi, s.demand.tipi,
                  s.grant.watts, s.grant.capped ? "yes" : "no");
    }
  }
  return 0;
}

// A pocket version of bench/micro_arbiter's co-tenant comparison: N
// sessions on one simulated node, uncoordinated firmware backstop vs the
// arbitrated plane, same budget.
int cmd_arbiter_demo(const char* tenants_arg, const char* budget_arg) {
  const int tenants =
      tenants_arg != nullptr ? int_arg("arbiter demo: tenants", tenants_arg,
                                       1, 64)
                             : 4;
  const double budget_w =
      budget_arg != nullptr ? positive_arg("arbiter demo: budget_w",
                                           budget_arg)
                            : 0.0;  // 0: 45% of the uncapped draw
  const sim::MachineConfig machine = sim::haswell_2650v3();
  std::vector<sim::PhaseProgram> programs;
  for (int i = 0; i < tenants; ++i) {
    sim::PhaseProgram p;
    const double base = 1.5e10 + 1.0e9 * i;
    for (int rep = 0; rep < 10; ++rep) {
      p.add(base, 1.0 + 0.05 * i, 0.02);
      p.add(base * 0.8, 1.2, 0.20 + 0.02 * i);
    }
    programs.push_back(std::move(p));
  }

  exp::CotenantOptions opt;
  opt.seed = 42;
  opt.budget_w = 0.0;
  const exp::CotenantResult ref = exp::run_cotenants(machine, programs, opt);
  const double uncapped_w = ref.node_energy_j / ref.node_time_s;
  const double budget = budget_w > 0.0 ? budget_w : 0.45 * uncapped_w;

  std::printf("%d co-scheduled sessions on the simulated Haswell; node "
              "budget %.1f W (uncapped draw %.1f W)\n\n",
              tenants, budget, uncapped_w);
  const auto report = [&](const char* name, const exp::CotenantResult& r) {
    std::printf("  %-24s makespan %7.2f s  energy %9.1f J  node EDP "
                "%12.1f\n",
                name, r.node_time_s, r.node_energy_j, r.node_edp());
  };
  report("uncapped reference", ref);

  opt.budget_w = budget;
  opt.arbitrated = false;
  const exp::CotenantResult uncoord =
      exp::run_cotenants(machine, programs, opt);
  report("uncoordinated+backstop", uncoord);

  opt.arbitrated = true;
  const exp::CotenantResult arb = exp::run_cotenants(machine, programs, opt);
  report("arbitrated (equal-share)", arb);

  uint64_t grants = 0, revocations = 0;
  for (const auto& t : arb.tenants) {
    grants += t.grants;
    revocations += t.revocations;
  }
  std::printf(
      "\nbackstop intervened %llu times behind the controllers' backs;\n"
      "the arbitrated plane instead issued %llu grant changes and %llu\n"
      "revocations the sessions actuated themselves.\n"
      "arbitrated/uncoordinated node EDP: %.3f\n",
      static_cast<unsigned long long>(uncoord.backstop_interventions),
      static_cast<unsigned long long>(grants),
      static_cast<unsigned long long>(revocations),
      arb.node_edp() / uncoord.node_edp());
  return 0;
}

int cmd_arbiter(int argc, char** argv) {
  const std::string sub = argc >= 3 ? argv[2] : "";
  if (sub == "init" && argc >= 4) return cmd_arbiter_init(argc, argv);
  if (sub == "status" && argc == 4) return cmd_arbiter_status(argv[3]);
  if (sub == "demo" && argc <= 5) {
    return cmd_arbiter_demo(argc >= 4 ? argv[3] : nullptr,
                            argc >= 5 ? argv[4] : nullptr);
  }
  std::fprintf(stderr,
               "usage: cuttlefishctl arbiter init <file> --budget W "
               "[--policy equal-share|demand-weighted] [--slots N] | "
               "arbiter status <file> | arbiter demo [tenants] [budget_w]\n");
  return 2;
}

// ---- sweep run | resume | status --------------------------------------
//
// Operator front-end of the crash-safe sweep supervisor
// (docs/SUPERVISOR.md). The grid is a fixed demo campaign — every suite
// benchmark under Default and the full Cuttlefish policy, seeds fixed at
// grid-expansion time — so `run` and `resume` invoked with the same
// --runs build byte-identical grids and the journal's grid-digest check
// holds across processes.

exp::SweepGrid build_sweep_demo_grid(const sim::MachineConfig& machine,
                                     int runs) {
  exp::SweepGrid grid(machine);
  for (const auto& model : workloads::openmp_suite()) {
    const int base = grid.add_default(model.name + "/Default", model,
                                      exp::RunOptions{}, runs, 1000);
    grid.add_policy(model.name + "/Cuttlefish", model,
                    core::PolicyKind::kFull, exp::RunOptions{}, runs, 1000,
                    base);
  }
  return grid;
}

int cmd_sweep_run(int argc, char** argv, bool resume) {
  const std::string dir = argv[3];
  int runs = 1;
  exp::SupervisorOptions opt;
  opt.max_workers = 2;
  std::string crash_at;
  for (int i = 4; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "sweep %s: %s expects a value\n",
                   resume ? "resume" : "run", flag.c_str());
      return 2;
    }
    const char* value = argv[i + 1];
    if (flag == "--runs") {
      runs = int_arg("sweep: --runs", value, 1, 64);
    } else if (flag == "--workers") {
      opt.max_workers = int_arg("sweep: --workers", value, 1, 256);
    } else if (flag == "--attempts") {
      opt.max_attempts = int_arg("sweep: --attempts", value, 1, 1000000);
    } else if (flag == "--spec-timeout") {
      opt.spec_timeout_s = positive_arg("sweep: --spec-timeout", value);
    } else if (flag == "--sweep-timeout") {
      opt.total_timeout_s = positive_arg("sweep: --sweep-timeout", value);
    } else if (flag == "--crash-at") {
      crash_at = value;
    } else {
      std::fprintf(stderr, "sweep: unknown flag '%s'\n", flag.c_str());
      return 2;
    }
  }
  if (!crash_at.empty()) {
    std::string error;
    const auto parsed = exp::parse_crash_spec(crash_at, &error);
    if (!parsed) {
      std::fprintf(stderr, "sweep: --crash-at %s\n", error.c_str());
      return 2;
    }
    opt.crash = *parsed;
  }

  // `run` on an existing journal would silently continue someone else's
  // campaign; `resume` without one has nothing to resume. Both are
  // operator mistakes worth naming.
  const bool have_journal = std::filesystem::exists(
      std::filesystem::path(dir) / exp::kJournalFileName);
  if (!resume && have_journal) {
    std::fprintf(stderr,
                 "sweep run: %s already holds a journal — use `cuttlefishctl "
                 "sweep resume %s` to finish it, or point --runs at a fresh "
                 "directory\n",
                 dir.c_str(), dir.c_str());
    return 2;
  }
  if (resume && !have_journal) {
    std::fprintf(stderr,
                 "sweep resume: no journal in %s (start one with "
                 "`cuttlefishctl sweep run %s`)\n",
                 dir.c_str(), dir.c_str());
    return 2;
  }

  const sim::MachineConfig machine = sim::haswell_2650v3();
  const exp::SweepGrid grid = build_sweep_demo_grid(machine, runs);
  if (opt.crash.enabled() &&
      opt.crash.spec_index >= static_cast<int64_t>(grid.size())) {
    std::fprintf(stderr, "sweep: --crash-at spec %lld out of range (grid has "
                         "%zu specs)\n",
                 static_cast<long long>(opt.crash.spec_index), grid.size());
    return 2;
  }
  std::printf("%s %zu-spec demo grid (%zu points, %d rep%s) under the "
              "supervisor, journal %s\n",
              resume ? "resuming" : "running", grid.size(),
              grid.points().size(), runs, runs == 1 ? "" : "s", dir.c_str());

  exp::SweepSupervisor supervisor(grid, dir, opt);
  exp::SupervisorReport report;
  const std::vector<exp::RunResult> results = supervisor.run(&report);
  if (!report.error.empty()) {
    std::fprintf(stderr, "sweep: %s\n", report.error.c_str());
    return 1;
  }

  std::printf("  %zu resumed from journal, %zu executed, %zu retries\n",
              report.resumed, report.executed, report.retries);
  for (const exp::QuarantineRow& q : report.quarantined) {
    std::printf("  quarantined spec %llu (%s) after %u attempts: %s\n",
                static_cast<unsigned long long>(q.spec_index),
                grid.points()[grid.specs()[q.spec_index].point].label.c_str(),
                q.attempts,
                q.timed_out
                    ? "per-spec timeout"
                    : (q.term_signal != 0
                           ? ("signal " + std::to_string(q.term_signal))
                                 .c_str()
                           : ("exit status " + std::to_string(q.exit_status))
                                 .c_str()));
  }
  if (!report.completed) {
    std::fprintf(stderr,
                 "sweep: incomplete (%zu specs unfinished) — journal kept; "
                 "rerun with `cuttlefishctl sweep resume %s`\n",
                 report.unfinished.size(), dir.c_str());
    return 1;
  }

  // Table digest over the workers' own result bytes: the number an
  // interrupted-then-resumed campaign must reproduce exactly.
  std::string all_bytes;
  for (const exp::RunResult& r : results) all_bytes += exp::encode_result(r);
  const exp::SpecDigest table_digest =
      exp::digest_bytes(all_bytes.data(), all_bytes.size());
  std::printf("  complete: table digest %s%s\n", table_digest.hex().c_str(),
              report.quarantined.empty() ? "" : " (with quarantined cells "
                                               "default-constructed)");

  const auto summaries = exp::summarize(grid, results);
  std::printf("  %-22s %10s %12s %14s\n", "point", "time(s)", "energy(J)",
              "EDP savings %");
  for (size_t p = 0; p < summaries.size(); ++p) {
    const auto& s = summaries[p];
    std::printf("  %-22s %10.2f %12.1f %14s\n",
                grid.points()[p].label.c_str(), s.time_s.mean,
                s.energy_j.mean,
                s.has_baseline
                    ? std::to_string(s.edp_savings_pct.mean).substr(0, 6)
                          .c_str()
                    : "-");
  }
  return 0;
}

int cmd_sweep_status(const char* dir) {
  const exp::JournalStatus status = exp::read_journal_status(dir);
  if (!status.journal_present) {
    std::printf("no journal in %s (start one with `cuttlefishctl sweep run "
                "%s`)\n",
                dir, dir);
    return 1;
  }
  if (!status.valid) {
    std::printf("journal %s/%s: INVALID — %s\n", dir, exp::kJournalFileName,
                status.error.c_str());
    return 1;
  }
  std::printf("journal %s/%s\n", dir, exp::kJournalFileName);
  std::printf("  grid:        %s (%llu specs)\n", status.grid.hex().c_str(),
              static_cast<unsigned long long>(status.grid_size));
  std::printf("  done:        %llu / %llu%s\n",
              static_cast<unsigned long long>(status.done),
              static_cast<unsigned long long>(status.grid_size),
              status.done + status.quarantined.size() >= status.grid_size
                  ? "  (complete)"
                  : "  (resumable)");
  std::printf("  retried:     %llu spec%s finished on attempt > 0\n",
              static_cast<unsigned long long>(status.retried),
              status.retried == 1 ? "" : "s");
  if (status.dropped_bytes != 0) {
    std::printf("  torn tail:   %llu bytes dropped by the scan (the specs "
                "they covered re-run on resume)\n",
                static_cast<unsigned long long>(status.dropped_bytes));
  }
  std::printf("  quarantined: %zu\n", status.quarantined.size());
  for (const exp::QuarantineRow& q : status.quarantined) {
    std::printf("    spec %llu: %u attempts, %s\n",
                static_cast<unsigned long long>(q.spec_index), q.attempts,
                q.timed_out ? "per-spec timeout"
                : q.term_signal != 0
                    ? ("signal " + std::to_string(q.term_signal)).c_str()
                    : ("exit status " + std::to_string(q.exit_status))
                          .c_str());
  }
  return 0;
}

int cmd_sweep(int argc, char** argv) {
  const std::string sub = argc >= 3 ? argv[2] : "";
  if (sub == "run" && argc >= 4) return cmd_sweep_run(argc, argv, false);
  if (sub == "resume" && argc >= 4) return cmd_sweep_run(argc, argv, true);
  if (sub == "status" && argc == 4) return cmd_sweep_status(argv[3]);
  std::fprintf(stderr,
               "usage: cuttlefishctl sweep run <dir> [--runs N] [--workers "
               "N] [--attempts K] [--spec-timeout S] [--sweep-timeout S] "
               "[--crash-at SPEC:MODE[:N]] | sweep resume <dir> [...] | "
               "sweep status <dir>\n");
  return 2;
}

void usage() {
  std::fprintf(stderr,
               "usage: cuttlefishctl backends | probe | list | policies | "
               "demo <benchmark> [full|core|uncore|monitor|mpc] | trace "
               "<benchmark> [policy] [lines] | regions [profiles.json] | "
               "cache stats|verify|gc <dir> | faults [benchmark] | "
               "arbiter init|status|demo | sweep run|resume|status <dir>\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "backends") return cmd_backends();
  if (cmd == "probe") return cmd_probe();
  if (cmd == "list") return cmd_list();
  if (cmd == "policies") return cmd_policies();
  if (cmd == "demo" && argc >= 3) {
    return cmd_demo(argv[2], argc >= 4 ? argv[3] : nullptr);
  }
  if (cmd == "trace" && argc >= 3) {
    return cmd_trace(argv[2], argc >= 4 ? argv[3] : nullptr,
                     argc >= 5 ? argv[4] : nullptr);
  }
  if (cmd == "regions") {
    return cmd_regions(argc >= 3 ? argv[2] : nullptr);
  }
  if (cmd == "cache") return cmd_cache(argc, argv);
  if (cmd == "arbiter") return cmd_arbiter(argc, argv);
  if (cmd == "sweep") return cmd_sweep(argc, argv);
  if (cmd == "faults") {
    return cmd_faults(argc >= 3 ? argv[2] : nullptr);
  }
  usage();
  return 2;
}
