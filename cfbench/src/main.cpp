// cfbench: the repository's end-to-end benchmark. One process runs one
// workload (fig10_cold, fig10_warm or session_kernel) for --seconds of
// timed passes, checks every output, and prints its metrics as the last
// line of stdout. --trace 1 runs the same workload with spans around each
// layer's public calls and prints the per-layer metrics instead. See
// ../README.md for the workloads, metrics and the layer map.

#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/config.hpp"
#include "core/icontroller.hpp"
#include "core/session.hpp"
#include "exp/calibrate.hpp"
#include "exp/realtime.hpp"
#include "exp/result_cache.hpp"
#include "exp/spec_digest.hpp"
#include "exp/sweep.hpp"
#include "replay.hpp"
#include "runtime/scheduler.hpp"
#include "sim/firmware_governor.hpp"
#include "sim/machine_config.hpp"
#include "sim/sim_machine.hpp"
#include "sim/sim_platform.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads/kernels/stencil.hpp"
#include "workloads/kernels/uts.hpp"
#include "workloads/suite.hpp"

using namespace cuttlefish;
using cfbench::median;
using cfbench::now_ns;
using cfbench::percentile;
using cfbench::ratio;
using cfbench::Tracer;

namespace {

// ---- fixed benchmark shape ----------------------------------------------

constexpr int kSetupRounds = 9;     // setup_s is the median of these
constexpr int kWorkers = 2;         // task-runtime workers (4 vCPU host)
constexpr int64_t kHeatN = 257;     // 257^2 doubles fit one core's L2
constexpr int kHeatSteps = 100;     // per kernel per pass
// UTS in the library's default shape (q = 0.1125, m = 8) with 44000 root
// children: ~0.44M nodes. q*m = 0.8 with 88000 root children would keep
// the tree size within ~2% across seeds (this shape varies ~5%), but the
// doubled root fan-out made peak_rss_mb spread by 12% between runs.
constexpr int kUtsRootBranching = 44000;
constexpr double kRealtimeRate = 20.0;    // examples/heat_stencil.cpp
constexpr double kSessionTinvS = 0.001;
constexpr double kSessionWarmupS = 0.100;
constexpr double kProfileVirtualS = 4000.0;  // outlasts any run at rate 20
constexpr int kOnOffBlock = 4;  // traced session_kernel: passes per block
// Traced fig10_warm records ~800 spans per pass; after this many traced
// passes (~200k spans, a few MiB of TSV) it times untraced passes only.
constexpr int kMaxTracedWarmPasses = 250;

int64_t g_start_ns = 0;  // main() entry: the start of setup round 1

struct Args {
  std::string workload;
  uint64_t seed = cfbench::kFig10DefaultSeed;
  int seconds = 10;
  bool trace = false;
  std::string scratch;
  std::string git_sha = "unknown";
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

/// Everything a workload reports.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;
  std::vector<double> trial_ms;  // for the provenance spread
  std::vector<std::string> notes;

  void fail(const std::string& why, uint64_t count = 1) {
    failed += count;
    correct = false;
    notes.push_back("FAIL: " + why);
  }
  void set(const std::string& name, double value, const std::string& unit,
           size_t samples = 1) {
    for (Metric& m : metrics) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        m.samples = samples;
        return;
      }
    }
    metrics.push_back(Metric{name, value, unit, samples});
  }
};

double cpu_ms_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double ms_since(int64_t t0) { return static_cast<double>(now_ns() - t0) / 1e6; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

const sim::MachineConfig& machine() {
  static const sim::MachineConfig m = sim::haswell_2650v3();
  return m;
}

/// Wall and CPU time of each timed pass.
struct Series {
  std::vector<double> wall_ms;
  std::vector<double> cpu_ms;
};

/// Runs `pass` until `seconds` have elapsed (at least once). `check` sees
/// each pass's output outside the timed interval.
template <typename Pass, typename Check>
Series timed_passes(int seconds, Pass&& pass, Check&& check) {
  Series s;
  const int64_t deadline = now_ns() + static_cast<int64_t>(seconds) * 1000000000;
  do {
    const double c0 = cpu_ms_now();
    const int64_t t0 = now_ns();
    auto out = pass();
    const double wall = ms_since(t0);
    const double cpu = cpu_ms_now() - c0;
    s.wall_ms.push_back(wall);
    s.cpu_ms.push_back(cpu);
    check(out);
  } while (now_ns() < deadline);
  return s;
}

void set_end_to_end(Outcome& o, const Series& s,
                    const std::vector<double>& setup_s) {
  o.set("trial_ms", median(s.wall_ms), "ms", s.wall_ms.size());
  o.set("cpu_ms", median(s.cpu_ms), "ms", s.cpu_ms.size());
  o.set("setup_s", median(setup_s), "s", setup_s.size());
  o.set("peak_rss_mb", peak_rss_mb(), "MiB");
  o.trial_ms = s.wall_ms;
}

bool finite_result(const exp::RunResult& r) {
  return std::isfinite(r.time_s) && std::isfinite(r.energy_j) &&
         r.time_s > 0.0;
}

std::vector<std::string> encode_all(const std::vector<exp::RunResult>& rs) {
  std::vector<std::string> out;
  out.reserve(rs.size());
  for (const exp::RunResult& r : rs) out.push_back(exp::encode_result(r));
  return out;
}

/// Counts co-simulations whose bytes differ from the reference (or are not
/// finite) and records them as failed.
void check_against(Outcome& o, const std::vector<exp::RunResult>& results,
                   const std::vector<std::string>& reference,
                   const char* what) {
  o.attempted += results.size();
  uint64_t bad = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    if (i >= reference.size() || !finite_result(results[i]) ||
        exp::encode_result(results[i]) != reference[i]) {
      ++bad;
    }
  }
  if (results.size() != reference.size()) bad += 1;
  if (bad > 0) {
    o.fail(std::to_string(bad) + " " + what +
               " differ from the reference result bytes",
           bad);
  }
}

/// The Fig. 10 grid's reference: the pinned digest at the default seed,
/// else whatever the first pass produced.
void check_reference_pass(Outcome& o, const exp::SweepGrid& grid,
                          const std::vector<exp::RunResult>& results,
                          uint64_t seed) {
  o.attempted += results.size();
  for (const exp::RunResult& r : results) {
    if (!finite_result(r)) o.fail("non-finite co-simulation result");
  }
  const uint64_t digest = cfbench::sweep_digest(grid, results);
  o.notes.push_back("fig10 grid digest " + cfbench::digest_hex(digest) +
                    " (seed " + std::to_string(seed) + ")");
  if (seed == cfbench::kFig10DefaultSeed &&
      digest != cfbench::kFig10PinnedDigest) {
    o.fail("fig10 digest " + cfbench::digest_hex(digest) + " != pinned " +
               cfbench::digest_hex(cfbench::kFig10PinnedDigest),
           results.size());
  }
}

void set_headline(Outcome& o, const cfbench::Headline& h) {
  o.set("energy_savings_pct", h.energy_savings_pct, "%");
  o.set("slowdown_pct", h.slowdown_pct, "%");
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "Cuttlefish geomean vs Default: energy_savings_pct %.4f  "
                "slowdown_pct %.4f",
                h.energy_savings_pct, h.slowdown_pct);
  o.notes.push_back(buf);
}

runtime::TaskScheduler::Stats stats_delta(
    const runtime::TaskScheduler::Stats& a,
    const runtime::TaskScheduler::Stats& b) {
  runtime::TaskScheduler::Stats d;
  d.executed = b.executed - a.executed;
  d.steals = b.steals - a.steals;
  d.steal_attempts = b.steal_attempts - a.steal_attempts;
  d.parks = b.parks - a.parks;
  return d;
}

/// Per-pass medians of TaskScheduler::stats() deltas.
void set_runtime_metrics(Outcome& o,
                         const std::vector<runtime::TaskScheduler::Stats>& d) {
  std::vector<double> executed, steals, attempts, parks, per_task, success;
  for (const auto& s : d) {
    executed.push_back(static_cast<double>(s.executed));
    steals.push_back(static_cast<double>(s.steals));
    attempts.push_back(static_cast<double>(s.steal_attempts));
    parks.push_back(static_cast<double>(s.parks));
    per_task.push_back(ratio(static_cast<double>(s.steals),
                             static_cast<double>(s.executed)));
    success.push_back(ratio(static_cast<double>(s.steals),
                            static_cast<double>(s.steal_attempts)));
  }
  o.set("runtime.executed", median(executed), "count", d.size());
  o.set("runtime.steals", median(steals), "count", d.size());
  o.set("runtime.steal_attempts", median(attempts), "count", d.size());
  o.set("runtime.parks", median(parks), "count", d.size());
  o.set("runtime.steals_per_task", median(per_task), "ratio", d.size());
  o.set("runtime.steal_success", median(success), "ratio", d.size());
}

// ---- fig10_cold -----------------------------------------------------------

struct ColdState {
  exp::SweepGrid grid;
  std::unique_ptr<runtime::TaskScheduler> scheduler;
  std::vector<exp::RunResult> first;
};

std::unique_ptr<ColdState> make_cold(uint64_t seed) {
  auto st = std::make_unique<ColdState>(ColdState{
      cfbench::build_policy_grid(workloads::openmp_suite(), machine(),
                                 cfbench::kGridSeeds, seed),
      std::make_unique<runtime::TaskScheduler>(kWorkers),
      {}});
  st->first = exp::run_sweep(st->grid, st->scheduler.get());
  return st;
}

/// kSetupRounds independent set-ups; the last one is kept.
template <typename Make>
auto setup_rounds(Make&& make, std::vector<double>* setup_s) {
  decltype(make(0)) st;
  for (int r = 0; r < kSetupRounds; ++r) {
    st.reset();
    const int64_t t0 = r == 0 ? g_start_ns : now_ns();
    st = make(r);
    setup_s->push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  return st;
}

Outcome fig10_cold(const Args& a) {
  Outcome o;
  std::vector<double> setup_s;
  auto st = setup_rounds([&](int) { return make_cold(a.seed); }, &setup_s);
  check_reference_pass(o, st->grid, st->first, a.seed);
  const std::vector<std::string> reference = encode_all(st->first);
  const Series s = timed_passes(
      a.seconds,
      [&] { return exp::run_sweep(st->grid, st->scheduler.get()); },
      [&](const std::vector<exp::RunResult>& r) {
        check_against(o, r, reference, "co-simulations");
      });
  set_end_to_end(o, s, setup_s);
  set_headline(o, cfbench::cuttlefish_geomeans(st->grid, st->first));
  return o;
}

/// Traced fig10_cold: untraced 2-worker passes for reference, then serial
/// replays of run_sweep's steps with a span per layer, each preceded by an
/// untraced serial run_sweep pass (the tracing-overhead baseline).
Outcome fig10_cold_traced(const Args& a, Tracer& tracer) {
  Outcome o;
  auto st = make_cold(a.seed);
  check_reference_pass(o, st->grid, st->first, a.seed);
  const std::vector<std::string> reference = encode_all(st->first);
  const exp::SweepGrid& grid = st->grid;

  std::vector<double> fanout_ms, serial_ms;
  std::vector<runtime::TaskScheduler::Stats> rt;
  for (int i = 0; i < 3; ++i) {
    const auto before = st->scheduler->stats();
    const int64_t t0 = now_ns();
    const auto r = exp::run_sweep(grid, st->scheduler.get());
    fanout_ms.push_back(ms_since(t0));
    rt.push_back(stats_delta(before, st->scheduler->stats()));
    check_against(o, r, reference, "co-simulations");
  }
  set_runtime_metrics(o, rt);

  // Replay: calibrate each unique (model, seed) once, then every spec.
  std::vector<double> pass_ms, calib_ms, calib_calls, busy_ms, vsec, adv_ns,
      sample_ns, apply_ns, tick_calls, adv_calls, sample_calls, apply_calls,
      ratio_samples, transitions, writes, retries;
  std::map<std::string, std::vector<double>> variant_ms;
  std::vector<double> spec_us, tick_self;
  uint64_t mismatches = 0;
  const int64_t deadline =
      now_ns() + static_cast<int64_t>(a.seconds) * 1000000000;
  int pass = 0;
  do {
    {
      const int64_t t0 = now_ns();
      const auto r = exp::run_sweep(grid, nullptr);
      serial_ms.push_back(ms_since(t0));
      check_against(o, r, reference, "co-simulations");
    }
    tracer.set_pass(pass);
    cfbench::ReplayStats rs;
    const size_t first_span = tracer.spans().size();
    const int root = tracer.begin("pass");
    std::map<std::tuple<const workloads::BenchmarkModel*, uint64_t>,
             sim::PhaseProgram>
        programs;
    for (const exp::RunSpec& spec : grid.specs()) {
      const auto key = std::make_tuple(spec.model, spec.seed);
      if (programs.count(key) != 0) continue;
      const int span = tracer.begin("exp.calibrate");
      programs.emplace(key,
                       exp::build_calibrated(*spec.model, *spec.machine,
                                             spec.seed));
      tracer.end(span);
    }
    std::vector<exp::RunResult> results;
    results.reserve(grid.size());
    for (const exp::RunSpec& spec : grid.specs()) {
      results.push_back(cfbench::replay_spec(
          spec, programs.at(std::make_tuple(spec.model, spec.seed)), &tracer,
          &rs));
    }
    programs.clear();  // run_sweep frees its programs inside the pass too
    tracer.end(root);
    const auto& spans = tracer.spans();
    double calib = 0.0, busy = 0.0;
    int calls = 0;
    std::map<std::string, double> variants;
    for (size_t i = first_span; i < spans.size(); ++i) {
      const cfbench::Span& sp = spans[i];
      if (sp.parent != root) continue;
      const double ms = static_cast<double>(sp.duration()) / 1e6;
      if (std::strcmp(sp.name, "exp.calibrate") == 0) {
        calib += ms;
        ++calls;
      } else {
        variants[sp.name] += ms;
        spec_us.push_back(ms * 1e3);
      }
      busy += ms;
    }
    pass_ms.push_back(static_cast<double>(spans[static_cast<size_t>(root)]
                                              .duration()) /
                      1e6);
    calib_ms.push_back(calib);
    calib_calls.push_back(calls);
    busy_ms.push_back(busy);
    for (const auto& [name, ms] : variants) variant_ms[name].push_back(ms);
    double v = 0.0;
    for (const exp::RunResult& r : results) v += r.time_s;
    vsec.push_back(v);
    adv_calls.push_back(static_cast<double>(rs.advance_calls));
    adv_ns.push_back(rs.advance_ns);
    tick_calls.push_back(static_cast<double>(rs.tick_calls));
    sample_calls.push_back(static_cast<double>(rs.sample_calls));
    sample_ns.push_back(rs.sample_ns);
    apply_calls.push_back(static_cast<double>(rs.apply_calls));
    apply_ns.push_back(rs.apply_ns);
    tick_self.insert(tick_self.end(), rs.tick_self_ns.begin(),
                     rs.tick_self_ns.end());
    ratio_samples.push_back(
        ratio(static_cast<double>(rs.controller.samples_recorded),
              static_cast<double>(rs.controller.ticks)));
    transitions.push_back(static_cast<double>(rs.controller.transitions));
    writes.push_back(static_cast<double>(rs.controller.freq_writes));
    retries.push_back(static_cast<double>(rs.controller.io_retries));
    const std::vector<std::string> replayed = encode_all(results);
    for (size_t i = 0; i < replayed.size(); ++i) {
      if (replayed[i] != reference[i]) ++mismatches;
    }
    o.attempted += results.size();
    ++pass;
  } while (now_ns() < deadline || pass < 2);

  const size_t n = pass_ms.size();
  o.set("exp.calibrate.ms", median(calib_ms), "ms", n);
  o.set("exp.calibrate.calls", median(calib_calls), "count", n);
  for (const char* v : {"default", "full", "core", "uncore"}) {
    const std::string span = std::string("exp.run_spec.") + v;
    o.set("exp.run_spec.ms." + std::string(v), median(variant_ms[span]), "ms",
          n);
  }
  o.set("exp.run_spec.us_p50", percentile(spec_us, 50), "us", spec_us.size());
  o.set("exp.run_spec.us_p99", percentile(spec_us, 99), "us", spec_us.size());
  o.set("exp.fanout.efficiency",
        ratio(median(busy_ms), kWorkers * median(fanout_ms)), "ratio", n);
  o.set("exp.cosims", static_cast<double>(grid.size()), "count");
  o.set("exp.virtual_s", median(vsec), "s", n);
  o.set("sim.advance.calls", median(adv_calls), "count", n);
  o.set("sim.advance.ns", median(adv_ns), "ns", n);
  o.set("hal.sample.calls", median(sample_calls), "count", n);
  o.set("hal.sample.ns", median(sample_ns), "ns", n);
  o.set("hal.apply.calls", median(apply_calls), "count", n);
  o.set("hal.apply.ns", median(apply_ns), "ns", n);
  o.set("hal.io_retries", median(retries), "count", n);
  o.set("core.tick.calls", median(tick_calls), "count", n);
  o.set("core.tick.ns_p50", percentile(tick_self, 50), "ns", tick_self.size());
  o.set("core.tick.ns_p99", percentile(tick_self, 99), "ns", tick_self.size());
  o.set("core.samples_recorded.ratio", median(ratio_samples), "ratio", n);
  o.set("core.transitions", median(transitions), "count", n);
  o.set("core.freq_writes", median(writes), "count", n);
  o.set("trace.overhead_pct",
        (ratio(median(pass_ms), median(serial_ms)) - 1.0) * 100.0, "%", n);
  o.set("trace.mismatches", static_cast<double>(mismatches), "count");
  if (mismatches > 0) {
    o.fail("replay differs from run_sweep in " + std::to_string(mismatches) +
               " co-simulations: per-layer numbers invalid",
           mismatches);
  }

  // Self times per layer, summed over passes. The root's self time is what
  // no layer span covers; layer self times plus that add up to the pass,
  // except where sampled estimates overshoot their parent span.
  const auto self = cfbench::self_times(tracer.spans());
  const double total = self.at("pass").total_ns;
  o.set("trace.unattributed_pct",
        ratio(self.at("pass").self_ns, total) * 100.0, "%", n);
  double layers = 0.0;
  char buf[200];
  o.notes.push_back("layer self time per traced pass (serial replay):");
  for (const auto& [name, lt] : self) {
    if (name == "pass") continue;
    layers += lt.self_ns;
    std::snprintf(buf, sizeof(buf), "  %-22s %9.3f ms  %5.1f%%",
                  name.c_str(), lt.self_ns / 1e6 / static_cast<double>(n),
                  100.0 * ratio(lt.self_ns, total));
    o.notes.push_back(buf);
  }
  o.set("trace.layer_sum_pct", 100.0 * ratio(layers, total), "%", n);
  std::snprintf(buf, sizeof(buf),
                "  layers sum %.3f ms + unattributed %.3f ms of traced pass "
                "%.3f ms (%.2f%% + %.2f%%; pass-to-pass IQR %.2f%%)",
                layers / 1e6 / static_cast<double>(n),
                self.at("pass").self_ns / 1e6 / static_cast<double>(n),
                total / 1e6 / static_cast<double>(n),
                100.0 * ratio(layers, total),
                100.0 * ratio(self.at("pass").self_ns, total),
                100.0 * cfbench::iqr_share(pass_ms));
  o.notes.push_back(buf);
  std::snprintf(buf, sizeof(buf),
                "untraced: %d-worker pass %.1f ms, serial pass %.1f ms; "
                "traced serial replay %.1f ms; clock read %.1f ns",
                kWorkers, median(fanout_ms), median(serial_ms),
                median(pass_ms), cfbench::clock_overhead_ns());
  o.notes.push_back(buf);
  o.trial_ms = pass_ms;
  return o;
}

// ---- fig10_warm -----------------------------------------------------------

bool write_blobs(const std::string& path,
                 const std::vector<std::string>& blobs) {
  std::ofstream out(path, std::ios::binary);
  for (const std::string& b : blobs) {
    const uint64_t n = b.size();
    out.write(reinterpret_cast<const char*>(&n), sizeof(n));
    out.write(b.data(), static_cast<std::streamsize>(n));
  }
  return static_cast<bool>(out.flush());
}

std::vector<std::string> read_blobs(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<std::string> blobs;
  uint64_t n = 0;
  while (in.read(reinterpret_cast<char*>(&n), sizeof(n))) {
    if (n > (64u << 20)) throw std::runtime_error("corrupt " + path);
    std::string b(n, '\0');
    if (!in.read(b.data(), static_cast<std::streamsize>(n))) {
      throw std::runtime_error("truncated " + path);
    }
    blobs.push_back(std::move(b));
  }
  return blobs;
}

std::string make_dir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) != 0) {
    throw std::runtime_error("cannot create " + path + ": " +
                             std::strerror(errno));
  }
  return path;
}

/// Fills `dir` with the Fig. 10 and Fig. 11 grids (one cached run_sweep
/// each, so two shards) in a child process, which also writes the cold
/// Fig. 10 result bytes to dir/cold.bin. The serving process's memory
/// never holds a simulation.
void fill_cache_in_child(const std::string& dir, uint64_t seed) {
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    int code = 0;
    try {
      const exp::SweepGrid g10 = cfbench::build_policy_grid(
          workloads::openmp_suite(), machine(), cfbench::kGridSeeds, seed);
      const exp::SweepGrid g11 =
          cfbench::build_policy_grid(workloads::hclib_suite(), machine(),
                                     cfbench::kGridSeeds, seed + 1000);
      exp::ResultCache cache(dir);
      const auto cold = exp::run_sweep(g10, nullptr, &cache);
      (void)exp::run_sweep(g11, nullptr, &cache);
      if (!write_blobs(dir + "/cold.bin", encode_all(cold))) code = 3;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cache fill failed: %s\n", e.what());
      code = 2;
    }
    std::fflush(stderr);
    ::_exit(code);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("cache fill child failed");
  }
}

struct Served {
  std::vector<exp::RunResult> results;
  exp::SweepRunStats stats;
};

struct WarmState {
  std::string dir;
  exp::SweepGrid grid;
  std::vector<std::string> cold;
  Served first;
};

Served warm_pass(const WarmState& st) {
  Served s;
  exp::ResultCache cache(st.dir);
  s.results = exp::run_sweep(st.grid, nullptr, &cache, &s.stats);
  return s;
}

void check_served(Outcome& o, const WarmState& st, const Served& s) {
  if (s.stats.cache_misses != 0 || s.stats.cache_hits != st.grid.size()) {
    o.fail(std::to_string(s.stats.cache_misses) + " cache misses",
           s.stats.cache_misses);
  }
  check_against(o, s.results, st.cold, "served results");
}

Outcome fig10_warm(const Args& a) {
  Outcome o;
  std::vector<double> setup_s;
  auto st = setup_rounds(
      [&](int round) {
        auto w = std::make_unique<WarmState>(WarmState{
            make_dir(a.scratch + "/warm-" + std::to_string(round)),
            cfbench::build_policy_grid(workloads::openmp_suite(), machine(),
                                       cfbench::kGridSeeds, a.seed),
            {},
            {}});
        fill_cache_in_child(w->dir, a.seed);
        w->cold = read_blobs(w->dir + "/cold.bin");
        w->first = warm_pass(*w);
        return w;
      },
      &setup_s);
  check_served(o, *st, st->first);
  check_reference_pass(o, st->grid, st->first.results, a.seed);
  const Series s = timed_passes(
      a.seconds, [&] { return warm_pass(*st); },
      [&](const Served& served) { check_served(o, *st, served); });
  set_end_to_end(o, s, setup_s);
  set_headline(o, cfbench::cuttlefish_geomeans(st->grid, st->first.results));
  return o;
}

/// Traced fig10_warm: fills the cache in-process with a span around each
/// insert_batch, then replays run_sweep's cached path (open, digest,
/// lookup, note_run) with a span around each call.
Outcome fig10_warm_traced(const Args& a, Tracer& tracer) {
  Outcome o;
  const std::string dir = make_dir(a.scratch + "/warm-traced");
  const exp::SweepGrid g10 = cfbench::build_policy_grid(
      workloads::openmp_suite(), machine(), cfbench::kGridSeeds, a.seed);
  const exp::SweepGrid g11 = cfbench::build_policy_grid(
      workloads::hclib_suite(), machine(), cfbench::kGridSeeds, a.seed + 1000);
  const auto cold10 = exp::run_sweep(g10, nullptr);
  const auto cold11 = exp::run_sweep(g11, nullptr);
  check_reference_pass(o, g10, cold10, a.seed);
  double insert_ns = 0.0;
  uint64_t insert_bytes = 0;
  {
    exp::ResultCache cache(dir);
    for (const auto& [grid, results] :
         {std::pair{&g10, &cold10}, std::pair{&g11, &cold11}}) {
      std::vector<exp::ResultCache::Insert> batch;
      for (size_t i = 0; i < grid->size(); ++i) {
        std::string blob = exp::encode_spec(grid->specs()[i]);
        const exp::SpecDigest d = exp::digest_bytes(blob.data(), blob.size());
        batch.push_back({d, std::move(blob), &(*results)[i]});
      }
      const int span = tracer.begin("cache.insert");
      cache.insert_batch(batch);
      tracer.end(span);
      insert_ns += static_cast<double>(tracer.spans()[static_cast<size_t>(
                                           span)].duration());
    }
    insert_bytes = cache.stats().bytes;
  }
  WarmState st{dir, g10, encode_all(cold10), {}};

  std::vector<double> untraced_ms;
  std::vector<double> pass_ms, open_ms, lookup_us, digest_us;
  size_t entries = 0, shards = 0;
  uint64_t bytes = 0, hits = 0, lookups = 0, mismatches = 0;
  const int64_t deadline =
      now_ns() + static_cast<int64_t>(a.seconds) * 1000000000;
  int pass = 0;
  do {
    {
      const int64_t t0 = now_ns();
      const Served s = warm_pass(st);
      // Only the passes interleaved with traced ones are the overhead
      // baseline.
      if (pass < kMaxTracedWarmPasses) untraced_ms.push_back(ms_since(t0));
      check_served(o, st, s);
    }
    if (pass >= kMaxTracedWarmPasses) continue;
    tracer.set_pass(pass);
    const int root = tracer.begin("pass");
    std::vector<exp::RunResult> results(g10.size());
    double digest_ns = 0.0;
    uint64_t pass_hits = 0;
    {
      // The cache is destroyed inside the pass, as in run_sweep's caller.
      int span = tracer.begin("cache.open");
      exp::ResultCache cache(dir);
      tracer.end(span);
      open_ms.push_back(
          static_cast<double>(
              tracer.spans()[static_cast<size_t>(span)].duration()) /
          1e6);
      for (size_t i = 0; i < g10.size(); ++i) {
        span = tracer.begin("cache.digest");
        const std::string blob = exp::encode_spec(g10.specs()[i]);
        const exp::SpecDigest d = exp::digest_bytes(blob.data(), blob.size());
        tracer.end(span);
        digest_ns += static_cast<double>(
            tracer.spans()[static_cast<size_t>(span)].duration());
        span = tracer.begin("cache.lookup");
        const bool hit = cache.lookup(d, &results[i]);
        tracer.end(span);
        lookup_us.push_back(
            static_cast<double>(
                tracer.spans()[static_cast<size_t>(span)].duration()) /
            1e3);
        pass_hits += hit ? 1 : 0;
      }
      span = tracer.begin("cache.note_run");
      cache.note_run(pass_hits, g10.size() - pass_hits);
      tracer.end(span);
      const exp::ResultCache::Stats cache_stats = cache.stats();
      entries = cache_stats.entries;
      shards = cache_stats.shards;
      bytes = cache_stats.bytes;
    }
    tracer.end(root);
    pass_ms.push_back(static_cast<double>(
                          tracer.spans()[static_cast<size_t>(root)].duration()) /
                      1e6);
    digest_us.push_back(digest_ns / 1e3);
    hits += pass_hits;
    lookups += g10.size();
    const Served s{std::move(results), {pass_hits, g10.size() - pass_hits}};
    const uint64_t failed_before = o.failed;
    check_served(o, st, s);
    mismatches += o.failed - failed_before;
    ++pass;
  } while (now_ns() < deadline || pass < 2);

  const size_t n = pass_ms.size();
  o.set("cache.open.ms", median(open_ms), "ms", n);
  o.set("cache.entries", static_cast<double>(entries), "count");
  o.set("cache.shards", static_cast<double>(shards), "count");
  o.set("cache.bytes", static_cast<double>(bytes), "B");
  o.set("cache.lookup.us_p50", percentile(lookup_us, 50), "us",
        lookup_us.size());
  o.set("cache.lookup.us_p99", percentile(lookup_us, 99), "us",
        lookup_us.size());
  o.set("cache.hit_ratio",
        ratio(static_cast<double>(hits), static_cast<double>(lookups)),
        "ratio", n);
  o.set("cache.digest.us", median(digest_us), "us", n);
  o.set("cache.insert.ms", insert_ns / 1e6, "ms", 2);
  o.set("cache.insert.bytes", static_cast<double>(insert_bytes), "B");
  o.set("trace.overhead_pct",
        (ratio(median(pass_ms), median(untraced_ms)) - 1.0) * 100.0, "%", n);
  o.set("trace.mismatches", static_cast<double>(mismatches), "count");
  // No estimated spans here, so the layers cover exactly what the root's
  // self time does not.
  const auto self = cfbench::self_times(tracer.spans());
  const double unattributed =
      ratio(self.at("pass").self_ns, self.at("pass").total_ns) * 100.0;
  o.set("trace.unattributed_pct", unattributed, "%", n);
  o.set("trace.layer_sum_pct", 100.0 - unattributed, "%", n);
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "untraced warm pass %.3f ms; traced %.3f ms: open %.3f ms, "
                "digest %.1f us, lookup p50 %.2f us",
                median(untraced_ms), median(pass_ms), median(open_ms),
                median(digest_us), percentile(lookup_us, 50));
  o.notes.push_back(buf);
  o.trial_ms = pass_ms;
  return o;
}

// ---- session_kernel -------------------------------------------------------

/// The kernels' inputs and the sequential references they must match.
struct KernelInputs {
  workloads::Grid2D initial{kHeatN, kHeatN, 0.0};
  double heat_ref = 0.0;
  workloads::UtsParams uts;
  uint64_t uts_ref = 0;
};

KernelInputs make_inputs(uint64_t seed) {
  KernelInputs in;
  for (int64_t c = 0; c < in.initial.cols(); ++c) in.initial.at(0, c) = 100.0;
  workloads::Grid2D a = in.initial;
  workloads::Grid2D b = in.initial;
  for (int s = 0; s < kHeatSteps; ++s) {
    workloads::heat_step_seq(a, b);
    std::swap(a, b);
  }
  in.heat_ref = a.checksum();
  in.uts.root_seed = seed;
  in.uts.root_branching = kUtsRootBranching;
  in.uts_ref = workloads::uts_count_sequential(in.uts);
  return in;
}

struct KernelOut {
  double lbs = 0.0;
  double irt = 0.0;
  uint64_t uts = 0;
};

/// One pass: heat_step_lbs and irregular-DAG heat_step_tasks for
/// kHeatSteps each, then UTS, all on `rt`. The caller resets the four
/// grids to the initial state between passes, outside the timed interval.
KernelOut kernel_pass(runtime::TaskScheduler& rt, workloads::Grid2D* g,
                      const workloads::UtsParams& uts, Tracer* tracer) {
  KernelOut out;
  int span = tracer != nullptr ? tracer->begin("runtime.kernel.heat_lbs") : -1;
  for (int s = 0; s < kHeatSteps; ++s) {
    workloads::heat_step_lbs(rt, g[0], g[1]);
    std::swap(g[0], g[1]);
  }
  if (tracer != nullptr) {
    tracer->end(span);
    span = tracer->begin("runtime.kernel.heat_irt");
  }
  for (int s = 0; s < kHeatSteps; ++s) {
    workloads::heat_step_tasks(rt, g[2], g[3], runtime::DagShape::kIrregular);
    std::swap(g[2], g[3]);
  }
  if (tracer != nullptr) {
    tracer->end(span);
    span = tracer->begin("runtime.kernel.uts");
  }
  out.uts = workloads::uts_count_parallel(rt, uts);
  if (tracer != nullptr) tracer->end(span);
  out.lbs = g[0].checksum();
  out.irt = g[2].checksum();
  return out;
}

/// A daemon Session over a realtime-simulated package running the
/// Heat-irt profile, configured as examples/heat_stencil.cpp does.
/// Members are destroyed session first, platform last.
struct LiveSession {
  std::unique_ptr<exp::RealtimeSimPlatform> platform;
  std::unique_ptr<cfbench::TimedPlatform> timed;
  std::unique_ptr<Session> session;
  double start_ms = 0.0;  // constructor until the daemon's first sample
};

sim::PhaseProgram make_profile(uint64_t seed) {
  const auto& model = workloads::find_benchmark("Heat-irt");
  sim::PhaseProgram p = exp::build_calibrated(model, machine(), seed);
  p.scale_instructions(kProfileVirtualS / model.default_time_s);
  return p;
}

void start_live(LiveSession& live, const sim::PhaseProgram& profile,
                uint64_t seed) {
  if (live.platform == nullptr) {
    live.platform = std::make_unique<exp::RealtimeSimPlatform>(
        machine(), profile, kRealtimeRate, seed);
    live.timed =
        std::make_unique<cfbench::TimedPlatform>(*live.platform, true);
  }
  live.platform->start();
  Options options;
  options.controller.tinv_s = kSessionTinvS;
  options.controller.warmup_s = kSessionWarmupS;
  options.daemon_cpu = -1;
  const uint64_t samples0 = live.timed->counts().sample_calls;
  const int64_t t0 = now_ns();
  live.session = std::make_unique<Session>(*live.timed, options);
  while (live.timed->counts().sample_calls == samples0) {
    if (ms_since(t0) > 10000.0) {
      throw std::runtime_error("session daemon never sampled the platform");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  live.start_ms = ms_since(t0);
}

/// Stops the session and the simulated package; returns the stop time.
double stop_live(LiveSession& live) {
  const int64_t t0 = now_ns();
  live.session->stop();
  const double ms = ms_since(t0);
  live.platform->stop();
  return ms;
}

struct SessionState {
  sim::PhaseProgram profile;
  KernelInputs inputs;
  LiveSession live;
  std::unique_ptr<runtime::TaskScheduler> rt;
  std::vector<workloads::Grid2D> grids;
  KernelOut first;
};

void reset_grids(SessionState& st) {
  for (workloads::Grid2D& g : st.grids) g = st.inputs.initial;
}

void check_kernels(Outcome& o, const SessionState& st, const KernelOut& k) {
  o.attempted += 3;
  if (k.lbs != st.inputs.heat_ref) o.fail("heat_step_lbs checksum mismatch");
  if (k.irt != st.inputs.heat_ref) o.fail("heat_step_tasks checksum mismatch");
  if (k.uts != st.inputs.uts_ref) {
    o.fail("UTS counted " + std::to_string(k.uts) + " nodes, sequential " +
           std::to_string(st.inputs.uts_ref));
  }
}

std::unique_ptr<SessionState> make_session_state(uint64_t seed) {
  auto st = std::make_unique<SessionState>();
  st->profile = make_profile(seed);
  st->inputs = make_inputs(seed);
  start_live(st->live, st->profile, seed);
  st->rt = std::make_unique<runtime::TaskScheduler>(kWorkers);
  st->grids.assign(4, st->inputs.initial);
  st->first = kernel_pass(*st->rt, st->grids.data(), st->inputs.uts, nullptr);
  return st;
}

/// Energy and time of the Default baseline (max core frequency, firmware
/// uncore governor) on the same profile when it has retired
/// `instructions`, interpolated within the last quantum.
std::pair<double, double> default_at(const sim::PhaseProgram& profile,
                                     uint64_t seed, uint64_t instructions) {
  sim::SimMachine m(machine(), profile, seed);
  m.set_core_frequency(machine().core_ladder.max());
  sim::FirmwareUncoreGovernor governor(m);
  double t0 = 0.0, e0 = 0.0;
  uint64_t i0 = 0;
  while (!m.workload_done()) {
    m.advance(0.020);
    const uint64_t i1 = m.instructions_retired();
    if (i1 >= instructions && i1 > i0) {
      const double f = static_cast<double>(instructions - i0) /
                       static_cast<double>(i1 - i0);
      return {t0 + f * (m.now() - t0), e0 + f * (m.energy_joules() - e0)};
    }
    t0 = m.now();
    e0 = m.energy_joules();
    i0 = i1;
    governor.tick();
  }
  return {m.now(), m.energy_joules()};
}

/// Cuttlefish vs Default on the Heat-irt profile, each seed co-simulated
/// to completion in virtual time through a manual-tick Session (the
/// daemon's controller without its thread): mean per-seed energy savings
/// and slowdown over kGridSeeds seeds. Deterministic for a seed, unlike
/// the live session's figures, which depend on when the daemon ran.
cfbench::Headline session_headline(uint64_t seed) {
  const auto& model = workloads::find_benchmark("Heat-irt");
  double savings = 0.0, slowdown = 0.0;
  for (int rep = 0; rep < cfbench::kGridSeeds; ++rep) {
    const uint64_t s = seed + static_cast<uint64_t>(rep);
    const sim::PhaseProgram program =
        exp::build_calibrated(model, machine(), s);
    const auto [t_def, e_def] = default_at(program, s, UINT64_MAX);
    sim::SimMachine m(machine(), program, s);
    sim::SimPlatform platform(m);
    Options options;
    options.manual_tick = true;
    Session session(platform, options);
    const core::ControllerConfig& cfg = options.controller;
    bool alive = true;
    for (double t = 0.0; t + cfg.tinv_s <= cfg.warmup_s + 1e-12;
         t += cfg.tinv_s) {
      m.advance(cfg.tinv_s);
      alive = !m.workload_done();
      if (!alive) break;
    }
    if (alive) {
      session.tick();  // baselines the sensors
      do {
        m.advance(cfg.tinv_s);
        session.tick();
      } while (!m.workload_done());
    }
    session.stop();
    savings += 100.0 * (1.0 - m.energy_joules() / e_def);
    slowdown += 100.0 * (m.now() / t_def - 1.0);
  }
  return {savings / cfbench::kGridSeeds, slowdown / cfbench::kGridSeeds};
}

Outcome session_kernel(const Args& a) {
  Outcome o;
  std::vector<double> setup_s;
  auto st = setup_rounds([&](int) { return make_session_state(a.seed); },
                         &setup_s);
  check_kernels(o, *st, st->first);
  reset_grids(*st);
  const Series s = timed_passes(
      a.seconds,
      [&] {
        return kernel_pass(*st->rt, st->grids.data(), st->inputs.uts,
                           nullptr);
      },
      [&](const KernelOut& k) {
        check_kernels(o, *st, k);
        reset_grids(*st);
      });
  const exp::RealtimeSimPlatform::Snapshot snap = st->live.platform->snapshot();
  stop_live(st->live);
  const uint64_t ticks = st->live.timed->counts().sample_calls;
  const auto [t_def, e_def] =
      default_at(st->profile, a.seed, snap.instructions);
  set_end_to_end(o, s, setup_s);
  const cfbench::Headline h = session_headline(a.seed);
  o.set("energy_savings_pct", h.energy_savings_pct, "%");
  o.set("slowdown_pct", h.slowdown_pct, "%");
  char buf[240];
  std::snprintf(buf, sizeof(buf),
                "Heat-irt, manual-tick session vs Default, mean of %d seeds: "
                "energy_savings_pct %.4f slowdown_pct %.4f",
                cfbench::kGridSeeds, h.energy_savings_pct, h.slowdown_pct);
  o.notes.push_back(buf);
  std::snprintf(buf, sizeof(buf),
                "live daemon on the simulated Heat-irt package: %.1f virtual "
                "s, %llu sensor samples; vs Default at equal instructions: "
                "energy savings %.4f%% slowdown %.4f%%",
                snap.time_s, static_cast<unsigned long long>(ticks),
                100.0 * (1.0 - snap.energy_j / e_def),
                100.0 * (snap.time_s / t_def - 1.0));
  o.notes.push_back(buf);
  std::snprintf(buf, sizeof(buf),
                "kernels: heat %lldx%lld x %d steps (lbs, irt), UTS %llu "
                "nodes (root seed %llu)",
                static_cast<long long>(kHeatN), static_cast<long long>(kHeatN),
                kHeatSteps, static_cast<unsigned long long>(st->inputs.uts_ref),
                static_cast<unsigned long long>(st->inputs.uts.root_seed));
  o.notes.push_back(buf);
  return o;
}

/// Traced session_kernel: blocks of kOnOffBlock passes alternately with
/// and without the session and its threads (session.overhead_pct compares
/// the two). Within a block, untraced and traced passes alternate; the
/// untraced ones with the session are the tracing-overhead baseline.
Outcome session_kernel_traced(const Args& a, Tracer& tracer) {
  Outcome o;
  auto st = make_session_state(a.seed);
  check_kernels(o, *st, st->first);
  std::vector<double> start_ms{st->live.start_ms}, stop_ms;

  std::vector<double> untraced_ms;
  std::vector<double> on_ms, off_ms, ticks, tick_rate, sample_ns, apply_calls,
      apply_ns;
  std::map<std::string, std::vector<double>> kernel_ms;
  std::vector<runtime::TaskScheduler::Stats> rt;
  bool on = true;
  int pass = 0;
  const uint64_t failed_before = o.failed;
  const int64_t deadline =
      now_ns() + static_cast<int64_t>(a.seconds) * 1000000000;
  do {
    if (pass > 0 && pass % kOnOffBlock == 0) {
      if (on) {
        stop_ms.push_back(stop_live(st->live));
      } else {
        start_live(st->live, st->profile, a.seed);
        start_ms.push_back(st->live.start_ms);
      }
      on = !on;
    }
    reset_grids(*st);
    if (on) {
      const int64_t t0 = now_ns();
      const KernelOut k =
          kernel_pass(*st->rt, st->grids.data(), st->inputs.uts, nullptr);
      untraced_ms.push_back(ms_since(t0));
      check_kernels(o, *st, k);
      reset_grids(*st);
    }
    tracer.set_pass(pass);
    const auto hal0 = st->live.timed->counts();
    const auto rt0 = st->rt->stats();
    const size_t first_span = tracer.spans().size();
    const int root = tracer.begin(on ? "pass.session" : "pass.bare");
    const KernelOut k =
        kernel_pass(*st->rt, st->grids.data(), st->inputs.uts, &tracer);
    tracer.end(root);
    const auto hal1 = st->live.timed->counts();
    rt.push_back(stats_delta(rt0, st->rt->stats()));
    check_kernels(o, *st, k);
    const auto& spans = tracer.spans();
    const double wall =
        static_cast<double>(spans[static_cast<size_t>(root)].duration()) / 1e6;
    (on ? on_ms : off_ms).push_back(wall);
    for (size_t i = first_span; i < spans.size(); ++i) {
      if (spans[i].parent == root) {
        kernel_ms[spans[i].name].push_back(
            static_cast<double>(spans[i].duration()) / 1e6);
      }
    }
    if (on) {
      const double t = static_cast<double>(hal1.sample_calls -
                                           hal0.sample_calls);
      ticks.push_back(t);  // the daemon samples the platform once a tick
      tick_rate.push_back(ratio(t, wall / 1e3 / kSessionTinvS));
      sample_ns.push_back(static_cast<double>(hal1.sample_ns - hal0.sample_ns));
      apply_calls.push_back(
          static_cast<double>(hal1.apply_calls - hal0.apply_calls));
      apply_ns.push_back(static_cast<double>(hal1.apply_ns - hal0.apply_ns));
    }
    ++pass;
  } while (now_ns() < deadline || off_ms.empty() || on_ms.empty());
  if (on) stop_ms.push_back(stop_live(st->live));

  const size_t n = on_ms.size() + off_ms.size();
  for (const char* k : {"heat_lbs", "heat_irt", "uts"}) {
    o.set(std::string("runtime.kernel.ms.") + k,
          median(kernel_ms[std::string("runtime.kernel.") + k]), "ms", n);
  }
  set_runtime_metrics(o, rt);
  o.set("session.start.ms", median(start_ms), "ms", start_ms.size());
  o.set("session.stop.ms", median(stop_ms), "ms", stop_ms.size());
  o.set("session.ticks", median(ticks), "count", ticks.size());
  o.set("session.tick_rate", median(tick_rate), "ratio", tick_rate.size());
  o.set("session.overhead_pct",
        (ratio(median(on_ms), median(off_ms)) - 1.0) * 100.0, "%", n);
  o.set("hal.sample.calls", median(ticks), "count", ticks.size());
  o.set("hal.sample.ns", median(sample_ns), "ns", ticks.size());
  o.set("hal.apply.calls", median(apply_calls), "count", ticks.size());
  o.set("hal.apply.ns", median(apply_ns), "ns", ticks.size());
  o.set("core.tick.calls", median(ticks), "count", ticks.size());
  o.set("trace.overhead_pct",
        (ratio(median(on_ms), median(untraced_ms)) - 1.0) * 100.0, "%",
        on_ms.size());
  o.set("trace.mismatches", static_cast<double>(o.failed - failed_before),
        "count");
  const auto self = cfbench::self_times(tracer.spans());
  double root_total = 0.0, root_self = 0.0;
  for (const char* r : {"pass.session", "pass.bare"}) {
    if (self.count(r) != 0) {
      root_total += self.at(r).total_ns;
      root_self += self.at(r).self_ns;
    }
  }
  o.set("trace.unattributed_pct", ratio(root_self, root_total) * 100.0, "%",
        n);
  o.set("trace.layer_sum_pct", 100.0 * (1.0 - ratio(root_self, root_total)),
        "%", n);
  o.notes.push_back(
      "unavailable on session_kernel (reported as 0): core.tick.ns_p50/p99, "
      "because the daemon calls tick() inside the library and only its HAL "
      "calls are visible; hal.io_retries, core.samples_recorded.ratio, "
      "core.transitions and core.freq_writes, because ControllerStats is "
      "readable only while the daemon writes it, and Session::stop() "
      "releases the controller");
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "passes: %zu with session (median %.2f ms), %zu without "
                "(%.2f ms), %zu untraced (%.2f ms)",
                on_ms.size(), median(on_ms), off_ms.size(), median(off_ms),
                untraced_ms.size(), median(untraced_ms));
  o.notes.push_back(buf);
  o.trial_ms = on_ms;
  return o;
}

// ---- output ---------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"trial_ms", "ms"},          {"cpu_ms", "ms"},
    {"setup_s", "s"},            {"peak_rss_mb", "MiB"},
    {"energy_savings_pct", "%"}, {"slowdown_pct", "%"},
};

/// Every per-layer metric; a layer the workload never calls reports 0.
constexpr MetricDef kPerLayer[] = {
    {"exp.calibrate.ms", "ms"},
    {"exp.calibrate.calls", "count"},
    {"exp.run_spec.ms.default", "ms"},
    {"exp.run_spec.ms.full", "ms"},
    {"exp.run_spec.ms.core", "ms"},
    {"exp.run_spec.ms.uncore", "ms"},
    {"exp.run_spec.us_p50", "us"},
    {"exp.run_spec.us_p99", "us"},
    {"exp.fanout.efficiency", "ratio"},
    {"exp.cosims", "count"},
    {"exp.virtual_s", "s"},
    {"sim.advance.calls", "count"},
    {"sim.advance.ns", "ns"},
    {"hal.sample.calls", "count"},
    {"hal.sample.ns", "ns"},
    {"hal.apply.calls", "count"},
    {"hal.apply.ns", "ns"},
    {"hal.io_retries", "count"},
    {"core.tick.calls", "count"},
    {"core.tick.ns_p50", "ns"},
    {"core.tick.ns_p99", "ns"},
    {"core.samples_recorded.ratio", "ratio"},
    {"core.transitions", "count"},
    {"core.freq_writes", "count"},
    {"session.start.ms", "ms"},
    {"session.stop.ms", "ms"},
    {"session.ticks", "count"},
    {"session.tick_rate", "ratio"},
    {"session.overhead_pct", "%"},
    {"runtime.kernel.ms.heat_lbs", "ms"},
    {"runtime.kernel.ms.heat_irt", "ms"},
    {"runtime.kernel.ms.uts", "ms"},
    {"runtime.executed", "count"},
    {"runtime.steals", "count"},
    {"runtime.steal_attempts", "count"},
    {"runtime.parks", "count"},
    {"runtime.steals_per_task", "ratio"},
    {"runtime.steal_success", "ratio"},
    {"cache.open.ms", "ms"},
    {"cache.entries", "count"},
    {"cache.shards", "count"},
    {"cache.bytes", "B"},
    {"cache.lookup.us_p50", "us"},
    {"cache.lookup.us_p99", "us"},
    {"cache.hit_ratio", "ratio"},
    {"cache.digest.us", "us"},
    {"cache.insert.ms", "ms"},
    {"cache.insert.bytes", "B"},
    {"trace.overhead_pct", "%"},
    {"trace.unattributed_pct", "%"},
    {"trace.layer_sum_pct", "%"},
    {"trace.mismatches", "count"},
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void print_provenance(const Args& a, const Outcome& o) {
  std::string s = "{\"provenance\": {";
  s += "\"workload\": \"" + a.workload + "\", ";
  s += "\"trace\": " + std::string(a.trace ? "1" : "0") + ", ";
  s += "\"seed\": " + std::to_string(a.seed) + ", ";
  s += "\"seconds\": " + std::to_string(a.seconds) + ", ";
  s += "\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) + ", ";
  s += "\"cpu_model\": \"" + json_escape(cpu_model()) + "\", ";
  s += "\"compiler\": \"" + json_escape(CFBENCH_COMPILER) + "\", ";
  s += "\"build_type\": \"" + json_escape(CFBENCH_BUILD_TYPE) + "\", ";
  s += "\"build_flags\": \"" + json_escape(CFBENCH_CXX_FLAGS) + "\", ";
  s += "\"git_sha\": \"" + json_escape(a.git_sha) + "\", ";
  s += "\"setup_rounds\": " + std::to_string(kSetupRounds) + ", ";
  s += "\"workers\": " + std::to_string(kWorkers) + ", ";
  s += "\"passes\": " + std::to_string(o.trial_ms.size()) + ", ";
  s += "\"trial_ms_p25\": " + json_number(percentile(o.trial_ms, 25)) + ", ";
  s += "\"trial_ms_p75\": " + json_number(percentile(o.trial_ms, 75)) + ", ";
  s += "\"trial_ms_min\": " + json_number(percentile(o.trial_ms, 0)) + ", ";
  s += "\"trial_ms_max\": " + json_number(percentile(o.trial_ms, 100)) + ", ";
  s += "\"samples\": {";
  bool first = true;
  for (const Metric& m : o.metrics) {
    if (!first) s += ", ";
    first = false;
    s += "\"" + m.name + "\": " + std::to_string(m.samples);
  }
  s += "}}}";
  std::printf("%s\n", s.c_str());
}

/// The result line: exactly the end-to-end metrics (--trace 0) or the
/// per-layer metrics (--trace 1), in declaration order.
void print_result(const Args& a, Outcome& o) {
  std::map<std::string, const Metric*> by_name;
  for (const Metric& m : o.metrics) by_name[m.name] = &m;
  std::string s = "{\"correct\": ";
  std::string metrics;
  const auto emit = [&](const MetricDef& d) {
    double v = 0.0;
    const auto it = by_name.find(d.name);
    if (it != by_name.end()) v = it->second->value;
    if (!std::isfinite(v)) {
      o.fail(std::string("metric ") + d.name + " is not finite");
      v = 0.0;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + std::string(d.name) + "\": {\"value\": " +
               json_number(v) + ", \"unit\": \"" + d.unit + "\"}";
  };
  if (a.trace) {
    for (const MetricDef& d : kPerLayer) emit(d);
  } else {
    for (const MetricDef& d : kEndToEnd) emit(d);
  }
  s += o.correct && o.failed == 0 ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(std::max<uint64_t>(o.attempted, 1));
  s += ", \"failed\": " + std::to_string(o.failed);
  s += ", \"metrics\": {" + metrics + "}}";
  std::printf("%s\n", s.c_str());
}

[[noreturn]] void usage(const char* prog, const std::string& why) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload fig10_cold|fig10_warm|"
               "session_kernel --seed N --seconds N --trace 0|1 "
               "--scratch DIR [--git-sha SHA] [--trace-out FILE]\n",
               prog, why.c_str(), prog);
  std::exit(2);
}

uint64_t parse_u64(const char* prog, const char* flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno != 0 || text[0] == '-') {
    usage(prog, std::string(flag) + " expects a non-negative integer");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool has_scratch = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(argv[0], flag + " needs a value");
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = parse_u64(argv[0], "--seed", v);
    } else if (flag == "--seconds") {
      const uint64_t s = parse_u64(argv[0], "--seconds", v);
      if (s < 1 || s > 120) usage(argv[0], "--seconds must be in [1, 120]");
      a.seconds = static_cast<int>(s);
    } else if (flag == "--trace") {
      const uint64_t t = parse_u64(argv[0], "--trace", v);
      if (t > 1) usage(argv[0], "--trace must be 0 or 1");
      a.trace = t == 1;
    } else if (flag == "--scratch") {
      a.scratch = v;
      has_scratch = true;
    } else if (flag == "--git-sha") {
      a.git_sha = v;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(argv[0], "unknown flag " + flag);
    }
  }
  if (a.workload != "fig10_cold" && a.workload != "fig10_warm" &&
      a.workload != "session_kernel") {
    usage(argv[0], "unknown workload '" + a.workload + "'");
  }
  if (!has_scratch) usage(argv[0], "--scratch is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  g_start_ns = now_ns();
  const Args a = parse_args(argc, argv);
  // Calibrates the timestamp (a 20 ms busy loop) before any span or daemon
  // thread needs it.
  (void)cfbench::clock_overhead_ns();
  Outcome o;
  Tracer tracer;
  try {
    if (a.workload == "fig10_cold") {
      o = a.trace ? fig10_cold_traced(a, tracer) : fig10_cold(a);
    } else if (a.workload == "fig10_warm") {
      o = a.trace ? fig10_warm_traced(a, tracer) : fig10_warm(a);
    } else {
      o = a.trace ? session_kernel_traced(a, tracer) : session_kernel(a);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cfbench: %s\n", e.what());
    return 1;
  }
  if (a.trace && !a.trace_out.empty() && !tracer.write_tsv(a.trace_out)) {
    std::fprintf(stderr, "cfbench: cannot write %s\n", a.trace_out.c_str());
  }
  for (const std::string& note : o.notes) std::printf("%s\n", note.c_str());
  print_provenance(a, o);
  print_result(a, o);
  std::fflush(stdout);
  return o.correct && o.failed == 0 ? 0 : 1;
}
