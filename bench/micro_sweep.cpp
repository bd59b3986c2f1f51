// Sweep-engine microbenchmark: wall-clock throughput of the batched
// experiment engine on the Fig. 10 sweep grid (10 OpenMP models x
// (Default + 3 policies) x N seeds), serial vs fanned out over the task
// runtime at increasing worker counts. Reports virtual seconds
// co-simulated per wall-second and verifies the engine's determinism
// contract: the aggregated result table must be bit-identical to the
// serial run at every worker count.
//
// Results go to BENCH_sweep.json. CF_BENCH_SMOKE=1 shrinks the grid for
// CI smoke runs; note that wall-clock speedup tracks the *hardware*
// parallelism available — on a single-core container every worker count
// measures ~1x while the determinism check still runs in full.
//
// --baseline FILE compares against a previously recorded BENCH_sweep.json
// (the repo pins the pre-hot-path-rewrite numbers in
// BENCH_sweep.baseline.json): the serial throughput ratio is reported,
// and when the grids match shape the serial result digest is re-checked
// so accidental result drift is caught, not just races. When the shapes
// differ the digest check is skipped with an explicit reason (printed and
// recorded as digest_skip_reason) — a --seeds/--runs override is a
// different grid, not drift. A baseline that is not JSON or has no
// positive serial.virtual_s_per_wall_s exits 2 before the serial run.
//
// --cache-dir DIR measures the content-addressed result cache: a cold
// cached run (misses simulate and persist) followed by a warm re-run
// (every spec served from disk), both verified bit-identical to the
// uncached serial table. CF_BENCH_GATE=1 requires the warm re-run to be
// >= 20x faster than cold (and keeps the 2x-vs-baseline throughput gate).
//
// --shard i/N + --table-out FILE runs only the grid cells shard i owns
// and writes them as a partial result table; --merge FILE... (repeated,
// glob patterns accepted; a pattern matching nothing is an error) loads N
// such tables, reassembles the full result vector, and reports
// merged_digest — byte-identical to a single-process serial_digest, which
// CI asserts. Gates are same-host tools, not for shared CI boxes.
//
// --supervised runs the grid under the process-level sweep supervisor
// (docs/SUPERVISOR.md): forked workers, journaled resume, poison-spec
// quarantine. It then re-runs the grid serially in-process as the
// identity oracle and exits nonzero unless every non-quarantined cell is
// byte-identical and the quarantine set is exactly what --crash-at
// predicts (empty without a crash directive). Killing a --supervised run
// and re-invoking it with the same flags resumes from the journal; the CI
// crash-smoke job asserts the resumed digest equals the serial one.

#include <glob.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <memory>
#include <thread>

#include <cmath>

#include "bench_util.hpp"
#include "common/json.hpp"
#include "exp/result_cache.hpp"
#include "exp/spec_digest.hpp"
#include "exp/supervisor.hpp"
#include "hal/fault_injection.hpp"

using namespace cuttlefish;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

exp::SweepGrid build_fig10_grid(const sim::MachineConfig& machine, int runs,
                                uint64_t seed0,
                                const exp::RunOptions opt = {}) {
  exp::SweepGrid grid(machine);
  for (const auto& model : workloads::openmp_suite()) {
    const int base =
        grid.add_default(model.name + "/Default", model, opt, runs, seed0);
    for (const auto policy :
         {core::PolicyKind::kFull, core::PolicyKind::kCoreOnly,
          core::PolicyKind::kUncoreOnly}) {
      grid.add_policy(model.name + "/" + core::to_string(policy), model,
                      policy, opt, runs, seed0, base);
    }
  }
  return grid;
}

/// Virtual time co-simulated across all runs of the sweep.
double virtual_seconds(const std::vector<exp::RunResult>& results) {
  double total = 0.0;
  for (const auto& r : results) total += r.time_s;
  return total;
}

/// FNV-1a over the raw bits of every run's scalar results and every
/// aggregated summary value: any reordering- or race-induced drift in any
/// bit of any double shows up as a digest mismatch.
uint64_t digest(const exp::SweepGrid& grid,
                const std::vector<exp::RunResult>& results) {
  uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const void* p, size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ULL;
    }
  };
  const auto mix_d = [&mix](double v) { mix(&v, sizeof(v)); };
  for (const auto& r : results) {
    mix_d(r.time_s);
    mix_d(r.energy_j);
    mix(&r.instructions, sizeof(r.instructions));
  }
  for (const auto& s : exp::summarize(grid, results)) {
    for (const exp::ValueAggregate* a :
         {&s.time_s, &s.energy_j, &s.edp, &s.energy_savings_pct,
          &s.slowdown_pct, &s.edp_savings_pct}) {
      mix_d(a->mean);
      mix_d(a->ci95);
      mix_d(a->min);
      mix_d(a->max);
    }
  }
  return h;
}

std::string digest_hex(uint64_t d) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, d);
  return buf;
}

/// The grid identity recorded in (and parsed back from) every
/// BENCH_sweep.json: two digests are comparable iff all four match.
struct GridShape {
  int64_t grid_points = 0;
  int runs = 0;
  uint64_t seed0 = 0;
  bool smoke = false;

  bool operator==(const GridShape&) const = default;
  std::string describe() const {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "%" PRId64 " points x %d seeds (base %" PRIu64 ", %s)",
                  grid_points, runs, seed0, smoke ? "smoke" : "full");
    return buf;
  }
};

/// The recorded baseline this run is compared against (a prior
/// BENCH_sweep.json).
struct Baseline {
  bool present = false;
  bool shape_matches = false;  // same grid + seeds: digest comparison valid
  GridShape shape;
  double serial_vsps = 0.0;
  std::string serial_digest;  // empty when the file predates the field
};

/// Exits 2, naming the file, when it is unreadable, not JSON, or has no
/// positive serial throughput to compare against.
Baseline load_baseline(const std::string& path, const GridShape& current) {
  std::string text;
  if (!exp::read_file(path, &text)) {
    std::fprintf(stderr, "micro_sweep: cannot read baseline %s\n",
                 path.c_str());
    std::exit(2);
  }
  const std::optional<json::Value> root = json::parse(text);
  const json::Value* serial = root ? root->find("serial") : nullptr;
  Baseline base;
  base.present = true;
  base.serial_vsps =
      serial != nullptr ? serial->num_member_or("virtual_s_per_wall_s", 0.0)
                        : 0.0;
  if (!(base.serial_vsps > 0.0)) {
    std::fprintf(stderr,
                 "micro_sweep: baseline %s is not JSON with a positive "
                 "serial.virtual_s_per_wall_s\n",
                 path.c_str());
    std::exit(2);
  }
  if (const json::Value* d = root->find("serial_digest");
      d != nullptr && d->kind == json::Value::Kind::kString) {
    base.serial_digest = d->text;
  }
  // The full grid identity: point count, seeds per point, seed base and
  // smoke mode all change every result bit, so all four must match before
  // the digests are comparable (fields a file predates or garbles read as
  // 0/false and simply never match — the check is skipped, never
  // mis-reported).
  json::to_int(root->num_member_or("grid_points", 0.0),
               base.shape.grid_points, 0.0, 1e9);
  json::to_int(root->num_member_or("seeds_per_point", 0.0), base.shape.runs,
               0.0, 1e9);
  json::to_int(root->num_member_or("seed_base", 0.0), base.shape.seed0, 0.0,
               9e18);
  const json::Value* smoke = root->find("smoke");
  base.shape.smoke = smoke != nullptr && smoke->boolean;
  base.shape_matches = base.shape == current;
  return base;
}

/// The flags main() strips from argv before the shared parser runs.
constexpr const char* kOwnFlags =
    "[--baseline FILE] [--cache-dir DIR] [--table-out FILE] "
    "[--merge FILE|GLOB]... [--faults transient:SEED|persistent|chaos:SEED]";

/// Same usage line as parse_args prints for main()'s flag groups.
int fail_usage(const char* prog, const std::string& msg) {
  const std::string usage = benchharness::usage_line(
      prog, /*has_reps=*/true, /*has_shards=*/true, /*has_policy=*/false,
      /*has_cache=*/false, /*has_supervise=*/true, kOwnFlags);
  std::fprintf(stderr, "%s: %s\n%s\n", prog, msg.c_str(), usage.c_str());
  return 2;
}

/// Chaos-smoke mode: the whole grid re-run under a seeded fault schedule.
/// `transient:SEED` asserts the recovery contract — every burst heals
/// within the in-call retry budget, so the faulted table must be
/// bit-identical to the fault-free one (exit 1 on any drift).
/// `persistent` / `chaos:SEED` assert survival: heavy, unhealed fault
/// load, every co-simulation still runs to completion without crashing.
int run_faults_mode(const sim::MachineConfig& machine,
                    const exp::SweepGrid& clean_grid,
                    const benchharness::BenchArgs& args, uint64_t seed0,
                    const char* prog, const std::string& spec) {
  std::string mode = spec;
  uint64_t fault_seed = 7;
  if (const auto colon = spec.find(':'); colon != std::string::npos) {
    mode = spec.substr(0, colon);
    fault_seed = std::strtoull(spec.c_str() + colon + 1, nullptr, 10);
  }
  hal::FaultSchedule schedule;
  if (mode == "transient") {
    schedule = hal::FaultSchedule::transient_only(fault_seed);
  } else if (mode == "persistent") {
    schedule = hal::FaultSchedule::persistent_sensor_failure();
  } else if (mode == "chaos") {
    schedule = hal::FaultSchedule::chaos(fault_seed);
  } else {
    return fail_usage(prog, "--faults expects transient:SEED, persistent "
                            "or chaos:SEED, got '" + spec + "'");
  }

  const double t0 = now_s();
  const std::vector<exp::RunResult> clean = exp::run_sweep(clean_grid, nullptr);
  const double clean_wall = now_s() - t0;
  const uint64_t clean_digest = digest(clean_grid, clean);
  std::printf("  fault-free: %7.3fs wall, digest %s\n", clean_wall,
              digest_hex(clean_digest).c_str());

  exp::RunOptions opt;
  opt.faults = &schedule;
  const exp::SweepGrid faulted_grid =
      build_fig10_grid(machine, args.runs, seed0, opt);
  const double t1 = now_s();
  const std::vector<exp::RunResult> faulted =
      exp::run_sweep(faulted_grid, nullptr);
  const double faulted_wall = now_s() - t1;
  const uint64_t faulted_digest = digest(faulted_grid, faulted);

  // Survival: every co-simulation completed with sane results.
  for (const exp::RunResult& r : faulted) {
    if (!(r.time_s > 0.0) || !std::isfinite(r.time_s) ||
        !std::isfinite(r.energy_j)) {
      std::fprintf(stderr,
                   "FAIL: a faulted co-simulation produced a degenerate "
                   "result (time %.3f, energy %.3f)\n",
                   r.time_s, r.energy_j);
      return 1;
    }
  }
  const bool identical = faulted_digest == clean_digest;
  std::printf("  %s faults: %7.3fs wall, digest %s (%s fault-free)\n",
              mode.c_str(), faulted_wall,
              digest_hex(faulted_digest).c_str(),
              identical ? "identical to" : "differs from");
  if (mode == "transient" && !identical) {
    std::fprintf(stderr,
                 "FAIL: transient schedule (seed %" PRIu64 ") drifted the "
                 "sweep digest — recovery is not bit-exact\n",
                 fault_seed);
    return 1;
  }
  std::printf("  chaos-smoke %s: OK (%zu co-simulations survived)\n",
              mode.c_str(), faulted.size());
  return 0;
}

/// Supervised mode: the grid under the process-level supervisor, then an
/// uninterrupted in-process serial run as the identity oracle. Ordered so
/// that a SIGKILL of this process mid-run (the CI crash-smoke job) lands
/// while forked workers are running and the journal is growing — the
/// resumed invocation re-runs only the unfinished specs and must still
/// match the serial digest bit for bit.
int run_supervised_mode(const exp::SweepGrid& grid,
                        const benchharness::BenchArgs& args,
                        const GridShape& shape, const char* prog) {
  exp::SupervisorOptions opt;
  opt.max_workers = args.workers;
  opt.max_attempts = args.attempts;
  if (args.spec_timeout_s > 0) opt.spec_timeout_s = args.spec_timeout_s;
  if (args.sweep_timeout_s > 0) opt.total_timeout_s = args.sweep_timeout_s;
  if (!args.crash_at.empty()) {
    std::string error;
    const auto crash = exp::parse_crash_spec(args.crash_at, &error);
    if (!crash) return fail_usage(prog, "--crash-at " + error);
    if (crash->spec_index >= static_cast<int64_t>(grid.size())) {
      return fail_usage(prog, "--crash-at spec index " +
                                  std::to_string(crash->spec_index) +
                                  " outside the grid of " +
                                  std::to_string(grid.size()) + " specs");
    }
    opt.crash = *crash;
  }
  const std::string journal_dir =
      args.journal_dir.empty() ? "BENCH_sweep.journal" : args.journal_dir;

  const double t0 = now_s();
  exp::SweepSupervisor supervisor(grid, journal_dir, opt);
  exp::SupervisorReport report;
  const std::vector<exp::RunResult> supervised = supervisor.run(&report);
  const double supervised_wall = now_s() - t0;
  if (!report.error.empty()) {
    std::fprintf(stderr, "micro_sweep: supervised sweep failed: %s\n",
                 report.error.c_str());
    return 2;
  }
  std::printf("  supervised: %7.3fs wall (%zu resumed from journal, %zu "
              "executed, %zu retries, %zu quarantined)\n",
              supervised_wall, report.resumed, report.executed,
              report.retries, report.quarantined.size());
  if (!report.completed) {
    std::fprintf(stderr,
                 "micro_sweep: supervised sweep incomplete (%zu specs "
                 "unfinished); rerun with the same --journal %s to "
                 "resume\n",
                 report.unfinished.size(), journal_dir.c_str());
    return 1;
  }

  // Uninterrupted single-process reference — the digest oracle.
  const double t1 = now_s();
  const std::vector<exp::RunResult> serial = exp::run_sweep(grid, nullptr);
  const double serial_wall = now_s() - t1;
  const std::string serial_hex = digest_hex(digest(grid, serial));
  const std::string supervised_hex = digest_hex(digest(grid, supervised));
  std::printf("  serial:     %7.3fs wall, digest %s\n", serial_wall,
              serial_hex.c_str());

  // Every cell a worker produced must be byte-identical to the serial
  // run; quarantined cells are intentionally absent (left zeroed).
  std::vector<uint8_t> quarantined(grid.size(), 0);
  for (const exp::QuarantineRow& row : report.quarantined) {
    if (row.spec_index < grid.size()) quarantined[row.spec_index] = 1;
  }
  size_t mismatched = 0;
  for (size_t i = 0; i < grid.size(); ++i) {
    if (quarantined[i]) continue;
    if (exp::encode_result(supervised[i]) != exp::encode_result(serial[i])) {
      ++mismatched;
    }
  }
  const bool digest_identical = supervised_hex == serial_hex;

  // The quarantine set is fully predicted by the crash directive: a hook
  // that fires on every attempt poisons exactly its spec; a bounded one
  // (or none) must quarantine nothing.
  std::vector<uint64_t> expected;
  if (opt.crash.enabled() && opt.crash.times < 0) {
    expected.push_back(static_cast<uint64_t>(opt.crash.spec_index));
  }
  std::vector<uint64_t> got;
  std::string got_json;
  for (const exp::QuarantineRow& row : report.quarantined) {
    got.push_back(row.spec_index);
    if (!got_json.empty()) got_json += ", ";
    got_json += std::to_string(row.spec_index);
  }
  std::sort(got.begin(), got.end());
  const bool quarantine_as_expected = got == expected;

  std::printf("  supervised digest %s: %s serial (%zu/%zu cells "
              "identical, quarantine %s)\n",
              supervised_hex.c_str(),
              digest_identical ? "identical to" : "differs from",
              grid.size() - mismatched - got.size(), grid.size(),
              quarantine_as_expected ? "as expected" : "UNEXPECTED");

  benchharness::JsonWriter json;
  json.field("grid_points", static_cast<int64_t>(grid.points().size()));
  json.field("co_simulations", static_cast<int64_t>(grid.size()));
  json.field("seeds_per_point", args.runs);
  json.field("seed_base", static_cast<int64_t>(shape.seed0));
  json.field("smoke", shape.smoke);
  json.field("journal", journal_dir);
  json.field("resumed_specs", static_cast<int64_t>(report.resumed));
  json.field("executed_specs", static_cast<int64_t>(report.executed));
  json.field("retries", static_cast<int64_t>(report.retries));
  json.raw("quarantined_indices", "[" + got_json + "]");
  json.field("supervised_wall_s", supervised_wall, 4);
  json.field("serial_wall_s", serial_wall, 4);
  json.field("supervised_digest", supervised_hex);
  json.field("serial_digest", serial_hex);
  json.field("digest_identical", digest_identical);
  json.field("cells_identical", mismatched == 0);
  json.field("quarantine_as_expected", quarantine_as_expected);
  json.write(args.json_out);

  if (mismatched > 0) {
    std::fprintf(stderr,
                 "micro_sweep: %zu supervised cell(s) diverged from the "
                 "serial run\n",
                 mismatched);
    return 1;
  }
  if (!quarantine_as_expected) {
    std::fprintf(stderr,
                 "micro_sweep: quarantine set [%s] does not match the "
                 "--crash-at prediction\n",
                 got_json.c_str());
    return 1;
  }
  if (expected.empty() && !digest_identical) {
    std::fprintf(stderr,
                 "micro_sweep: supervised digest drifted from serial with "
                 "nothing quarantined\n");
    return 1;
  }
  return 0;
}

/// Shard mode: run only the owned subset, write the partial table, done.
/// Deliberately no JSON/baseline machinery — the merged run owns those.
int run_shard_mode(const exp::SweepGrid& grid, const benchharness::BenchArgs& args,
                   std::string table_out) {
  if (table_out.empty()) {
    table_out = "BENCH_sweep.shard" + std::to_string(args.shard_index) +
                "-of-" + std::to_string(args.shard_count) + ".tbl";
  }
  std::unique_ptr<runtime::TaskScheduler> scheduler;
  if (args.workers > 1) {
    scheduler = std::make_unique<runtime::TaskScheduler>(args.workers);
  }
  const double t0 = now_s();
  exp::ShardTable table;
  table.grid_size = grid.size();
  table.shard_index = args.shard_index;
  table.shard_count = args.shard_count;
  table.rows = exp::run_sweep_shard(grid, args.shard_index, args.shard_count,
                                    scheduler.get());
  const double wall = now_s() - t0;
  if (!exp::save_shard_table(table_out, table)) return 1;
  double virt = 0.0;
  for (const auto& [idx, r] : table.rows) virt += r.time_s;
  std::printf("  shard %d/%d: %zu of %zu co-simulations, %7.3fs wall, "
              "%8.1f virtual s/s -> %s\n",
              args.shard_index, args.shard_count, table.rows.size(),
              grid.size(), wall, virt / wall, table_out.c_str());
  return 0;
}

/// Merge mode: no simulation at all — load the N partial tables,
/// reassemble the full result vector, and report the digest of the merged
/// table (byte-identical to a single-process run's serial_digest; CI
/// asserts exactly that).
int run_merge_mode(const exp::SweepGrid& grid, const benchharness::BenchArgs& args,
                   const GridShape& shape,
                   const std::vector<std::string>& merge_paths,
                   const std::string& json_out) {
  // Every --merge value may be a literal path or a glob pattern. A
  // pattern that matches nothing is an error, not an empty contribution:
  // a fleet recipe whose `--merge 'out/*.tbl'` glob finds no files must
  // fail here rather than "succeed" after merging nothing.
  std::vector<std::string> expanded;
  for (const auto& pattern : merge_paths) {
    ::glob_t g{};
    const int rc = ::glob(pattern.c_str(), 0, nullptr, &g);
    if (rc == GLOB_NOMATCH || (rc == 0 && g.gl_pathc == 0)) {
      ::globfree(&g);
      std::fprintf(stderr,
                   "micro_sweep: --merge '%s' matched no shard files\n",
                   pattern.c_str());
      return 2;
    }
    if (rc != 0) {
      ::globfree(&g);
      std::fprintf(stderr, "micro_sweep: --merge cannot expand '%s'\n",
                   pattern.c_str());
      return 2;
    }
    for (size_t i = 0; i < g.gl_pathc; ++i) {
      expanded.emplace_back(g.gl_pathv[i]);
    }
    ::globfree(&g);
  }
  std::vector<exp::ShardTable> tables;
  for (const auto& path : expanded) {
    exp::ShardTable table;
    std::string error;
    if (!exp::load_shard_table(path, &table, &error)) {
      std::fprintf(stderr, "micro_sweep: %s: %s\n", path.c_str(),
                   error.c_str());
      return 2;
    }
    if (table.grid_size != grid.size()) {
      std::fprintf(stderr,
                   "micro_sweep: %s covers a %" PRIu64
                   "-cell grid but the current flags build %zu cells — "
                   "rerun with the --runs/--seeds the shards used\n",
                   path.c_str(), table.grid_size, grid.size());
      return 2;
    }
    std::printf("  loaded %s: shard %d/%d, %zu rows\n", path.c_str(),
                table.shard_index, table.shard_count, table.rows.size());
    tables.push_back(std::move(table));
  }
  std::string error;
  const auto merged = exp::merge_shard_tables(tables, &error);
  if (!merged) {
    std::fprintf(stderr, "micro_sweep: merge failed: %s\n", error.c_str());
    return 1;
  }
  const std::string merged_hex = digest_hex(digest(grid, *merged));
  std::printf("  merged %zu tables -> %zu results, digest %s\n",
              tables.size(), merged->size(), merged_hex.c_str());

  benchharness::JsonWriter json;
  json.field("grid_points", static_cast<int64_t>(grid.points().size()));
  json.field("co_simulations", static_cast<int64_t>(grid.size()));
  json.field("seeds_per_point", args.runs);
  json.field("seed_base", static_cast<int64_t>(shape.seed0));
  json.field("smoke", shape.smoke);
  json.field("shard_count", tables.empty() ? 0 : tables.front().shard_count);
  json.field("merged_digest", merged_hex);
  json.field("virtual_seconds", virtual_seconds(*merged), 3);
  json.write(json_out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = std::getenv("CF_BENCH_SMOKE") != nullptr;
  // --baseline/--cache-dir/--table-out/--merge are this bench's own
  // flags; strip them before the shared parser sees the rest.
  std::string baseline_path;
  std::string cache_dir;
  std::string table_out;
  std::string faults_spec;
  std::vector<std::string> merge_paths;
  std::vector<char*> filtered{argv, argv + argc};
  for (size_t i = 1; i < filtered.size();) {
    const std::string arg = filtered[i];
    std::string* dest = nullptr;
    if (arg == "--baseline") dest = &baseline_path;
    if (arg == "--cache-dir") dest = &cache_dir;
    if (arg == "--table-out") dest = &table_out;
    if (arg == "--faults") dest = &faults_spec;
    if (dest == nullptr && arg != "--merge") {
      ++i;
      continue;
    }
    if (i + 1 >= filtered.size()) {
      return fail_usage(argv[0], arg + ": expects a value");
    }
    if (dest != nullptr) {
      *dest = filtered[i + 1];
    } else {
      merge_paths.push_back(filtered[i + 1]);
    }
    filtered.erase(filtered.begin() + static_cast<long>(i),
                   filtered.begin() + static_cast<long>(i) + 2);
  }
  auto args = benchharness::parse_args(static_cast<int>(filtered.size()),
                                       filtered.data(), smoke ? 2 : 10,
                                       /*has_reps=*/true, /*has_shards=*/true,
                                       /*has_policy=*/false,
                                       /*has_cache=*/false,
                                       /*has_supervise=*/true, kOwnFlags);
  if (args.json_out.empty()) args.json_out = "BENCH_sweep.json";
  const uint64_t seed0 = benchharness::seed_base(args, 1000);
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const exp::SweepGrid grid = build_fig10_grid(machine, args.runs, seed0);
  const GridShape shape{static_cast<int64_t>(grid.points().size()), args.runs,
                        seed0, smoke};

  if (!merge_paths.empty() && args.shard_count > 1) {
    return fail_usage(argv[0],
                      "--merge and --shard are mutually exclusive (shards "
                      "produce tables; the merge consumes them)");
  }
  if (!table_out.empty() && args.shard_count <= 1) {
    return fail_usage(argv[0], "--table-out requires --shard i/N");
  }
  if (!args.supervised &&
      (!args.journal_dir.empty() || !args.crash_at.empty() ||
       args.spec_timeout_s > 0 || args.sweep_timeout_s > 0)) {
    return fail_usage(argv[0],
                      "--journal/--crash-at/--spec-timeout/--sweep-timeout "
                      "require --supervised");
  }
  if (args.supervised &&
      (args.shard_count > 1 || !merge_paths.empty() || !cache_dir.empty() ||
       !baseline_path.empty() || !faults_spec.empty())) {
    return fail_usage(argv[0],
                      "--supervised runs standalone (no shard/merge/cache/"
                      "baseline/faults)");
  }

  std::printf("micro_sweep: Fig. 10 grid, %zu points / %zu co-simulations "
              "(%d seeds per point, %s mode)\n",
              grid.points().size(), grid.size(), args.runs,
              smoke ? "smoke" : "full");

  if (!faults_spec.empty()) {
    if (args.shard_count > 1 || !merge_paths.empty() || !cache_dir.empty() ||
        !baseline_path.empty()) {
      return fail_usage(argv[0],
                        "--faults runs standalone (no shard/merge/cache/"
                        "baseline)");
    }
    return run_faults_mode(machine, grid, args, seed0, argv[0], faults_spec);
  }

  if (args.supervised) {
    return run_supervised_mode(grid, args, shape, argv[0]);
  }
  if (args.shard_count > 1) return run_shard_mode(grid, args, table_out);
  if (!merge_paths.empty()) {
    return run_merge_mode(grid, args, shape, merge_paths, args.json_out);
  }

  // Read before the serial run, so a bad file fails fast.
  Baseline base;
  if (!baseline_path.empty()) base = load_baseline(baseline_path, shape);

  // Serial reference.
  const double t0 = now_s();
  const std::vector<exp::RunResult> serial = exp::run_sweep(grid, nullptr);
  const double serial_wall = now_s() - t0;
  const double virt = virtual_seconds(serial);
  const uint64_t serial_digest = digest(grid, serial);
  const double serial_vsps = virt / serial_wall;
  const std::string serial_hex = digest_hex(serial_digest);
  std::printf("  serial:     %7.3fs wall, %8.1f virtual s/s\n", serial_wall,
              serial_vsps);

  bool digest_drift = false;
  std::string digest_skip_reason;
  if (base.present) {
    const double speedup = serial_vsps / base.serial_vsps;
    std::printf("  vs baseline: %8.1f virtual s/s -> %.2fx serial throughput\n",
                base.serial_vsps, speedup);
    if (!base.shape_matches) {
      digest_skip_reason = "grid shape mismatch: baseline " +
                           base.shape.describe() + " vs current " +
                           shape.describe();
    } else if (base.serial_digest.empty()) {
      digest_skip_reason = "baseline predates the serial_digest field";
    }
    if (digest_skip_reason.empty()) {
      digest_drift = base.serial_digest != serial_hex;
      std::printf("  baseline digest %s: %s\n", base.serial_digest.c_str(),
                  digest_drift ? "DRIFT" : "identical");
    } else {
      std::printf("  baseline digest check skipped: %s\n",
                  digest_skip_reason.c_str());
    }
  }

  // Parallel at growing worker counts (always including the acceptance
  // point of 4 workers and the requested --workers).
  std::vector<int> worker_counts{2, 4};
  if (args.workers > 1 &&
      std::find(worker_counts.begin(), worker_counts.end(), args.workers) ==
          worker_counts.end()) {
    worker_counts.push_back(args.workers);
  }

  benchharness::JsonWriter json;
  json.field("grid_points", static_cast<int64_t>(grid.points().size()));
  json.field("co_simulations", static_cast<int64_t>(grid.size()));
  json.field("seeds_per_point", args.runs);
  json.field("seed_base", static_cast<int64_t>(seed0));
  json.field("smoke", smoke);
  json.field("hardware_threads",
             static_cast<int64_t>(std::thread::hardware_concurrency()));
  json.field("virtual_seconds", virt, 3);
  json.field("serial_digest", serial_hex);
  {
    benchharness::JsonWriter row;
    row.field("wall_s", serial_wall, 4);
    row.field("virtual_s_per_wall_s", serial_vsps, 2);
    json.raw("serial", row.compact());
  }
  if (base.present) {
    benchharness::JsonWriter row;
    row.field("file", baseline_path);
    row.field("virtual_s_per_wall_s", base.serial_vsps, 2);
    row.field("speedup", serial_vsps / base.serial_vsps, 3);
    row.field("digest_comparable", digest_skip_reason.empty());
    if (!digest_skip_reason.empty()) {
      row.field("digest_skip_reason", digest_skip_reason);
    }
    row.field("digest_identical", !digest_drift);
    json.raw("baseline", row.compact());
  }

  std::string rows;
  bool all_identical = true;
  for (const int workers : worker_counts) {
    const double p0 = now_s();
    const std::vector<exp::RunResult> parallel =
        exp::run_sweep(grid, workers);
    const double wall = now_s() - p0;
    const bool identical = digest(grid, parallel) == serial_digest;
    all_identical = all_identical && identical;
    const double speedup = serial_wall / wall;
    std::printf("  %d workers:  %7.3fs wall, %8.1f virtual s/s, %.2fx, "
                "results %s\n",
                workers, wall, virt / wall, speedup,
                identical ? "bit-identical" : "MISMATCH");
    benchharness::JsonWriter row;
    row.field("workers", workers);
    row.field("wall_s", wall, 4);
    row.field("virtual_s_per_wall_s", virt / wall, 2);
    row.field("speedup", speedup, 3);
    row.field("identical_to_serial", identical);
    if (!rows.empty()) rows += ", ";
    rows += row.compact();
  }
  json.raw("parallel", "[" + rows + "]");
  json.field("all_identical_to_serial", all_identical);

  // Content-addressed cache: a cold cached run (simulate + persist every
  // miss) then a warm re-run (served entirely from disk), both checked
  // bit-identical to the uncached serial table. The 20x warm gate only
  // makes sense when the cold run actually simulated the whole grid, so a
  // pre-populated --cache-dir downgrades it to a report.
  bool cache_identical = true;
  bool cache_cold = false;
  double warm_speedup = 0.0;
  if (!cache_dir.empty()) {
    exp::ResultCache cache(cache_dir);
    exp::SweepRunStats cold_stats;
    const double c0 = now_s();
    const std::vector<exp::RunResult> cold =
        exp::run_sweep(grid, nullptr, &cache, &cold_stats);
    const double cold_wall = now_s() - c0;
    exp::SweepRunStats warm_stats;
    const double w0 = now_s();
    const std::vector<exp::RunResult> warm =
        exp::run_sweep(grid, nullptr, &cache, &warm_stats);
    const double warm_wall = now_s() - w0;
    cache_identical = digest(grid, cold) == serial_digest &&
                      digest(grid, warm) == serial_digest;
    cache_cold = cold_stats.cache_misses == grid.size();
    warm_speedup = cold_wall / warm_wall;
    std::printf("  cache cold: %7.3fs wall (%zu hits / %zu misses)\n",
                cold_wall, cold_stats.cache_hits, cold_stats.cache_misses);
    std::printf("  cache warm: %7.3fs wall (%zu hits / %zu misses), "
                "%.1fx vs cold, results %s\n",
                warm_wall, warm_stats.cache_hits, warm_stats.cache_misses,
                warm_speedup, cache_identical ? "bit-identical" : "MISMATCH");
    benchharness::JsonWriter row;
    row.field("dir", cache_dir);
    row.field("cold_wall_s", cold_wall, 4);
    row.field("cold_hits", static_cast<int64_t>(cold_stats.cache_hits));
    row.field("cold_misses", static_cast<int64_t>(cold_stats.cache_misses));
    row.field("warm_wall_s", warm_wall, 4);
    row.field("warm_hits", static_cast<int64_t>(warm_stats.cache_hits));
    row.field("warm_misses", static_cast<int64_t>(warm_stats.cache_misses));
    row.field("warm_speedup", warm_speedup, 2);
    row.field("truly_cold", cache_cold);
    row.field("identical_to_serial", cache_identical);
    json.raw("cache", row.compact());
  }
  json.write(args.json_out);

  if (!all_identical) {
    std::fprintf(stderr,
                 "micro_sweep: parallel results diverged from serial\n");
    return 1;
  }
  if (!cache_identical) {
    std::fprintf(stderr,
                 "micro_sweep: cached results diverged from serial\n");
    return 1;
  }
  if (digest_drift) {
    std::fprintf(stderr,
                 "micro_sweep: serial results drifted from the recorded "
                 "baseline digest\n");
    return 1;
  }
  const bool gate = std::getenv("CF_BENCH_GATE") != nullptr;
  if (gate && base.present && serial_vsps < 2.0 * base.serial_vsps) {
    std::fprintf(stderr,
                 "micro_sweep: %.1f virtual s/s is below 2x the recorded "
                 "baseline (%.1f)\n",
                 serial_vsps, base.serial_vsps);
    return 1;
  }
  if (gate && cache_cold && warm_speedup < 20.0) {
    std::fprintf(stderr,
                 "micro_sweep: warm cache re-run is only %.1fx faster than "
                 "cold (gate requires >= 20x)\n",
                 warm_speedup);
    return 1;
  }
  return 0;
}
