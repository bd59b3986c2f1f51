#pragma once

// Shared helpers for the table/figure regeneration binaries. Every binary
// prints a human-readable table to stdout (mirroring the paper's rows)
// and writes a machine-readable CSV under ./ (filename printed at exit).
//
// Common CLI, replacing the per-bench ad-hoc parsing:
//   --runs N       replicates per sweep point (legacy positional N works)
//   --seeds B      override the bench's default seed base
//   --workers N    sweep fan-out width (co-simulations run on N workers;
//                  results are bit-identical to --workers 1 by the sweep
//                  engine's determinism contract)
//   --shard i/N    run only the grid cells shard i of N owns (benches that
//                  implement the shard protocol, e.g. micro_sweep; the
//                  partition is deterministic, so N processes cover a grid
//                  exactly once and merge byte-identically)
//   --policy NAME  restrict a policy-comparison bench to one registered
//                  controller kind (benches that opt in, e.g.
//                  ablation_controller; unknown names are rejected with
//                  the registered list)
//   --cache-dir D  serve sweep cells from (and persist misses to) the
//                  content-addressed result cache at D (benches that opt
//                  in: the figure/table regenerators). Cached results are
//                  byte-exact, so tables are bit-identical at any hit rate.
//   --json-out F   write a machine-readable JSON summary to F
//
// Supervised-sweep flags (benches that opt in, e.g. micro_sweep; see
// docs/SUPERVISOR.md):
//   --supervised     run the grid under the process-level supervisor
//                    (forked workers, journaled resume, poison-spec
//                    quarantine)
//   --journal DIR    journal directory for --supervised (resume = rerun
//                    with the same flags and the same DIR)
//   --crash-at SPEC  deterministic worker self-kill directive
//                    <spec-index>:<abort|kill|hang|exit>[:times]
//   --attempts K     worker launches before a spec is quarantined
//   --spec-timeout S per-spec wall-clock budget in seconds (SIGKILL on
//                    overrun)
//   --sweep-timeout S whole-run wall-clock budget in seconds (the journal
//                    survives; resume continues)

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/csv.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"
#include "core/controller_factory.hpp"
#include "exp/calibrate.hpp"
#include "exp/driver.hpp"
#include "exp/metrics.hpp"
#include "exp/record_file.hpp"
#include "exp/result_cache.hpp"
#include "exp/sweep.hpp"
#include "runtime/scheduler.hpp"
#include "sim/machine_config.hpp"
#include "workloads/suite.hpp"

namespace cuttlefish::benchharness {

struct BenchArgs {
  int runs = 1;            // seed replicates per sweep point
  uint64_t seed_base = 0;  // 0 = use the bench's historical base
  int workers = 1;         // sweep fan-out width
  int shard_index = 0;     // --shard i/N; 0/1 = unsharded
  int shard_count = 1;
  std::string json_out;    // empty = no JSON summary
  std::string cache_dir;   // empty = uncached sweeps
  // --policy NAME, validated against the controller-factory registry.
  // nullopt = bench compares every kind it knows about.
  std::optional<core::PolicyKind> policy;
  // Supervised-sweep flags (docs/SUPERVISOR.md); only parsed for benches
  // that pass has_supervise.
  bool supervised = false;
  std::string journal_dir;     // empty = the bench's default journal dir
  std::string crash_at;        // <spec>:<mode>[:times]; empty = no hook
  int attempts = 3;            // K: worker launches before quarantine
  double spec_timeout_s = 0;   // 0 = the supervisor's default budget
  double sweep_timeout_s = 0;  // 0 = no whole-run budget
};

/// Seed base helper: the paper benches keep their historical bases (so
/// tables stay reproducible) unless --seeds overrides them.
inline uint64_t seed_base(const BenchArgs& args, uint64_t fallback) {
  return args.seed_base != 0 ? args.seed_base : fallback;
}

/// The usage line of one bench: the flags every bench takes, the optional
/// groups it accepts (parse_args' has_* switches), then `own_flags`, the
/// flags the bench strips from argv itself before parse_args runs.
inline std::string usage_line(const char* prog, bool has_reps,
                              bool has_shards, bool has_policy,
                              bool has_cache, bool has_supervise,
                              const char* own_flags = "") {
  std::string line = std::string("usage: ") + prog;
  if (has_reps) line += " [N | --runs N] [--seeds B (nonzero)]";
  line += " [--workers N]";
  if (has_shards) line += " [--shard i/N]";
  if (has_policy) line += " [--policy NAME]";
  if (has_cache) line += " [--cache-dir DIR]";
  line += " [--json-out FILE]";
  if (has_supervise) {
    line +=
        " [--supervised] [--journal DIR] [--crash-at I:MODE[:TIMES]]"
        " [--attempts K] [--spec-timeout S] [--sweep-timeout S]";
  }
  if (*own_flags != '\0') line += std::string(" ") + own_flags;
  return line;
}

/// A bench's command-line diagnostics: its name and its usage line.
struct Cli {
  const char* prog;
  std::string usage;

  /// Reject a flag with a specific reason before the usage line —
  /// "--shard: shard index 4 out of range for 4 shards" beats a bare
  /// usage dump.
  [[noreturn]] void reject(const std::string& flag,
                           const std::string& reason) const {
    std::fprintf(stderr, "%s: %s: %s\n%s\n", prog, flag.c_str(),
                 reason.c_str(), usage.c_str());
    std::exit(2);
  }
};

/// Strict positive-integer parse: trailing garbage ("1O", "4x") must fail
/// loudly, not silently truncate into a wrong-but-plausible count.
inline int parse_positive_int(const Cli& cli, const std::string& flag,
                              const char* text) {
  char* end = nullptr;
  const long n = std::strtol(text, &end, 10);
  if (end == text || *end != '\0') {
    cli.reject(flag, std::string("expects a positive integer, got '") +
                         text + "'");
  }
  if (n <= 0 || n > 1000000) {
    cli.reject(flag,
               std::string("must be in [1, 1000000], got '") + text + "'");
  }
  return static_cast<int>(n);
}

/// `--shard i/N` (e.g. "0/4"): both halves strict integers, N >= 1,
/// 0 <= i < N. Every malformed shape gets its own message — a CI matrix
/// that typos its shard arithmetic should fail with the reason, not run
/// the wrong partition.
inline void parse_shard(const Cli& cli, const char* text, int* index,
                        int* count) {
  const std::string s = text;
  const auto slash = s.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= s.size()) {
    cli.reject("--shard", "expects i/N (e.g. 0/4), got '" + s + "'");
  }
  char* end = nullptr;
  const long i = std::strtol(s.c_str(), &end, 10);
  if (end != s.c_str() + slash) {
    cli.reject("--shard", "shard index must be an integer, got '" +
                              s.substr(0, slash) + "'");
  }
  const char* count_text = s.c_str() + slash + 1;
  const long n = std::strtol(count_text, &end, 10);
  if (end == count_text || *end != '\0') {
    cli.reject("--shard", "shard count must be an integer, got '" +
                              s.substr(slash + 1) + "'");
  }
  if (n <= 0) {
    cli.reject("--shard",
               "shard count must be positive, got " + std::to_string(n));
  }
  if (i < 0 || i >= n) {
    cli.reject("--shard", "shard index " + std::to_string(i) +
                              " out of range for " + std::to_string(n) +
                              " shards (need 0 <= i < N)");
  }
  *index = static_cast<int>(i);
  *count = static_cast<int>(n);
}

/// Strict positive-double parse for the wall-clock budget flags.
inline double parse_positive_double(const Cli& cli, const std::string& flag,
                                    const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(v > 0.0)) {
    cli.reject(flag,
               std::string("expects a positive number of seconds, got '") +
                   text + "'");
  }
  return v;
}

/// Parse the common bench flags. argv[1] as a bare positive integer is
/// still accepted as the run count (the historical calling convention).
/// Benches without seeded replicates (exhaustive/analytic sweeps) pass
/// has_reps = false, which rejects --runs/--seeds loudly instead of
/// accepting a flag that would silently do nothing; likewise has_shards
/// marks the benches that implement the --shard partition protocol,
/// has_policy the benches that can restrict to one controller kind,
/// has_cache the benches whose sweeps run through the result cache when
/// --cache-dir is given, and has_supervise the benches that can run under
/// the process-level sweep supervisor. Rejections print the usage line
/// of exactly these groups plus `own_flags` (see usage_line).
inline BenchArgs parse_args(int argc, char** argv, int default_runs,
                            bool has_reps = true, bool has_shards = false,
                            bool has_policy = false, bool has_cache = false,
                            bool has_supervise = false,
                            const char* own_flags = "") {
  const Cli cli{argv[0], usage_line(argv[0], has_reps, has_shards, has_policy,
                                    has_cache, has_supervise, own_flags)};
  BenchArgs args;
  args.runs = default_runs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) cli.reject(arg, "expects a value");
      return argv[++i];
    };
    const auto reps_only = [&]() {
      if (has_reps) return;
      cli.reject(arg,
                 "not applicable — this bench sweeps its whole parameter "
                 "space and has no seeded replicates");
    };
    if (arg == "--runs") {
      reps_only();
      args.runs = parse_positive_int(cli, arg, value());
    } else if (arg == "--seeds") {
      reps_only();
      const char* v = value();
      char* end = nullptr;
      args.seed_base = std::strtoull(v, &end, 10);
      // 0 is the "use the bench's historical base" sentinel, so a typo'd
      // or zero base must fail loudly rather than silently rerunning the
      // published tables.
      if (end == v || *end != '\0' || args.seed_base == 0) {
        cli.reject(arg, std::string("expects a nonzero seed base, got '") +
                            v + "'");
      }
    } else if (arg == "--workers") {
      args.workers = parse_positive_int(cli, arg, value());
    } else if (arg == "--shard") {
      const char* v = value();
      if (!has_shards) {
        cli.reject(arg,
                   "not supported — this bench runs its whole grid in one "
                   "process");
      }
      parse_shard(cli, v, &args.shard_index, &args.shard_count);
    } else if (arg == "--policy") {
      const char* v = value();
      if (!has_policy) {
        cli.reject(arg,
                   "not supported — this bench does not compare controller "
                   "policies");
      }
      const auto kind = core::policy_kind_from_string(v);
      if (!kind) {
        cli.reject(arg, std::string("unknown policy '") + v +
                            "' (registered: " + core::known_policy_names() +
                            ")");
      }
      args.policy = *kind;
    } else if (arg == "--cache-dir") {
      const char* v = value();
      if (!has_cache) {
        cli.reject(arg,
                   "not supported — this bench does not run "
                   "content-addressed sweeps");
      }
      if (*v == '\0') cli.reject(arg, "expects a directory path");
      args.cache_dir = v;
    } else if (arg == "--json-out") {
      args.json_out = value();
    } else if (arg == "--supervised" || arg == "--journal" ||
               arg == "--crash-at" || arg == "--attempts" ||
               arg == "--spec-timeout" || arg == "--sweep-timeout") {
      if (!has_supervise) {
        cli.reject(arg,
                   "not supported — this bench does not run supervised "
                   "sweeps");
      }
      if (arg == "--supervised") {
        args.supervised = true;
      } else if (arg == "--journal") {
        const char* v = value();
        if (*v == '\0') cli.reject(arg, "expects a directory path");
        args.journal_dir = v;
      } else if (arg == "--crash-at") {
        // Validated against the full <spec>:<mode>[:times] grammar by the
        // bench once the grid exists (the spec index is grid-relative).
        args.crash_at = value();
      } else if (arg == "--attempts") {
        args.attempts = parse_positive_int(cli, arg, value());
      } else if (arg == "--spec-timeout") {
        args.spec_timeout_s = parse_positive_double(cli, arg, value());
      } else {
        args.sweep_timeout_s = parse_positive_double(cli, arg, value());
      }
    } else if (i == 1 && arg[0] >= '0' && arg[0] <= '9') {
      reps_only();
      args.runs = parse_positive_int(cli, "run count", arg.c_str());
    } else {
      cli.reject(arg, "unknown argument");
    }
  }
  return args;
}

/// Minimal flat JSON-object emitter for the BENCH_*.json artifacts:
/// insertion-ordered fields, `raw` for nested arrays/objects rendered by
/// the caller. Keys, strings and numbers go through common/json.
class JsonWriter {
 public:
  /// Fixed-point with `precision` decimals; `null` when not finite.
  void field(const std::string& name, double v, int precision = 6) {
    fields_.emplace_back(name, json::number(v, precision));
  }
  void field(const std::string& name, int64_t v) {
    fields_.emplace_back(name, std::to_string(v));
  }
  void field(const std::string& name, int v) {
    field(name, static_cast<int64_t>(v));
  }
  void field(const std::string& name, bool v) {
    fields_.emplace_back(name, v ? "true" : "false");
  }
  void field(const std::string& name, const std::string& v) {
    fields_.emplace_back(name, json::quote(v));
  }
  /// Pre-rendered JSON value (array / nested object).
  void raw(const std::string& name, std::string json) {
    fields_.emplace_back(name, std::move(json));
  }

  /// One-line rendering, for nesting one writer's object inside another
  /// via raw().
  std::string compact() const { return render("", ", ", ""); }
  /// The indented file body write() stores.
  std::string str() const { return render("\n  ", ",\n  ", "\n") + "\n"; }

  /// Replaces `path` atomically. A write that fails (a full disk, a
  /// file-size limit) exits 1: a bench must not report a result it could
  /// not record.
  void write(const std::string& path) const {
    if (!exp::write_file_atomic(path, str())) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      std::exit(1);
    }
    std::printf("JSON written to %s\n", path.c_str());
  }

 private:
  std::string render(const char* first, const char* sep,
                     const char* last) const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      out += i == 0 ? first : sep;
      out += json::quote(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + last + "}";
  }

  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Run a sweep grid honouring --workers and --cache-dir: uncached benches
/// keep the plain fan-out; with a cache dir, hits are served byte-exactly
/// from disk, only the misses simulate, and the hit/miss split is printed
/// so a CI log shows what the cache actually bought.
inline std::vector<exp::RunResult> run_sweep_for(const exp::SweepGrid& grid,
                                                 const BenchArgs& args) {
  if (args.cache_dir.empty()) {
    return exp::run_sweep(grid, args.workers);
  }
  exp::ResultCache cache(args.cache_dir);
  exp::SweepRunStats stats;
  std::vector<exp::RunResult> results;
  if (args.workers <= 1) {
    results = exp::run_sweep(grid, nullptr, &cache, &stats);
  } else {
    runtime::TaskScheduler scheduler(args.workers);
    results = exp::run_sweep(grid, &scheduler, &cache, &stats);
  }
  std::printf("cache %s: %zu hits, %zu misses (%zu specs)\n",
              args.cache_dir.c_str(), stats.cache_hits, stats.cache_misses,
              grid.size());
  return results;
}

inline void print_rule(int width = 100) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

inline std::string pm(double mean, double ci, int precision = 1) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f (+-%.*f)", precision, mean,
                precision, ci);
  return buf;
}

/// Shared driver for the policy-evaluation figures (Fig. 10 OpenMP /
/// Fig. 11 HClib, which differ only in suite, seed base and captions):
/// builds the (models x (Default + 3 policies) x seeds) sweep grid with a
/// per-model Default baseline point, runs it on --workers workers, prints
/// the per-benchmark table + geomeans, writes the CSV, and emits the
/// geomeans as JSON when --json-out is given.
inline void run_policy_eval_figure(
    const std::vector<workloads::BenchmarkModel>& suite,
    const BenchArgs& args, uint64_t seed0, const char* title,
    const char* geomean_note, const char* csv_path) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const std::vector<std::pair<core::PolicyKind, const char*>> policies{
      {core::PolicyKind::kFull, "Cuttlefish"},
      {core::PolicyKind::kCoreOnly, "Cuttlefish-Core"},
      {core::PolicyKind::kUncoreOnly, "Cuttlefish-Uncore"},
  };

  exp::SweepGrid grid(machine);
  struct Cell {
    const workloads::BenchmarkModel* model;
    const char* pname;
    int point;
  };
  std::vector<Cell> cells;
  const exp::RunOptions opt;
  for (const auto& model : suite) {
    const int base = grid.add_default(model.name + "/Default", model, opt,
                                      args.runs, seed0);
    for (const auto& [policy, pname] : policies) {
      cells.push_back({&model, pname,
                       grid.add_policy(model.name + "/" + pname, model,
                                       policy, opt, args.runs, seed0, base)});
    }
  }
  const std::vector<exp::RunResult> results = run_sweep_for(grid, args);
  const std::vector<exp::PointSummary> summary = exp::summarize(grid, results);

  CsvWriter csv(csv_path,
                {"benchmark", "policy", "energy_savings_pct",
                 "energy_savings_ci", "slowdown_pct", "slowdown_ci",
                 "edp_savings_pct", "edp_savings_ci"});

  std::printf("%s (%d runs per point)\n", title, args.runs);
  print_rule(110);
  std::printf("%-10s %-18s %22s %22s %22s\n", "Benchmark", "Policy",
              "Energy savings %", "Slowdown %", "EDP savings %");
  print_rule(110);

  std::map<std::string, std::vector<double>> geo_savings, geo_slowdown,
      geo_edp;
  for (const Cell& cell : cells) {
    const exp::PointSummary& s = summary[static_cast<size_t>(cell.point)];
    std::printf(
        "%-10s %-18s %22s %22s %22s\n", cell.model->name.c_str(), cell.pname,
        pm(s.energy_savings_pct.mean, s.energy_savings_pct.ci95).c_str(),
        pm(s.slowdown_pct.mean, s.slowdown_pct.ci95).c_str(),
        pm(s.edp_savings_pct.mean, s.edp_savings_pct.ci95).c_str());
    csv.row({cell.model->name, cell.pname,
             CsvWriter::num(s.energy_savings_pct.mean),
             CsvWriter::num(s.energy_savings_pct.ci95),
             CsvWriter::num(s.slowdown_pct.mean),
             CsvWriter::num(s.slowdown_pct.ci95),
             CsvWriter::num(s.edp_savings_pct.mean),
             CsvWriter::num(s.edp_savings_pct.ci95)});
    geo_savings[cell.pname].push_back(s.energy_savings_pct.mean);
    geo_slowdown[cell.pname].push_back(s.slowdown_pct.mean);
    geo_edp[cell.pname].push_back(s.edp_savings_pct.mean);
  }

  print_rule(110);
  std::printf("%s\n", geomean_note);
  JsonWriter json;
  for (const auto& [policy, pname] : policies) {
    const double e = exp::geomean_savings_pct(geo_savings[pname]);
    const double d = exp::geomean_slowdown_pct(geo_slowdown[pname]);
    const double p = exp::geomean_savings_pct(geo_edp[pname]);
    std::printf("%-18s energy %6.1f%%   slowdown %5.1f%%   EDP %6.1f%%\n",
                pname, e, d, p);
    JsonWriter row;
    row.field("energy_savings_pct", e, 4);
    row.field("slowdown_pct", d, 4);
    row.field("edp_savings_pct", p, 4);
    json.raw(pname, row.compact());
  }
  std::printf("CSV written to %s\n", csv_path);
  if (!args.json_out.empty()) json.write(args.json_out);
}

}  // namespace cuttlefish::benchharness
