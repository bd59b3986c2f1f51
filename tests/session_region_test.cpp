// Named RAII regions + warm-started per-kernel exploration, driven
// deterministically through manual-tick sessions over the virtual-time
// simulator: warm starts skip re-exploration, profiles survive a JSON
// round trip, and one whole-program region is decision-identical to the
// region-free session (the two-call shim's behaviour).

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "core/controller.hpp"
#include "core/region.hpp"
#include "core/session.hpp"
#include "core/trace.hpp"
#include "exp/calibrate.hpp"
#include "exp/record_file.hpp"
#include "sim/machine_config.hpp"
#include "sim/sim_machine.hpp"
#include "sim/sim_platform.hpp"
#include "workloads/suite.hpp"

namespace cuttlefish {
namespace {

constexpr double kCycleInstructions = 1.5e12;  // ~30 virtual s per cycle
constexpr int64_t kExpectedSlab = 6;           // tipi 0.025 / width 0.004

/// One homogeneous kernel executed `cycles` times back to back — the
/// recurring-kernel shape warm starts exist for. A single operating
/// point keeps the whole run in one TIPI slab, so "no re-exploration"
/// is assertable exactly.
sim::PhaseProgram recurring_kernel(int cycles) {
  sim::PhaseProgram program;
  for (int i = 0; i < cycles; ++i) {
    program.add(kCycleInstructions, 1.0, 0.025);
  }
  return program;
}

/// Virtual-time harness: simulator + manual-tick session.
struct ManualRun {
  sim::MachineConfig machine = sim::haswell_2650v3();
  sim::PhaseProgram program;  // must outlive sim (SimMachine keeps a ptr)
  sim::SimMachine sim;
  sim::SimPlatform platform;
  core::DecisionTrace trace{65536};
  std::vector<core::TickTelemetry> telemetry;
  Session session;

  explicit ManualRun(int cycles, uint64_t seed = 1)
      : program(recurring_kernel(cycles)),
        sim(machine, program, seed),
        platform(sim) {
    Options options;
    options.manual_tick = true;
    options.trace = &trace;
    options.telemetry = &telemetry;
    session = Session(platform, options);
    const core::ControllerConfig& cfg = session.controller()->config();
    for (double t = 0.0; t < cfg.warmup_s; t += cfg.tinv_s) {
      sim.advance(cfg.tinv_s);
    }
    session.tick();  // arm (the daemon's begin())
  }

  /// Tick until `boundary` total instructions have retired (or the
  /// workload ends).
  void run_until_instructions(double boundary) {
    const core::ControllerConfig& cfg = session.controller()->config();
    while (!sim.workload_done() &&
           static_cast<double>(
               platform.sample_sensors().sample.instructions) < boundary) {
      sim.advance(cfg.tinv_s);
      session.tick();
    }
  }
};

using Records = std::vector<core::TraceRecord>;

Records filter_region_events(const Records& records, bool keep) {
  Records out;
  for (const core::TraceRecord& rec : records) {
    const bool is_region = rec.event == core::TraceEvent::kRegionEnter ||
                           rec.event == core::TraceEvent::kRegionExit ||
                           rec.event == core::TraceEvent::kRegionWarmStart;
    if (is_region == keep) out.push_back(rec);
  }
  return out;
}

int count_exploration_events(const Records& records, size_t from,
                             size_t to) {
  int count = 0;
  for (size_t i = from; i < to && i < records.size(); ++i) {
    switch (records[i].event) {
      case core::TraceEvent::kNodeInserted:
      case core::TraceEvent::kCfWindowInit:
      case core::TraceEvent::kUfWindowInit:
      case core::TraceEvent::kBoundTightened:
      case core::TraceEvent::kOptFound:
        ++count;
        break;
      default:
        break;
    }
  }
  return count;
}

size_t find_event(const Records& records, core::TraceEvent event,
                  size_t from = 0) {
  for (size_t i = from; i < records.size(); ++i) {
    if (records[i].event == event) return i;
  }
  return records.size();
}

TEST(Region, WithoutActiveSessionIsNoOp) {
  // No default session is active: both Region forms must do nothing,
  // like the paper's compiled-out library.
  ASSERT_FALSE(cuttlefish::active());
  {
    Region region("orphan-kernel");
    EXPECT_FALSE(region.entered());
    CUTTLEFISH_REGION("orphan-macro");
  }
  Session inactive;
  {
    Region region(inactive, "orphan-kernel");
    EXPECT_FALSE(region.entered());
  }
  EXPECT_EQ(inactive.region_profiles().size(), 0u);
}

TEST(Region, SecondEntryWarmStartsAndSkipsReExploration) {
  ManualRun run(/*cycles=*/2);

  // ---- entry 1: cold exploration to convergence -------------------------
  Level cf_opt = kNoLevel;
  Level uf_opt = kNoLevel;
  {
    Region region(run.session, "kernel");
    ASSERT_TRUE(region.entered());
    run.run_until_instructions(kCycleInstructions);
    const core::TipiNode* node =
        run.session.controller()->list().find(kExpectedSlab);
    ASSERT_NE(node, nullptr);
    ASSERT_TRUE(node->cf.complete()) << "cycle too short to converge";
    ASSERT_TRUE(node->uf.complete()) << "cycle too short to converge";
    cf_opt = node->cf.opt;
    uf_opt = node->uf.opt;
  }
  const uint64_t samples_entry1 =
      run.session.controller()->stats().samples_recorded;
  EXPECT_GT(samples_entry1, 0u);

  // ---- entry 2: warm start ---------------------------------------------
  const size_t telemetry_before = run.telemetry.size();
  {
    Region region(run.session, "kernel");
    run.run_until_instructions(2 * kCycleInstructions);
    const core::TipiNode* node =
        run.session.controller()->list().find(kExpectedSlab);
    ASSERT_NE(node, nullptr);
    // The converged optima are replayed, not re-derived.
    EXPECT_EQ(node->cf.opt, cf_opt);
    EXPECT_EQ(node->uf.opt, uf_opt);
  }

  // No new JPI samples: every tick of entry 2 ran at the cached optima.
  EXPECT_EQ(run.session.controller()->stats().samples_recorded,
            samples_entry1);

  // Trace shape: enter/exit cold, then enter + warm start + exit, with
  // zero exploration events inside the second entry.
  const Records records = run.trace.snapshot();
  const size_t enter1 = find_event(records, core::TraceEvent::kRegionEnter);
  const size_t exit1 = find_event(records, core::TraceEvent::kRegionExit);
  const size_t enter2 =
      find_event(records, core::TraceEvent::kRegionEnter, enter1 + 1);
  const size_t warm =
      find_event(records, core::TraceEvent::kRegionWarmStart);
  const size_t exit2 =
      find_event(records, core::TraceEvent::kRegionExit, exit1 + 1);
  ASSERT_LT(enter1, records.size());
  ASSERT_LT(exit1, records.size());
  ASSERT_LT(enter2, records.size());
  ASSERT_LT(warm, records.size());
  ASSERT_LT(exit2, records.size());
  EXPECT_GT(warm, exit1) << "entry 1 must be cold";
  EXPECT_GT(warm, enter2);
  EXPECT_EQ(records[warm].aux, 1u);  // one cached TIPI range replayed
  EXPECT_GT(count_exploration_events(records, enter1, exit1), 0);
  EXPECT_EQ(count_exploration_events(records, warm + 1, exit2), 0);

  // Tick telemetry: entry 2 runs at the converged optima from its very
  // first interval — no warm-up descent through exploration frequencies.
  const FreqMHz cf_opt_mhz = run.machine.core_ladder.at(cf_opt);
  const FreqMHz uf_opt_mhz = run.machine.uncore_ladder.at(uf_opt);
  ASSERT_GT(run.telemetry.size(), telemetry_before + 2);
  for (size_t i = telemetry_before; i < run.telemetry.size(); ++i) {
    EXPECT_EQ(run.telemetry[i].cf_set, cf_opt_mhz) << "tick " << i;
    EXPECT_EQ(run.telemetry[i].uf_set, uf_opt_mhz) << "tick " << i;
  }

  // Profile bookkeeping.
  const auto profiles = run.session.region_profiles();
  ASSERT_EQ(profiles.size(), 1u);
  EXPECT_EQ(profiles[0].name, "kernel");
  EXPECT_EQ(profiles[0].entries, 2u);
  EXPECT_EQ(profiles[0].warm_starts, 1u);
  EXPECT_EQ(profiles[0].nodes, 1u);
  EXPECT_EQ(profiles[0].cf_resolved, 1u);
  EXPECT_EQ(profiles[0].uf_resolved, 1u);
}

TEST(Region, NestedRegionsSuspendAndResume) {
  ManualRun run(/*cycles=*/4);
  Region outer(run.session, "outer");
  ASSERT_TRUE(outer.entered());
  EXPECT_EQ(run.session.region_depth(), 1u);
  run.run_until_instructions(kCycleInstructions);
  const core::TipiNode* node =
      run.session.controller()->list().find(kExpectedSlab);
  ASSERT_NE(node, nullptr);
  const uint64_t outer_ticks = node->ticks;

  {
    Region inner(run.session, "inner");
    EXPECT_EQ(run.session.region_depth(), 2u);
    // The inner region starts cold: the outer exploration state was
    // suspended, not inherited.
    EXPECT_EQ(run.session.controller()->list().size(), 0u);
    run.run_until_instructions(2 * kCycleInstructions);
    ASSERT_NE(run.session.controller()->list().find(kExpectedSlab),
              nullptr);
  }

  // Outer state resumed exactly where it was suspended.
  EXPECT_EQ(run.session.region_depth(), 1u);
  const core::TipiNode* resumed =
      run.session.controller()->list().find(kExpectedSlab);
  ASSERT_NE(resumed, nullptr);
  EXPECT_EQ(resumed->ticks, outer_ticks);

  // Mismatched exit is a warn-and-ignore, not a crash or a pop.
  run.session.exit_region("not-open");
  EXPECT_EQ(run.session.region_depth(), 1u);

  const auto profiles = run.session.region_profiles();
  ASSERT_EQ(profiles.size(), 2u);  // "inner" + "outer" (sorted by name)
  EXPECT_EQ(profiles[0].name, "inner");
  EXPECT_EQ(profiles[1].name, "outer");
}

TEST(Region, WholeProgramRegionMatchesShimDecisions) {
  // Run A: plain session, no regions — the decisions the two-call shim
  // produces. Run B: identical machine, whole run in one named region.
  // The decision traces must be byte-identical once B's three region
  // lifecycle records are set aside.
  ManualRun a(/*cycles=*/1);
  a.run_until_instructions(kCycleInstructions);
  a.session.stop();

  ManualRun b(/*cycles=*/1);
  {
    Region region(b.session, "whole-program");
    b.run_until_instructions(kCycleInstructions);
  }
  b.session.stop();

  const Records a_records = a.trace.snapshot();
  const Records b_records = b.trace.snapshot();
  EXPECT_EQ(filter_region_events(a_records, /*keep=*/true).size(), 0u);
  const Records b_region_events =
      filter_region_events(b_records, /*keep=*/true);
  ASSERT_EQ(b_region_events.size(), 2u);  // enter + exit, never warm
  EXPECT_EQ(b_region_events[0].event, core::TraceEvent::kRegionEnter);
  EXPECT_EQ(b_region_events[1].event, core::TraceEvent::kRegionExit);

  const Records b_decisions = filter_region_events(b_records, false);
  ASSERT_EQ(a_records.size(), b_decisions.size());
  for (size_t i = 0; i < a_records.size(); ++i) {
    EXPECT_EQ(a_records[i], b_decisions[i]) << "record " << i;
  }
}

TEST(Region, ProfilesSurviveJsonRoundTrip) {
  const std::string path1 = "session_region_profiles_1.json";
  const std::string path2 = "session_region_profiles_2.json";

  Level cf_opt = kNoLevel;
  {
    ManualRun run(/*cycles=*/1);
    {
      Region region(run.session, "kernel");
      run.run_until_instructions(kCycleInstructions);
      const core::TipiNode* node =
          run.session.controller()->list().find(kExpectedSlab);
      ASSERT_NE(node, nullptr);
      ASSERT_TRUE(node->cf.complete());
      cf_opt = node->cf.opt;
    }
    ASSERT_TRUE(run.session.save_profiles(path1));
  }

  // A fresh process stand-in: new machine, new session; the profile file
  // is the only carrier of the discovered optima.
  ManualRun fresh(/*cycles=*/1);
  ASSERT_TRUE(fresh.session.load_profiles(path1));

  // Byte-level round trip: saving the loaded profiles reproduces the
  // file exactly.
  ASSERT_TRUE(fresh.session.save_profiles(path2));
  std::ifstream f1(path1), f2(path2);
  std::stringstream s1, s2;
  s1 << f1.rdbuf();
  s2 << f2.rdbuf();
  ASSERT_FALSE(s1.str().empty());
  EXPECT_EQ(s1.str(), s2.str());

  // First entry in the fresh session warm-starts from the imported
  // profile.
  {
    Region region(fresh.session, "kernel");
    fresh.run_until_instructions(0.25 * kCycleInstructions);
    const core::TipiNode* node =
        fresh.session.controller()->list().find(kExpectedSlab);
    ASSERT_NE(node, nullptr);
    EXPECT_EQ(node->cf.opt, cf_opt);
  }
  const Records records = fresh.trace.snapshot();
  EXPECT_LT(find_event(records, core::TraceEvent::kRegionWarmStart),
            records.size());
  const auto profiles = fresh.session.region_profiles();
  ASSERT_EQ(profiles.size(), 1u);
  EXPECT_EQ(profiles[0].entries, 2u);      // 1 imported + 1 live
  EXPECT_EQ(profiles[0].warm_starts, 1u);  // the live one

  std::remove(path1.c_str());
  std::remove(path2.c_str());
}

TEST(Region, SavedProfileBytesArePinned) {
  // The round trip above compares two saves with each other, so it cannot
  // see an encoder change that alters both the same way. This pins one
  // save's size and checksum: HPCCG x3 at seed 7, with twelve region
  // entries over four names that cover the empty name, a quote, a
  // backslash, every short-escaped control byte, \u-escaped ones and
  // multi-byte UTF-8.
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const sim::PhaseProgram cycle = exp::build_calibrated(
      workloads::find_benchmark("HPCCG"), machine, 7);
  sim::PhaseProgram program;
  program.repeat(3, cycle.segments());
  sim::SimMachine sim_machine(machine, program, 7);
  sim::SimPlatform platform(sim_machine);
  Options options;
  options.manual_tick = true;
  Session session(platform, options);
  const core::ControllerConfig& cfg = session.controller()->config();
  for (double t = 0.0; t < cfg.warmup_s; t += cfg.tinv_s) {
    sim_machine.advance(cfg.tinv_s);
  }
  session.tick();

  const std::vector<std::string> names = {
      "", "say \"hi\" \\ bye", std::string("\x01\b\f\n\r\t\x1f\x7f", 8),
      "caf\xc3\xa9 \xe2\x80\x94 \xcf\x80"};
  const double total = program.total_instructions();
  constexpr int kEntries = 12;
  for (int k = 1; k <= kEntries; ++k) {
    Region region(session, names[static_cast<size_t>(k) % names.size()]);
    while (!sim_machine.workload_done() &&
           static_cast<double>(
               platform.sample_sensors().sample.instructions) <
               total * k / kEntries) {
      sim_machine.advance(cfg.tinv_s);
      session.tick();
    }
  }

  const std::string path = "session_region_profiles_pinned.json";
  ASSERT_TRUE(session.save_profiles(path));
  std::string bytes;
  ASSERT_TRUE(exp::read_file(path, &bytes));
  std::remove(path.c_str());
  EXPECT_EQ(bytes.size(), 19770u);
  EXPECT_EQ(exp::checksum64(bytes.data(), bytes.size()),
            0xe3375a3b5e5c1786ull);
}

TEST(Region, MalformedProfileContentIsSkippedNotFatal) {
  // Shape-valid but content-corrupt profiles (duplicate slabs, truncated
  // JPI tables) must be skipped with a warning at load — never imported
  // and later aborted on during replay.
  const std::string path = "session_region_profiles_malformed.json";
  const char* kShape =
      "\"slab_width\":0.004,\"cf_levels\":12,\"uf_levels\":19,"
      "\"jpi_samples\":10";
  const std::string dup_node =
      "{\"slab\":6,\"ticks\":1,"
      "\"cf\":{\"lb\":-1,\"rb\":-1,\"opt\":2,\"window_set\":false,"
      "\"jpi\":[]},"
      "\"uf\":{\"lb\":-1,\"rb\":-1,\"opt\":4,\"window_set\":false,"
      "\"jpi\":[]}}";
  const std::string short_jpi_node =
      "{\"slab\":7,\"ticks\":1,"
      "\"cf\":{\"lb\":0,\"rb\":11,\"opt\":-1,\"window_set\":true,"
      "\"jpi\":[[1.0,1]]},"  // 1 cell instead of 12
      "\"uf\":{\"lb\":-1,\"rb\":-1,\"opt\":-1,\"window_set\":false,"
      "\"jpi\":[]}}";
  {
    std::ofstream out(path);
    out << "{\"version\":1,\"regions\":[\n"
        << " {\"name\":\"dup\",\"entries\":1,\"warm_starts\":0,"
        << "\"cached\":true," << kShape << ",\"nodes\":[" << dup_node << ","
        << dup_node << "]},\n"
        << " {\"name\":\"short\",\"entries\":1,\"warm_starts\":0,"
        << "\"cached\":true," << kShape << ",\"nodes\":[" << short_jpi_node
        << "]}\n]}\n";
  }

  ManualRun run(/*cycles=*/1);
  // The file itself parses, so load succeeds — but both corrupt
  // profiles are rejected.
  EXPECT_TRUE(run.session.load_profiles(path));
  EXPECT_EQ(run.session.region_profiles().size(), 0u);

  // Entering the names is a plain cold start, not a crash.
  {
    Region region(run.session, "dup");
    run.run_until_instructions(0.05 * kCycleInstructions);
  }
  std::remove(path.c_str());
}

TEST(Region, FailedSaveKeepsThePreviousProfileFile) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("cuttlefish_session_save_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "profiles.json").string();
  const auto read_bytes = [&] {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };

  ManualRun run(/*cycles=*/1);
  ASSERT_TRUE(run.session.save_profiles(path));  // the previous file
  const std::string before = read_bytes();
  {
    Region region(run.session, "kernel");
    run.run_until_instructions(0.25 * kCycleInstructions);
  }
  // A save that cannot complete (an 8-byte file-size limit, SIGXFSZ
  // ignored so the write fails with EFBIG) must report failure and leave
  // the previous file whole.
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::signal(SIGXFSZ, SIG_IGN);
    const rlimit limit{8, 8};
    ::_exit(::setrlimit(RLIMIT_FSIZE, &limit) == 0 &&
                    !run.session.save_profiles(path)
                ? 0
                : 1);
  }
  ASSERT_GT(pid, 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "the limited save reported success";

  EXPECT_EQ(read_bytes(), before);
  ManualRun fresh(/*cycles=*/1);
  EXPECT_TRUE(fresh.session.load_profiles(path));
  std::vector<std::string> names;
  for (const auto& e : fs::directory_iterator(dir)) {
    names.push_back(e.path().filename().string());
  }
  EXPECT_EQ(names, std::vector<std::string>{"profiles.json"});
  fs::remove_all(dir);
}

TEST(Region, StopWithOpenRegionCachesItsProfile) {
  ManualRun run(/*cycles=*/2);
  Region region(run.session, "interrupted");
  run.run_until_instructions(kCycleInstructions);
  run.session.stop();  // region still open

  const auto profiles = run.session.region_profiles();
  ASSERT_EQ(profiles.size(), 1u);
  EXPECT_EQ(profiles[0].name, "interrupted");
  EXPECT_EQ(profiles[0].nodes, 1u);
  // save_profiles still works on the stopped session.
  const std::string path = "session_region_profiles_stop.json";
  EXPECT_TRUE(run.session.save_profiles(path));
  std::remove(path.c_str());
  // The Region destructor after stop() must be a safe no-op.
}

}  // namespace
}  // namespace cuttlefish
