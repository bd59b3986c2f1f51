#include "hal/registry.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "hal/backend.hpp"
#include "hal/cpufreq.hpp"
#include "hal/linux_msr.hpp"
#include "sim/machine_config.hpp"
#include "sim/phase_workload.hpp"
#include "sim/sim_machine.hpp"
#include "sim/sim_platform.hpp"

namespace cuttlefish::hal {
namespace {

namespace fs = std::filesystem;

/// Temp-dir fixture combining a fake powercap tree and a fake cpufreq
/// tree, wired into the registry probes via the *_ROOT env overrides.
class FakeHost {
 public:
  FakeHost() {
    root_ = fs::temp_directory_path() /
            ("cuttlefish_registry_test_" + std::to_string(::getpid()));
    fs::remove_all(root_);
    fs::create_directories(root_ / "powercap");
    fs::create_directories(root_ / "cpu");
    setenv("CUTTLEFISH_POWERCAP_ROOT", (root_ / "powercap").c_str(), 1);
    setenv("CUTTLEFISH_CPUFREQ_ROOT", (root_ / "cpu").c_str(), 1);
    // Mask any real MSR devices so probing is deterministic on dev hosts.
    setenv("CUTTLEFISH_MSR_ROOT", "/nonexistent/msr", 1);
  }
  ~FakeHost() {
    unsetenv("CUTTLEFISH_POWERCAP_ROOT");
    unsetenv("CUTTLEFISH_CPUFREQ_ROOT");
    unsetenv("CUTTLEFISH_MSR_ROOT");
    fs::remove_all(root_);
  }

  void add_rapl_package(int index, uint64_t energy_uj) {
    const fs::path dir =
        root_ / "powercap" / ("intel-rapl:" + std::to_string(index));
    fs::create_directories(dir);
    write(dir / "energy_uj", std::to_string(energy_uj));
    write(dir / "max_energy_range_uj", "262143328850");
  }

  void add_cpu(int cpu) {
    const fs::path dir =
        root_ / "cpu" / ("cpu" + std::to_string(cpu)) / "cpufreq";
    fs::create_directories(dir);
    write(dir / "scaling_governor", "performance");
    write(dir / "scaling_setspeed", "<unsupported>");
    write(dir / "scaling_cur_freq", "2300000");
    write(dir / "cpuinfo_min_freq", "1200000");
    write(dir / "cpuinfo_max_freq", "2300000");
  }

  std::string read_cpu_file(int cpu, const std::string& file) const {
    std::ifstream in(root_ / "cpu" / ("cpu" + std::to_string(cpu)) /
                     "cpufreq" / file);
    std::string value;
    std::getline(in, value);
    return value;
  }

 private:
  static void write(const fs::path& path, const std::string& value) {
    std::ofstream out(path);
    out << value << '\n';
  }
  fs::path root_;
};

TEST(Registry, BuiltinsAreRegisteredAndRanked) {
  BackendRegistry& registry = BackendRegistry::instance();
  EXPECT_TRUE(registry.contains("msr"));
  EXPECT_TRUE(registry.contains("powercap"));
  EXPECT_TRUE(registry.contains("none"));
  const auto ranked = registry.factories();
  ASSERT_GE(ranked.size(), 3u);
  for (size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_GE(ranked[i - 1].priority, ranked[i].priority);
  }
}

TEST(Registry, AutoSelectionFallsBackToNone) {
  FakeHost host;  // empty trees: msr and powercap probe unavailable
  auto selection = BackendRegistry::instance().select("");
  EXPECT_EQ(selection.name, "none");
  ASSERT_NE(selection.platform, nullptr);
  EXPECT_TRUE(selection.platform->capabilities().empty());
}

TEST(Registry, UnknownForcedNameFallsBackToProbing) {
  FakeHost host;
  auto selection = BackendRegistry::instance().select("does-not-exist");
  EXPECT_EQ(selection.name, "none");
  ASSERT_NE(selection.platform, nullptr);
}

TEST(Registry, PowercapBackendAssemblesFromFakeTrees) {
  FakeHost host;
  host.add_rapl_package(0, 5'000'000);
  host.add_cpu(0);
  host.add_cpu(1);

  // Probe reports the assembled capability set without constructing.
  bool found = false;
  for (const BackendFactory& f : BackendRegistry::instance().factories()) {
    if (f.name != "powercap") continue;
    found = true;
    const ProbeResult probe = f.probe();
    EXPECT_TRUE(probe.available);
    EXPECT_TRUE(probe.caps.has(Capability::kEnergySensor));
    EXPECT_TRUE(probe.caps.has(Capability::kCoreDvfs));
    EXPECT_FALSE(probe.caps.has(Capability::kUncoreUfs));
    EXPECT_FALSE(probe.caps.has(Capability::kTorSensor));
  }
  ASSERT_TRUE(found);

  auto selection = BackendRegistry::instance().select("powercap");
  EXPECT_EQ(selection.name, "powercap");
  ASSERT_NE(selection.platform, nullptr);
  PlatformInterface& platform = *selection.platform;
  EXPECT_EQ(platform.capabilities(),
            Capability::kEnergySensor | Capability::kCoreDvfs);
  // The create path selects the userspace governor and the ladder is
  // derived from cpuinfo limits.
  EXPECT_EQ(host.read_cpu_file(0, "scaling_governor"), "userspace");
  EXPECT_EQ(platform.core_ladder().min().value, 1200);
  EXPECT_EQ(platform.core_ladder().max().value, 2300);
  // Actuation lands in sysfs (kHz), uncore writes are dropped.
  EXPECT_TRUE(platform.apply_core_frequency(FreqMHz{1800}).ok());
  EXPECT_EQ(host.read_cpu_file(1, "scaling_setspeed"), "1800000");
  EXPECT_EQ(platform.apply_uncore_frequency(FreqMHz{2000}).status,
            IoOutcome::Status::kUnsupported);
  EXPECT_EQ(platform.uncore_frequency(),
            platform.uncore_ladder().max());
}

TEST(ComposedPlatform, MissingPartsClearCapabilitiesAndNoop) {
  auto platform = make_null_platform();
  EXPECT_TRUE(platform->capabilities().empty());
  EXPECT_EQ(platform->apply_core_frequency(FreqMHz{1500}).status,
            IoOutcome::Status::kUnsupported);
  EXPECT_EQ(platform->apply_uncore_frequency(FreqMHz{1500}).status,
            IoOutcome::Status::kUnsupported);
  EXPECT_EQ(platform->core_frequency(), platform->core_ladder().max());
  const SampleOutcome out = platform->sample_sensors();
  EXPECT_EQ(out.io.status, IoOutcome::Status::kUnsupported);
  EXPECT_EQ(out.sample.instructions, 0u);
  EXPECT_EQ(out.sample.tor_inserts(), 0u);
  EXPECT_EQ(out.sample.energy_joules, 0.0);
}

TEST(CapabilityFilter, MasksSensorsAndDropsWrites) {
  const sim::MachineConfig cfg = sim::haswell_2650v3();
  sim::PhaseProgram program;
  program.add(1e13, 1.0, 0.1);
  sim::SimMachine machine(cfg, program);
  sim::SimPlatform inner(machine);

  CapabilityFilter filter(
      inner, CapabilitySet::all()
                 .without(Capability::kUncoreUfs)
                 .without(Capability::kTorSensor));
  EXPECT_TRUE(filter.capabilities().has(Capability::kCoreDvfs));
  EXPECT_FALSE(filter.capabilities().has(Capability::kUncoreUfs));
  EXPECT_FALSE(filter.capabilities().has(Capability::kTorSensor));

  const FreqMHz uncore_before = machine.uncore_frequency();
  EXPECT_EQ(filter.apply_uncore_frequency(FreqMHz{1200}).status,
            IoOutcome::Status::kUnsupported);
  EXPECT_EQ(machine.uncore_frequency(), uncore_before);  // dropped
  EXPECT_TRUE(filter.apply_core_frequency(FreqMHz{1500}).ok());
  EXPECT_EQ(machine.core_frequency().value, 1500);  // forwarded

  machine.advance(1.0);
  const SensorSample sample = filter.sample_sensors().sample;
  EXPECT_GT(sample.instructions, 0u);
  EXPECT_GT(sample.energy_joules, 0.0);
  EXPECT_EQ(sample.tor_inserts(), 0u);  // masked to zero
}

TEST(CapabilitySet, StringFormsAreStable) {
  EXPECT_EQ(CapabilitySet::none().to_string(), "none");
  EXPECT_EQ(CapabilitySet::all().to_string(),
            "energy+instructions+tor+core-dvfs+uncore-ufs");
  EXPECT_EQ((Capability::kEnergySensor | Capability::kCoreDvfs).to_string(),
            "energy+core-dvfs");
}

}  // namespace
}  // namespace cuttlefish::hal
