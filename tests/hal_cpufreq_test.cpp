#include "hal/cpufreq.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

namespace cuttlefish::hal {
namespace {

namespace fs = std::filesystem;

/// Builds a fake /sys/devices/system/cpu tree in a temp directory.
class FakeSysfs {
 public:
  explicit FakeSysfs(int cpus) {
    root_ = fs::temp_directory_path() /
            ("cuttlefish_cpufreq_test_" + std::to_string(::getpid()));
    fs::remove_all(root_);
    for (int cpu = 0; cpu < cpus; ++cpu) {
      const fs::path dir = root_ / ("cpu" + std::to_string(cpu)) / "cpufreq";
      fs::create_directories(dir);
      write(dir / "scaling_governor", "performance");
      write(dir / "scaling_setspeed", "<unsupported>");
      write(dir / "scaling_cur_freq", "2300000");
      write(dir / "cpuinfo_min_freq", "1200000");
      write(dir / "cpuinfo_max_freq", "2300000");
    }
    // Distractor entries a real sysfs tree has.
    fs::create_directories(root_ / "cpufreq");
    fs::create_directories(root_ / "cpuidle");
  }
  ~FakeSysfs() { fs::remove_all(root_); }

  std::string root() const { return root_.string(); }
  std::string read(int cpu, const std::string& file) const {
    std::ifstream in(root_ / ("cpu" + std::to_string(cpu)) / "cpufreq" /
                     file);
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

TEST(Cpufreq, DiscoversAllCpusAndIgnoresDistractors) {
  FakeSysfs sysfs(4);
  CpufreqActuator act(sysfs.root());
  EXPECT_TRUE(act.available());
  EXPECT_EQ(act.cpu_count(), 4);
}

TEST(Cpufreq, MissingTreeMeansUnavailable) {
  CpufreqActuator act("/nonexistent/path/for/test");
  EXPECT_FALSE(act.available());
  EXPECT_EQ(act.cpu_count(), 0);
  EXPECT_EQ(act.set_frequency(FreqMHz{1800}), 0);
}

TEST(Cpufreq, SetGovernorWritesEveryCpu) {
  FakeSysfs sysfs(3);
  CpufreqActuator act(sysfs.root());
  EXPECT_EQ(act.set_governor("userspace"), 3);
  for (int cpu = 0; cpu < 3; ++cpu) {
    EXPECT_EQ(sysfs.read(cpu, "scaling_governor"), "userspace");
    EXPECT_EQ(act.governor(cpu).value_or(""), "userspace");
  }
}

TEST(Cpufreq, SetFrequencyWritesKilohertz) {
  FakeSysfs sysfs(2);
  CpufreqActuator act(sysfs.root());
  EXPECT_EQ(act.set_frequency(FreqMHz{1800}), 2);
  EXPECT_EQ(sysfs.read(0, "scaling_setspeed"), "1800000");
  EXPECT_EQ(sysfs.read(1, "scaling_setspeed"), "1800000");
}

TEST(Cpufreq, ReadsFrequencies) {
  FakeSysfs sysfs(1);
  CpufreqActuator act(sysfs.root());
  EXPECT_EQ(act.current_frequency(0).value().value, 2300);
  EXPECT_EQ(act.min_frequency(0).value().value, 1200);
  EXPECT_EQ(act.max_frequency(0).value().value, 2300);
}

TEST(Cpufreq, HaswellLadderMatchesCpuinfoLimits) {
  // The ladders used by the library line up with what the fake (Haswell)
  // sysfs advertises — the probe a real deployment would perform.
  FakeSysfs sysfs(1);
  CpufreqActuator act(sysfs.root());
  const FreqLadder ladder = haswell_core_ladder();
  EXPECT_EQ(ladder.min(), act.min_frequency(0).value());
  EXPECT_EQ(ladder.max(), act.max_frequency(0).value());
}

TEST(Cpufreq, LadderDerivesFromCpuinfoLimits) {
  FakeSysfs sysfs(1);
  CpufreqActuator act(sysfs.root());
  const auto ladder = cpufreq_ladder(act);
  ASSERT_TRUE(ladder.has_value());
  EXPECT_EQ(ladder->min().value, 1200);
  EXPECT_EQ(ladder->max().value, 2300);
  EXPECT_EQ(ladder->step_mhz(), 100);
  EXPECT_FALSE(cpufreq_ladder(CpufreqActuator("/nonexistent")).has_value());
}

TEST(Cpufreq, CoreActuatorSavesAndRestoresGovernors) {
  FakeSysfs sysfs(2);
  {
    CpufreqActuator raw(sysfs.root());
    const FreqLadder ladder = cpufreq_ladder(raw).value();
    CpufreqCoreActuator actuator(std::move(raw), ladder);
    // Construction switched to userspace so setspeed writes take effect.
    EXPECT_EQ(sysfs.read(0, "scaling_governor"), "userspace");
    EXPECT_TRUE(actuator.apply(FreqMHz{1500}).ok());
    EXPECT_EQ(sysfs.read(1, "scaling_setspeed"), "1500000");
    EXPECT_EQ(actuator.current().value, 1500);
  }
  // Destruction hands frequency scaling back to the OS as it was found.
  EXPECT_EQ(sysfs.read(0, "scaling_governor"), "performance");
  EXPECT_EQ(sysfs.read(1, "scaling_governor"), "performance");
}

TEST(Cpufreq, RealSysfsProbeDoesNotCrash) {
  CpufreqActuator act;  // the real /sys tree (absent in this container)
  EXPECT_NO_THROW(act.available());
}

}  // namespace
}  // namespace cuttlefish::hal
