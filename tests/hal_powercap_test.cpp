#include "hal/powercap.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

namespace cuttlefish::hal {
namespace {

namespace fs = std::filesystem;

/// Builds a fake /sys/class/powercap tree in a temp directory.
class FakePowercap {
 public:
  FakePowercap() {
    root_ = fs::temp_directory_path() /
            ("cuttlefish_powercap_test_" + std::to_string(::getpid()));
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  ~FakePowercap() { fs::remove_all(root_); }

  void add_package(int index, uint64_t energy_uj, uint64_t max_range_uj) {
    const fs::path dir = root_ / ("intel-rapl:" + std::to_string(index));
    fs::create_directories(dir);
    write(dir / "energy_uj", energy_uj);
    write(dir / "max_energy_range_uj", max_range_uj);
  }
  void add_subzone(int pkg, int sub, uint64_t energy_uj) {
    const fs::path dir = root_ / ("intel-rapl:" + std::to_string(pkg) + ":" +
                                  std::to_string(sub));
    fs::create_directories(dir);
    write(dir / "energy_uj", energy_uj);
  }
  void add_mmio_mirror(int index, uint64_t energy_uj) {
    const fs::path dir =
        root_ / ("intel-rapl-mmio:" + std::to_string(index));
    fs::create_directories(dir);
    write(dir / "energy_uj", energy_uj);
  }
  void set_energy(int index, uint64_t energy_uj) {
    write(root_ / ("intel-rapl:" + std::to_string(index)) / "energy_uj",
          energy_uj);
  }

  std::string root() const { return root_.string(); }

 private:
  static void write(const fs::path& path, uint64_t value) {
    std::ofstream out(path);
    out << value << '\n';
  }
  fs::path root_;
};

TEST(Powercap, DiscoversPackageZonesOnly) {
  FakePowercap sysfs;
  sysfs.add_package(0, 1000, 1000000);
  sysfs.add_package(1, 2000, 1000000);
  sysfs.add_subzone(0, 0, 500);      // core plane: would double count
  sysfs.add_mmio_mirror(0, 1000);    // mmio mirror: would double count
  PowercapSensorStack stack(sysfs.root());
  EXPECT_TRUE(stack.available());
  EXPECT_EQ(stack.zone_count(), 2);
  EXPECT_TRUE(stack.capabilities().has(Capability::kEnergySensor));
  EXPECT_FALSE(stack.capabilities().has(Capability::kInstructionSensor));
  EXPECT_FALSE(stack.capabilities().has(Capability::kTorSensor));
}

TEST(Powercap, MissingTreeMeansUnavailable) {
  PowercapSensorStack stack("/nonexistent/path/for/test");
  EXPECT_FALSE(stack.available());
  EXPECT_TRUE(stack.capabilities().empty());
  const SampleOutcome out = stack.sample();
  EXPECT_TRUE(out.io.ok());
  EXPECT_EQ(out.sample.energy_joules, 0.0);
  EXPECT_EQ(out.sample.instructions, 0u);
  EXPECT_EQ(out.sample.tor_inserts(), 0u);
}

TEST(Powercap, AccumulatesEnergyAcrossPackages) {
  FakePowercap sysfs;
  sysfs.add_package(0, 1'000'000, 262'143'328'850);  // 1 J
  sysfs.add_package(1, 2'000'000, 262'143'328'850);  // 2 J
  PowercapSensorStack stack(sysfs.root());
  EXPECT_EQ(stack.sample().sample.energy_joules, 0.0);  // construction baseline
  sysfs.set_energy(0, 1'500'000);  // +0.5 J
  sysfs.set_energy(1, 2'250'000);  // +0.25 J
  EXPECT_NEAR(stack.sample().sample.energy_joules, 0.75, 1e-9);
  // Totals are monotonic accumulations, not instantaneous readings.
  EXPECT_NEAR(stack.sample().sample.energy_joules, 0.75, 1e-9);
}

TEST(Powercap, UnwrapsAtMaxEnergyRange) {
  FakePowercap sysfs;
  const uint64_t max_range = 10'000'000;  // 10 J wrap point
  sysfs.add_package(0, 9'900'000, max_range);
  PowercapSensorStack stack(sysfs.root());
  sysfs.set_energy(0, 100'000);  // wrapped: 9.9 -> 10.0(+1uJ) -> 0.1
  const double joules = stack.sample().sample.energy_joules;
  EXPECT_NEAR(joules, 0.2, 1e-5);
  EXPECT_GT(joules, 0.0);  // never negative or huge on wrap
}

TEST(Powercap, RealSysfsProbeDoesNotCrash) {
  PowercapSensorStack stack;  // the real tree (absent in this container)
  EXPECT_NO_THROW(stack.available());
}

}  // namespace
}  // namespace cuttlefish::hal
