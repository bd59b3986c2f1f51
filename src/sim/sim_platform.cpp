#include "sim/sim_platform.hpp"

#include "common/assert.hpp"
#include "hal/msr.hpp"

namespace cuttlefish::sim {

using namespace hal;

SimPlatform::SimPlatform(SimMachine& machine) : machine_(&machine) {
  uint64_t unit_msr = 0;
  CF_ASSERT(machine_->read(msr::kRaplPowerUnit, unit_msr),
            "sim machine must expose RAPL power unit");
  energy_unit_j_ = decode_rapl_energy_unit(unit_msr);
  uint64_t raw = 0;
  CF_ASSERT(machine_->read(msr::kPkgEnergyStatus, raw),
            "sim machine must expose RAPL energy status");
  last_energy_raw_ = static_cast<uint32_t>(raw);
}

const FreqLadder& SimPlatform::core_ladder() const {
  return machine_->config().core_ladder;
}

const FreqLadder& SimPlatform::uncore_ladder() const {
  return machine_->config().uncore_ladder;
}

IoOutcome SimPlatform::apply_core_frequency(FreqMHz f) {
  CF_ASSERT(machine_->write(msr::kIa32PerfCtl, encode_perf_ctl(f)),
            "IA32_PERF_CTL write rejected");
  return IoOutcome::success();
}

IoOutcome SimPlatform::apply_uncore_frequency(FreqMHz f) {
  CF_ASSERT(
      machine_->write(msr::kUncoreRatioLimit, encode_uncore_ratio_limit(f, f)),
      "UNCORE_RATIO_LIMIT write rejected");
  return IoOutcome::success();
}

FreqMHz SimPlatform::core_frequency() const {
  uint64_t value = 0;
  CF_ASSERT(machine_->read(msr::kIa32PerfStatus, value),
            "IA32_PERF_STATUS read failed");
  return decode_perf_status(value);
}

FreqMHz SimPlatform::uncore_frequency() const {
  uint64_t value = 0;
  CF_ASSERT(machine_->read(msr::kUncoreRatioLimit, value),
            "UNCORE_RATIO_LIMIT read failed");
  return decode_uncore_max(value);
}

double SimPlatform::unwrap_energy(uint32_t now_raw) {
  energy_acc_j_ +=
      static_cast<double>(rapl_delta_units(last_energy_raw_, now_raw)) *
      energy_unit_j_;
  last_energy_raw_ = now_raw;
  return energy_acc_j_;
}

SensorTotals SimPlatform::read_registers() {
  SensorTotals totals;
  uint64_t raw = 0;
  CF_ASSERT(machine_->read(msr::kPkgEnergyStatus, raw),
            "RAPL energy read failed");
  totals.energy_joules = unwrap_energy(static_cast<uint32_t>(raw));

  uint64_t value = 0;
  CF_ASSERT(machine_->read(msr::kInstRetiredAggregate, value),
            "instruction counter read failed");
  totals.instructions = value;
  // TIPI numerator per §3.1: TOR_INSERT.MISS_LOCAL + MISS_REMOTE — both
  // umasks are read separately, as on the two-socket testbed.
  uint64_t local = 0;
  uint64_t remote = 0;
  CF_ASSERT(machine_->read(msr::kTorInsertsMissLocal, local),
            "TOR MISS_LOCAL read failed");
  CF_ASSERT(machine_->read(msr::kTorInsertsMissRemote, remote),
            "TOR MISS_REMOTE read failed");
  totals.tor_inserts = local + remote;
  return totals;
}

SampleOutcome SimPlatform::sample_sensors() {
  // One pass, no virtual MsrDevice hops: the registers read_registers()
  // decodes are synthesised from these same accessors, and the RAPL
  // quantisation goes through the identical rapl_energy_raw() rule, so
  // interleaving both reads yields one consistent bit-exact stream.
  SampleOutcome out;
  out.sample.energy_joules = unwrap_energy(machine_->rapl_energy_raw());
  out.sample.instructions = machine_->instructions_retired();
  out.sample.tor_local = machine_->tor_inserts_local();
  out.sample.tor_remote = machine_->tor_inserts_remote();
  return out;
}

}  // namespace cuttlefish::sim
