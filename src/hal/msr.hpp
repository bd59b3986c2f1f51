#pragma once

#include <cstdint>

#include "common/frequency.hpp"

namespace cuttlefish::hal {

/// Model-Specific Register addresses used by Cuttlefish on Haswell-EP
/// (Intel Xeon E5 v3). The TOR_INSERT events live in the CBo (caching
/// agent) uncore PMU; this catalogue exposes the aggregate virtual
/// counters the library consumes. The simulator backend implements the
/// same register map bit-for-bit so the codec paths below are shared.
namespace msr {

/// IA32_PERF_STATUS: current core ratio in bits 15:8 (x 100 MHz).
inline constexpr uint32_t kIa32PerfStatus = 0x198;
/// IA32_PERF_CTL: requested core ratio in bits 15:8 (x 100 MHz).
inline constexpr uint32_t kIa32PerfCtl = 0x199;
/// MSR_RAPL_POWER_UNIT: energy status unit in bits 12:8 (J = 1/2^ESU).
inline constexpr uint32_t kRaplPowerUnit = 0x606;
/// MSR_PKG_ENERGY_STATUS: 32-bit wrapping counter of energy units.
inline constexpr uint32_t kPkgEnergyStatus = 0x611;
/// MSR_UNCORE_RATIO_LIMIT: max ratio bits 6:0, min ratio bits 14:8.
inline constexpr uint32_t kUncoreRatioLimit = 0x620;
/// UNC_C_TOR_INSERTS (MISS_LOCAL + MISS_REMOTE), aggregated over CBos.
/// Synthetic address in the sim register map (real HW programs CBo PMUs).
inline constexpr uint32_t kTorInsertsAggregate = 0x0700;
/// INST_RETIRED.ANY aggregated over all cores (IA32_FIXED_CTR0 per core on
/// real hardware; one package-wide virtual counter here).
inline constexpr uint32_t kInstRetiredAggregate = 0x0701;
/// Per-umask TOR counters of the paper's two-socket NUMA testbed:
/// MISS_LOCAL counts misses served by local caches/memory, MISS_REMOTE by
/// the other socket across QPI. TIPI uses their sum (§3.1).
inline constexpr uint32_t kTorInsertsMissLocal = 0x0702;
inline constexpr uint32_t kTorInsertsMissRemote = 0x0703;

}  // namespace msr

/// Field encode/decode helpers shared by the Linux and simulator backends.

uint64_t encode_perf_ctl(FreqMHz f);
FreqMHz decode_perf_ctl(uint64_t value);

uint64_t encode_perf_status(FreqMHz f);
FreqMHz decode_perf_status(uint64_t value);

/// Cuttlefish pins the uncore by writing min-ratio == max-ratio.
uint64_t encode_uncore_ratio_limit(FreqMHz min_f, FreqMHz max_f);
FreqMHz decode_uncore_max(uint64_t value);
FreqMHz decode_uncore_min(uint64_t value);

/// Energy-status unit in joules from MSR_RAPL_POWER_UNIT (1 / 2^ESU).
double decode_rapl_energy_unit(uint64_t power_unit_msr);
uint64_t encode_rapl_power_unit(int esu_bits);

/// Unwrap a 32-bit wrapping energy counter given the previous raw reading;
/// returns the number of units advanced since `prev_raw`. Inline: every
/// sensor sample calls it.
inline uint64_t rapl_delta_units(uint32_t prev_raw, uint32_t now_raw) {
  if (now_raw >= prev_raw) return now_raw - prev_raw;
  // 32-bit counter wrapped (happens roughly every 30 min at ~150 W with
  // the Haswell 61 microjoule unit).
  return (0x100000000ULL - prev_raw) + now_raw;
}

}  // namespace cuttlefish::hal
