#include "hal/msr.hpp"

#include "common/assert.hpp"

namespace cuttlefish::hal {

namespace {
constexpr uint64_t kRatioMask = 0xffULL;

uint64_t ratio_of(FreqMHz f) {
  CF_ASSERT(f.value % 100 == 0, "frequency must be a multiple of 100 MHz");
  CF_ASSERT(f.value > 0 && f.value <= 25500, "frequency ratio out of range");
  return static_cast<uint64_t>(f.value / 100);
}

FreqMHz freq_of(uint64_t ratio) {
  return FreqMHz{static_cast<int>(ratio) * 100};
}
}  // namespace

uint64_t encode_perf_ctl(FreqMHz f) { return ratio_of(f) << 8; }

FreqMHz decode_perf_ctl(uint64_t value) {
  return freq_of((value >> 8) & kRatioMask);
}

uint64_t encode_perf_status(FreqMHz f) { return ratio_of(f) << 8; }

FreqMHz decode_perf_status(uint64_t value) {
  return freq_of((value >> 8) & kRatioMask);
}

uint64_t encode_uncore_ratio_limit(FreqMHz min_f, FreqMHz max_f) {
  CF_ASSERT(min_f.value <= max_f.value, "uncore min ratio above max ratio");
  return (ratio_of(min_f) << 8) | ratio_of(max_f);
}

FreqMHz decode_uncore_max(uint64_t value) {
  return freq_of(value & 0x7fULL);
}

FreqMHz decode_uncore_min(uint64_t value) {
  return freq_of((value >> 8) & 0x7fULL);
}

double decode_rapl_energy_unit(uint64_t power_unit_msr) {
  const int esu = static_cast<int>((power_unit_msr >> 8) & 0x1fULL);
  return 1.0 / static_cast<double>(1ULL << esu);
}

uint64_t encode_rapl_power_unit(int esu_bits) {
  CF_ASSERT(esu_bits >= 0 && esu_bits < 32, "ESU field is 5 bits");
  return static_cast<uint64_t>(esu_bits) << 8;
}

}  // namespace cuttlefish::hal
