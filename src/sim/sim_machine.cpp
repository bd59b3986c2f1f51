#include "sim/sim_machine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/assert.hpp"
#include "hal/msr.hpp"

namespace cuttlefish::sim {

namespace {
constexpr double kUnfilled = std::numeric_limits<double>::quiet_NaN();
}  // namespace

SimMachine::SimMachine(const MachineConfig& cfg, const PhaseProgram& program,
                       uint64_t noise_seed)
    : cfg_(cfg),
      perf_(cfg_),
      power_(cfg_),
      cursor_(&program),
      noise_(noise_seed),
      core_f_(cfg_.core_ladder.max()),
      uncore_f_(cfg_.uncore_ladder.max()),
      cf_level_(cfg_.core_ladder.max_level()),
      uf_level_(cfg_.uncore_ladder.max_level()),
      row_of_op_(program.ops().size(), nullptr),
      stall_watts_(static_cast<size_t>(cfg_.core_ladder.levels()) *
                       static_cast<size_t>(cfg_.uncore_ladder.levels()),
                   kUnfilled) {}

void SimMachine::set_core_frequency(FreqMHz f) {
  CF_ASSERT(cfg_.core_ladder.contains(f), "core frequency off ladder");
  if (f != core_f_) {
    stall_s_ += cfg_.core_switch_latency_s;
    freq_switches_ += 1;
    cf_level_ = cfg_.core_ladder.level_of(f);
    rate_ = nullptr;
  }
  core_f_ = f;
}

void SimMachine::set_uncore_frequency(FreqMHz f) {
  CF_ASSERT(cfg_.uncore_ladder.contains(f), "uncore frequency off ladder");
  if (f != uncore_f_) {
    stall_s_ += cfg_.uncore_switch_latency_s;
    freq_switches_ += 1;
    uf_level_ = cfg_.uncore_ladder.level_of(f);
    rate_ = nullptr;
  }
  uncore_f_ = f;
}

SimMachine::Row* SimMachine::take_row() const {
  const auto ncf = static_cast<size_t>(cfg_.core_ladder.levels());
  const auto nuf = static_cast<size_t>(cfg_.uncore_ladder.levels());
  Row* row = nullptr;
  if (free_rows_.empty()) {
    row = rows_.emplace_back(std::make_unique<Row>()).get();
    row->grid.resize(ncf * nuf);
    row->filled.resize((ncf * nuf + 63) / 64);
    row->c_term.resize(ncf);
    row->m_term.resize(nuf);
  } else {
    row = free_rows_.back();
    free_rows_.pop_back();
  }
  std::fill(row->filled.begin(), row->filled.end(), 0);
  std::fill(row->c_term.begin(), row->c_term.end(), kUnfilled);
  std::fill(row->m_term.begin(), row->m_term.end(), kUnfilled);
  return row;
}

void SimMachine::release_row_if_passed(uint32_t op_index) {
  Row*& row = row_of_op_[op_index];
  if (row != nullptr &&
      cursor_.segment_index() > cursor_.program()->last_segment_of(op_index)) {
    free_rows_.push_back(row);
    row = nullptr;
  }
}

const SimMachine::Cell& SimMachine::rate_at(uint32_t op_index) const {
  Row*& slot = row_of_op_[op_index];
  if (slot == nullptr) slot = take_row();
  Row& row = *slot;
  const size_t i = static_cast<size_t>(cf_level_) *
                       static_cast<size_t>(cfg_.uncore_ladder.levels()) +
                   static_cast<size_t>(uf_level_);
  Cell& e = row.grid[i];
  const uint64_t bit = uint64_t{1} << (i % 64);
  if ((row.filled[i / 64] & bit) == 0) {
    // Exactly PerfModel::instructions_per_second, with the two p-norm
    // terms memoised per ladder level: the smooth-min factors over an
    // op's (CF, UF) grid are separable, so exploring a ladder re-pays
    // only the combining pow.
    const OperatingPoint& op = cursor_.program()->ops()[op_index];
    const double c = perf_.compute_roofline(core_f_, op);
    const double m = perf_.memory_roofline(uncore_f_, op);
    double ips;
    if (!std::isfinite(m)) {
      ips = c;
    } else {
      double& ct = row.c_term[static_cast<size_t>(cf_level_)];
      if (std::isnan(ct)) ct = perf_.roofline_term(c);
      double& mt = row.m_term[static_cast<size_t>(uf_level_)];
      if (std::isnan(mt)) mt = perf_.roofline_term(m);
      ips = perf_.combine_rooflines(ct, mt);
    }
    const double util = perf_.utilization_given_ips(ips, core_f_, op);
    e.ips = ips;
    e.watts = power_.package_watts(core_f_, uncore_f_, util, ips * op.tipi);
    row.filled[i / 64] |= bit;
  }
  return e;
}

double SimMachine::stall_watts() const {
  double& w = stall_watts_[static_cast<size_t>(cf_level_) *
                               static_cast<size_t>(cfg_.uncore_ladder.levels()) +
                           static_cast<size_t>(uf_level_)];
  if (std::isnan(w)) {
    // PLL relock: cores halted, no instructions retire; the package still
    // burns static + gated-core + uncore power.
    w = power_.package_watts(core_f_, uncore_f_, 0.0, 0.0);
  }
  return w;
}

double SimMachine::demand_bandwidth_now() const {
  if (cursor_.done()) return 0.0;
  // The firmware governor asks once per quantum, nearly always inside the
  // segment whose rates advance() hoisted: the same cell, no lookup.
  const uint32_t oi = cursor_.op_index();
  const Cell& rate = rate_ != nullptr && oi == rate_op_ ? *rate_ : rate_at(oi);
  return perf_.demand_bandwidth(rate.ips, cursor_.op());
}

double SimMachine::advance(double dt) {
  CF_ASSERT(dt >= 0.0, "negative time step");
  double left = dt;
  while (left > 1e-12 && !cursor_.done()) {
    if (stall_s_ > 1e-12) {
      const double step = std::min(left, stall_s_);
      energy_j_ += stall_watts() * step * power_noise_factor();
      now_s_ += step;
      stall_s_ -= step;
      left -= step;
      continue;
    }
    // Rates are segment-invariant: the lookup is skipped entirely until
    // the operating point (segment boundary) or a frequency changes.
    const uint32_t oi = cursor_.op_index();
    if (rate_ == nullptr || oi != rate_op_) {
      if (oi != rate_op_) release_row_if_passed(rate_op_);
      rate_ = &rate_at(oi);
      rate_op_ = oi;
    }
    const double ips = rate_->ips;
    CF_ASSERT(ips > 0.0, "non-positive throughput");
    const double seg_time = cursor_.remaining_in_segment() / ips;
    const double step = std::min(left, seg_time);
    const double instr = ips * step;

    energy_j_ += rate_->watts * step * power_noise_factor();
    instr_ += instr;
    tor_ += instr * cursor_.op().tipi;
    cursor_.consume(instr);
    now_s_ += step;
    left -= step;
  }
  return dt - left;
}

bool SimMachine::read(uint32_t address, uint64_t& value) {
  using namespace hal;
  switch (address) {
    case msr::kIa32PerfStatus:
    case msr::kIa32PerfCtl:
      value = encode_perf_status(core_f_);
      return true;
    case msr::kRaplPowerUnit:
      value = encode_rapl_power_unit(cfg_.rapl_esu_bits);
      return true;
    case msr::kPkgEnergyStatus:
      value = rapl_energy_raw();
      return true;
    case msr::kUncoreRatioLimit:
      value = encode_uncore_ratio_limit(uncore_f_, uncore_f_);
      return true;
    case msr::kTorInsertsAggregate:
      value = tor_inserts();
      return true;
    case msr::kTorInsertsMissLocal:
      value = tor_inserts_local();
      return true;
    case msr::kTorInsertsMissRemote:
      value = tor_inserts_remote();
      return true;
    case msr::kInstRetiredAggregate:
      value = static_cast<uint64_t>(instr_);
      return true;
    default:
      return false;
  }
}

bool SimMachine::write(uint32_t address, uint64_t value) {
  using namespace hal;
  switch (address) {
    case msr::kIa32PerfCtl: {
      const FreqMHz f = decode_perf_ctl(value);
      if (!cfg_.core_ladder.contains(f)) return false;
      set_core_frequency(f);
      return true;
    }
    case msr::kUncoreRatioLimit: {
      const FreqMHz hi = decode_uncore_max(value);
      if (!cfg_.uncore_ladder.contains(hi)) return false;
      // Real firmware honours the max ratio as the pin target when
      // min == max (Cuttlefish always writes them equal).
      set_uncore_frequency(hi);
      return true;
    }
    default:
      return false;
  }
}

}  // namespace cuttlefish::sim
