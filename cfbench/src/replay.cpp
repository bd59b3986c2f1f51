#include "replay.hpp"

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "core/controller_factory.hpp"
#include "core/tipi_list.hpp"
#include "exp/metrics.hpp"
#include "sim/firmware_governor.hpp"
#include "sim/sim_machine.hpp"
#include "sim/sim_platform.hpp"
#include "stats.hpp"

namespace cfbench {

using namespace cuttlefish;

exp::SweepGrid build_policy_grid(
    const std::vector<workloads::BenchmarkModel>& suite,
    const sim::MachineConfig& machine, int seeds, uint64_t seed0) {
  exp::SweepGrid grid(machine);
  const exp::RunOptions opt;
  for (const auto& model : suite) {
    const int base =
        grid.add_default(model.name + "/Default", model, opt, seeds, seed0);
    for (const auto policy :
         {core::PolicyKind::kFull, core::PolicyKind::kCoreOnly,
          core::PolicyKind::kUncoreOnly}) {
      grid.add_policy(model.name + "/" + core::to_string(policy), model,
                      policy, opt, seeds, seed0, base);
    }
  }
  return grid;
}

uint64_t sweep_digest(const exp::SweepGrid& grid,
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

std::string digest_hex(uint64_t digest) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, digest);
  return buf;
}

Headline cuttlefish_geomeans(const exp::SweepGrid& grid,
                             const std::vector<exp::RunResult>& results) {
  const std::vector<exp::PointSummary> summary = exp::summarize(grid, results);
  std::vector<double> savings, slowdown;
  for (size_t p = 0; p < grid.points().size(); ++p) {
    const exp::RunSpec& spec = grid.specs()[static_cast<size_t>(
        grid.points()[p].first_spec)];
    if (spec.kind != exp::RunKind::kPolicy ||
        spec.policy != core::PolicyKind::kFull) {
      continue;
    }
    savings.push_back(summary[p].energy_savings_pct.mean);
    slowdown.push_back(summary[p].slowdown_pct.mean);
  }
  return Headline{exp::geomean_savings_pct(savings),
                  exp::geomean_slowdown_pct(slowdown)};
}

// ---- TimedPlatform ------------------------------------------------------

namespace {

void bump(std::atomic<uint64_t>& c, uint64_t by = 1) {
  c.store(c.load(std::memory_order_relaxed) + by, std::memory_order_relaxed);
}

}  // namespace

template <typename F>
auto TimedPlatform::forward(Slot& slot, F&& call) {
  bump(slot.calls);
  if (!timing_) return call();
  const uint64_t c0 = cycles();
  auto out = call();
  const uint64_t c1 = cycles();
  bump(slot.ns, static_cast<uint64_t>(static_cast<double>(c1 - c0) *
                                      ns_per_cycle()));
  bump(slot.timed);
  return out;
}

TimedPlatform::Counts TimedPlatform::counts() const {
  Counts c;
  c.sample_calls = sample_.calls.load(std::memory_order_relaxed);
  c.apply_calls = apply_.calls.load(std::memory_order_relaxed);
  c.sample_timed = sample_.timed.load(std::memory_order_relaxed);
  c.apply_timed = apply_.timed.load(std::memory_order_relaxed);
  c.sample_ns = sample_.ns.load(std::memory_order_relaxed);
  c.apply_ns = apply_.ns.load(std::memory_order_relaxed);
  return c;
}

void TimedPlatform::set_core_frequency(FreqMHz f) {
  forward(apply_, [&] {
    inner_->set_core_frequency(f);
    return 0;
  });
}

void TimedPlatform::set_uncore_frequency(FreqMHz f) {
  forward(apply_, [&] {
    inner_->set_uncore_frequency(f);
    return 0;
  });
}

hal::SensorTotals TimedPlatform::read_sensors() {
  return forward(sample_, [&] { return inner_->read_sensors(); });
}

hal::SensorSample TimedPlatform::read_sample() {
  return forward(sample_, [&] { return inner_->read_sample(); });
}

hal::IoOutcome TimedPlatform::apply_core_frequency(FreqMHz f) {
  return forward(apply_, [&] { return inner_->apply_core_frequency(f); });
}

hal::IoOutcome TimedPlatform::apply_uncore_frequency(FreqMHz f) {
  return forward(apply_, [&] { return inner_->apply_uncore_frequency(f); });
}

hal::SampleOutcome TimedPlatform::sample_sensors() {
  return forward(sample_, [&] { return inner_->sample_sensors(); });
}

// ---- replay -------------------------------------------------------------

double clock_overhead_ns() {
  static const double overhead = [] {
    std::vector<double> d;
    d.reserve(4096);
    for (int i = 0; i < 4096; ++i) {
      const uint64_t a = cycles();
      const uint64_t b = cycles();
      d.push_back(static_cast<double>(b - a) * ns_per_cycle());
    }
    return median(std::move(d));
  }();
  return overhead;
}

const char* variant_span_name(const exp::RunSpec& spec) {
  if (spec.kind == exp::RunKind::kDefault) return "exp.run_spec.default";
  switch (spec.policy) {
    case core::PolicyKind::kFull:
      return "exp.run_spec.full";
    case core::PolicyKind::kCoreOnly:
      return "exp.run_spec.core";
    case core::PolicyKind::kUncoreOnly:
      return "exp.run_spec.uncore";
    default:
      return "exp.run_spec.other";
  }
}

namespace {

/// Sampled timings of one spec's quantum loop, extrapolated at the end.
/// Calls are picked pseudo-randomly (one in kSampleEvery on average, a
/// fixed xorshift sequence), so the sample neither always includes a
/// run's first quantum, whose rate-table fills are slow, nor aliases
/// with a periodic phase pattern.
struct LoopSampler {
  double clock_ns = clock_overhead_ns();
  uint64_t rng = 0x9e3779b97f4a7c15ULL;
  uint64_t quanta = 0;
  uint64_t adv_sampled = 0;
  double adv_ns = 0.0;
  uint64_t ticks = 0;
  uint64_t tick_sampled = 0;
  double tick_ns = 0.0;        // sampled ticks, HAL included
  double hal_sample_ns = 0.0;  // ... of which sensor samples
  uint64_t hal_sample_sampled = 0;
  double hal_apply_ns = 0.0;
  uint64_t hal_apply_sampled = 0;
  std::vector<double>* tick_self_ns = nullptr;  // one entry per sampled tick

  bool pick() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng % ReplayStats::kSampleEvery == 0;
  }
};

/// One quantum: advance, and report whether the workload is still running.
/// A picked call is timed (see LoopSampler).
bool step(sim::SimMachine& machine, double tinv, LoopSampler& s,
          bool sampling) {
  if (sampling && s.pick()) {
    const uint64_t c0 = cycles();
    machine.advance(tinv);
    const uint64_t c1 = cycles();
    s.adv_ns += std::max(
        0.0, static_cast<double>(c1 - c0) * ns_per_cycle() - s.clock_ns);
    ++s.adv_sampled;
  } else {
    machine.advance(tinv);
  }
  ++s.quanta;
  return !machine.workload_done();
}

void tick(core::IController& controller, TimedPlatform& platform,
          LoopSampler& s, bool sampling) {
  ++s.ticks;
  if (!sampling || !s.pick()) {
    controller.tick();
    return;
  }
  const TimedPlatform::Counts before = platform.counts();
  platform.set_timing(true);
  const uint64_t c0 = cycles();
  controller.tick();
  const uint64_t c1 = cycles();
  platform.set_timing(false);
  const TimedPlatform::Counts after = platform.counts();
  const uint64_t ns_sample = after.sample_ns - before.sample_ns;
  const uint64_t ns_apply = after.apply_ns - before.apply_ns;
  const uint64_t n_sample = after.sample_timed - before.sample_timed;
  const uint64_t n_apply = after.apply_timed - before.apply_timed;
  const double c = s.clock_ns;
  // Each timed HAL call adds two clock reads to the tick's interval and
  // one clock read's cost to its own.
  const double hal_raw = static_cast<double>(ns_sample + ns_apply);
  const double k = static_cast<double>(n_sample + n_apply);
  const double tick_raw = static_cast<double>(c1 - c0) * ns_per_cycle();
  s.tick_ns += std::max(0.0, tick_raw - c - 2.0 * k * c);
  ++s.tick_sampled;
  if (s.tick_self_ns != nullptr) {
    s.tick_self_ns->push_back(std::max(0.0, tick_raw - hal_raw - c - k * c));
  }
  s.hal_sample_ns +=
      std::max(0.0, static_cast<double>(ns_sample) -
                        static_cast<double>(n_sample) * c);
  s.hal_sample_sampled += n_sample;
  s.hal_apply_ns += std::max(
      0.0, static_cast<double>(ns_apply) - static_cast<double>(n_apply) * c);
  s.hal_apply_sampled += n_apply;
}

double extrapolate(double sampled_ns, uint64_t sampled, uint64_t calls) {
  return sampled == 0 ? 0.0
                      : sampled_ns / static_cast<double>(sampled) *
                            static_cast<double>(calls);
}

exp::RunResult finish(const sim::SimMachine& machine, exp::RunResult r) {
  r.time_s = machine.now();
  r.energy_j = machine.energy_joules();
  r.instructions = machine.instructions_retired();
  return r;
}

}  // namespace

exp::RunResult replay_spec(const exp::RunSpec& spec,
                           const sim::PhaseProgram& program, Tracer* tracer,
                           ReplayStats* stats) {
  if (spec.model == nullptr || spec.machine == nullptr ||
      spec.kind == exp::RunKind::kFixed || spec.options.capture_timeline ||
      spec.options.faults != nullptr || spec.options.arbiter.enabled) {
    throw std::invalid_argument(
        "replay_spec models plain Default and policy specs only");
  }
  const bool sampling = stats != nullptr;
  const int span =
      tracer != nullptr ? tracer->begin(variant_span_name(spec)) : -1;
  const double tinv = spec.options.controller.tinv_s;
  const sim::MachineConfig& cfg = *spec.machine;
  LoopSampler s;
  if (stats != nullptr) s.tick_self_ns = &stats->tick_self_ns;
  uint64_t sample_calls = 0;
  uint64_t apply_calls = 0;
  // The machine and controller are destroyed inside the span, as they are
  // inside exp::run_spec.
  exp::RunResult result = [&] {
    exp::RunResult r;
    sim::SimMachine machine(cfg, program, spec.seed);
    if (spec.kind == exp::RunKind::kDefault) {
      machine.set_core_frequency(cfg.core_ladder.max());
      sim::FirmwareUncoreGovernor governor(machine);
      while (step(machine, tinv, s, sampling)) governor.tick();
    } else {
      sim::SimPlatform base(machine);
      TimedPlatform platform(base);
      core::ControllerConfig ctl_cfg = spec.options.controller;
      ctl_cfg.policy = spec.policy;
      const std::unique_ptr<core::IController> controller =
          core::make_controller(platform, ctl_cfg);
      // §4.1 warm-up, with exp::run_policy's exact loop bounds.
      bool alive = true;
      for (double t = 0.0; t + ctl_cfg.tinv_s <= ctl_cfg.warmup_s + 1e-12;
           t += ctl_cfg.tinv_s) {
        alive = step(machine, tinv, s, sampling);
        if (!alive) break;
      }
      if (alive) {
        controller->begin();
        while (step(machine, tinv, s, sampling)) {
          tick(*controller, platform, s, sampling);
        }
        tick(*controller, platform, s, sampling);
      }
      r.stats = controller->stats();
      for (const core::TipiNode* node = controller->list().head();
           node != nullptr; node = node->next) {
        r.nodes.push_back(exp::NodeSummary{node->slab, node->ticks,
                                           node->cf.opt, node->uf.opt});
      }
      const TimedPlatform::Counts c = platform.counts();
      sample_calls = c.sample_calls;
      apply_calls = c.apply_calls;
    }
    return finish(machine, std::move(r));
  }();

  if (stats != nullptr) {
    const double adv = extrapolate(s.adv_ns, s.adv_sampled, s.quanta);
    const double tick_ns = extrapolate(s.tick_ns, s.tick_sampled, s.ticks);
    const double sample_ns =
        extrapolate(s.hal_sample_ns, s.hal_sample_sampled, sample_calls);
    const double apply_ns =
        extrapolate(s.hal_apply_ns, s.hal_apply_sampled, apply_calls);
    stats->advance_calls += s.quanta;
    stats->advance_ns += adv;
    stats->tick_calls += s.ticks;
    stats->tick_ns += tick_ns;
    stats->sample_calls += sample_calls;
    stats->sample_ns += sample_ns;
    stats->apply_calls += apply_calls;
    stats->apply_ns += apply_ns;
    const core::ControllerStats& cs = result.stats;
    core::ControllerStats& acc = stats->controller;
    acc.ticks += cs.ticks;
    acc.transitions += cs.transitions;
    acc.samples_recorded += cs.samples_recorded;
    acc.freq_writes += cs.freq_writes;
    acc.io_retries += cs.io_retries;
    if (tracer != nullptr) {
      tracer->add_estimate("sim.advance", adv, span);
      if (spec.kind == exp::RunKind::kPolicy) {
        const int t = tracer->add_estimate("core.tick", tick_ns, span);
        tracer->add_estimate("hal.sample", sample_ns, t);
        tracer->add_estimate("hal.apply", apply_ns, t);
      }
    }
  }
  if (tracer != nullptr) tracer->end(span);
  return result;
}

}  // namespace cfbench
