#include "core/controller.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "hal/arbitrated.hpp"

namespace cuttlefish::core {

const char* to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kFull: return "Cuttlefish";
    case PolicyKind::kCoreOnly: return "Cuttlefish-Core";
    case PolicyKind::kUncoreOnly: return "Cuttlefish-Uncore";
    case PolicyKind::kMonitor: return "Cuttlefish-Monitor";
    case PolicyKind::kMpc: return "Cuttlefish-MPC";
  }
  return "?";
}

Controller::Controller(hal::PlatformInterface& platform, ControllerConfig cfg)
    : platform_(&platform),
      cfg_(cfg),
      caps_(platform.capabilities()),
      effective_(cfg.policy),
      slabber_(cfg.tipi_slab_width),
      cf_ladder_(platform.core_ladder()),
      uf_ladder_(platform.uncore_ladder()),
      cf_explorer_(cf_ladder_, cfg.explore_step),
      uf_explorer_(uf_ladder_, cfg.explore_step),
      cf_propagator_(Domain::kCore, cfg.revalidation),
      uf_propagator_(Domain::kUncore, cfg.revalidation),
      sensor_health_(cfg.resilience),
      cf_health_(cfg.resilience),
      uf_health_(cfg.resilience) {
  CF_ASSERT(cfg.tinv_s > 0.0, "Tinv must be positive");
  CF_ASSERT(cfg.jpi_samples > 0, "jpi_samples must be positive");
  // One RTTI probe at construction, not per tick: grant-event plumbing
  // only exists when the backend is actually arbitrated.
  if (caps_.has(hal::Capability::kArbitrated)) {
    arbitrated_ = dynamic_cast<hal::ArbitratedPlatform*>(&platform);
  }
  apply_capabilities();
}

/// drain_grant_changes() on an arbitrated, traced controller. The
/// wrapper's queue is bounded by ticks since the last drain, so this is
/// O(grant movements), usually zero.
void Controller::record_grant_changes() {
  hal::ArbitratedPlatform::GrantChange change;
  while (arbitrated_->poll_grant_change(&change)) {
    const double mw = change.watts * 1000.0;
    const uint32_t aux =
        mw <= 0.0 ? 0u : static_cast<uint32_t>(std::lround(mw));
    trace_->record({stats_.ticks,
                    change.revoked ? TraceEvent::kBudgetRevoked
                                   : TraceEvent::kBudgetGranted,
                    -1, Domain::kCore, kNoLevel, kNoLevel, kNoLevel, aux});
  }
}

void Controller::note_degradation(Domain domain, hal::CapabilitySet lost) {
  degradations_.push_back({0, TraceEvent::kCapabilityDegraded, -1, domain,
                           kNoLevel, kNoLevel, kNoLevel, lost.bits()});
}

/// Narrow the configured policy to what the backend advertises instead of
/// refusing to start — the paper's premise is that start()/stop() works
/// wherever the program runs. Full-capability backends pass through
/// untouched, so simulator-backed decision traces are unchanged by this.
void Controller::apply_capabilities() {
  using hal::Capability;
  can_set_cf_ = caps_.has(Capability::kCoreDvfs);
  can_set_uf_ = caps_.has(Capability::kUncoreUfs);
  const bool jpi_ok = caps_.has(Capability::kEnergySensor) &&
                      caps_.has(Capability::kInstructionSensor);
  if (!jpi_ok && effective_ != PolicyKind::kMonitor) {
    hal::CapabilitySet lost;
    if (!caps_.has(Capability::kEnergySensor)) {
      lost = lost.with(Capability::kEnergySensor);
    }
    if (!caps_.has(Capability::kInstructionSensor)) {
      lost = lost.with(Capability::kInstructionSensor);
    }
    note_degradation(Domain::kCore, lost);
    effective_ = PolicyKind::kMonitor;
  }
  // A full request keeps whichever domain is still actuatable; an
  // explicit -Core/-Uncore request never switches to the *other* domain
  // (the user asked for that one to stay pinned at max) — it drops
  // straight to monitor instead. An MPC request narrows like kFull but
  // keeps its own kind while at least one actuator remains: the strategy
  // consults can_set_cf_/can_set_uf_ per domain itself.
  if (effective_ == PolicyKind::kMpc) {
    if (!can_set_uf_) {
      note_degradation(Domain::kUncore,
                       hal::CapabilitySet{}.with(Capability::kUncoreUfs));
    }
    if (!can_set_cf_) {
      note_degradation(Domain::kCore,
                       hal::CapabilitySet{}.with(Capability::kCoreDvfs));
    }
    if (!can_set_cf_ && !can_set_uf_) {
      effective_ = PolicyKind::kMonitor;
    }
  } else if (effective_ == PolicyKind::kFull) {
    if (!can_set_uf_) {
      note_degradation(Domain::kUncore,
                       hal::CapabilitySet{}.with(Capability::kUncoreUfs));
    }
    if (!can_set_cf_) {
      note_degradation(Domain::kCore,
                       hal::CapabilitySet{}.with(Capability::kCoreDvfs));
    }
    if (!can_set_cf_ && !can_set_uf_) {
      effective_ = PolicyKind::kMonitor;
    } else if (!can_set_uf_) {
      effective_ = PolicyKind::kCoreOnly;
    } else if (!can_set_cf_) {
      effective_ = PolicyKind::kUncoreOnly;
    }
  } else if (effective_ == PolicyKind::kCoreOnly && !can_set_cf_) {
    note_degradation(Domain::kCore,
                     hal::CapabilitySet{}.with(Capability::kCoreDvfs));
    effective_ = PolicyKind::kMonitor;
  } else if (effective_ == PolicyKind::kUncoreOnly && !can_set_uf_) {
    note_degradation(Domain::kUncore,
                     hal::CapabilitySet{}.with(Capability::kUncoreUfs));
    effective_ = PolicyKind::kMonitor;
  }
  if (!caps_.has(Capability::kTorSensor)) {
    // TIPI's numerator reads zero: every tick lands in one slab and the
    // controller runs a single-node list rather than failing.
    note_degradation(Domain::kCore,
                     hal::CapabilitySet{}.with(Capability::kTorSensor));
  }
  if (effective_ != cfg_.policy) {
    CF_LOG_WARN("policy %s degraded to %s (backend capabilities: %s)",
                to_string(cfg_.policy), to_string(effective_),
                caps_.to_string().c_str());
  }
}

/// Pure re-statement of apply_capabilities()'s narrowing rules over the
/// *runtime* device view (construction capabilities minus quarantined
/// devices), so mid-flight quarantine re-runs exactly the same ladder:
/// kFull -> kCoreOnly / kUncoreOnly -> kMonitor.
PolicyKind Controller::runtime_narrowed_policy(bool jpi_ok) const {
  if (safe_mode_ || !jpi_ok) return PolicyKind::kMonitor;
  const PolicyKind policy = cfg_.policy;
  if (policy == PolicyKind::kMpc) {
    return can_set_cf_ || can_set_uf_ ? PolicyKind::kMpc
                                      : PolicyKind::kMonitor;
  }
  if (policy == PolicyKind::kFull) {
    if (!can_set_cf_ && !can_set_uf_) return PolicyKind::kMonitor;
    if (!can_set_uf_) return PolicyKind::kCoreOnly;
    if (!can_set_cf_) return PolicyKind::kUncoreOnly;
    return PolicyKind::kFull;
  }
  if (policy == PolicyKind::kCoreOnly && !can_set_cf_) {
    return PolicyKind::kMonitor;
  }
  if (policy == PolicyKind::kUncoreOnly && !can_set_uf_) {
    return PolicyKind::kMonitor;
  }
  return policy;
}

void Controller::refresh_effective() {
  using hal::Capability;
  can_set_cf_ = caps_.has(Capability::kCoreDvfs) && !cf_quarantined_;
  can_set_uf_ = caps_.has(Capability::kUncoreUfs) && !uf_quarantined_;
  const bool jpi_ok = caps_.has(Capability::kEnergySensor) &&
                      caps_.has(Capability::kInstructionSensor) &&
                      !sensors_quarantined_;
  effective_ = runtime_narrowed_policy(jpi_ok);
}

void Controller::note_quarantine(Domain domain, hal::CapabilitySet lost) {
  if (quarantined_domains_ == 0) {
    // First quarantine: preserve the exploration state so a full heal
    // warm-restarts from here instead of re-exploring from scratch.
    recovery_snap_ = snapshot();
    have_recovery_snap_ = true;
  }
  quarantined_domains_ += 1;
  stats_.quarantines += 1;
  refresh_effective();
  if (trace_ != nullptr) {
    trace_->record({stats_.ticks, TraceEvent::kCapabilityDegraded, -1, domain,
                    kNoLevel, kNoLevel, kNoLevel, lost.bits()});
  }
  CF_LOG_WARN("controller: %s quarantined (lost %s); policy narrowed to %s",
              to_string(domain), lost.to_string().c_str(),
              to_string(effective_));
}

void Controller::note_heal(Domain domain, hal::CapabilitySet regained) {
  quarantined_domains_ -= 1;
  stats_.recoveries += 1;
  refresh_effective();
  if (trace_ != nullptr) {
    trace_->record({stats_.ticks, TraceEvent::kCapabilityRestored, -1,
                    domain, kNoLevel, kNoLevel, kNoLevel, regained.bits()});
  }
  CF_LOG_WARN("controller: %s healed (regained %s); policy re-widened to %s",
              to_string(domain), regained.to_string().c_str(),
              to_string(effective_));
  if (quarantined_domains_ == 0 && have_recovery_snap_) {
    // Everything healed: warm-restart exploration from the pre-fault
    // snapshot (restore() re-baselines the sensors and discards the
    // boundary-spanning sample like a region switch would).
    restore(recovery_snap_);
    have_recovery_snap_ = false;
  }
}

/// Probe quarantined devices on their backoff schedule. Sensor probes
/// are one extra sample; actuator probes re-assert the last requested
/// level (or the maximum before any write landed) so a successful probe
/// leaves the hardware where the controller believes it is.
void Controller::quarantine_maintenance() {
  using hal::Capability;
  if (sensors_quarantined_ && sensor_health_.should_probe(stats_.ticks)) {
    const hal::SampleOutcome probe = platform_->sample_sensors();
    if (probe.io.failed()) {
      sensor_health_.record_failure(stats_.ticks);
    } else if (sensor_health_.record_success(stats_.ticks)) {
      sensors_quarantined_ = false;
      note_heal(Domain::kCore,
                caps_ & hal::CapabilitySet::all_sensors());
    }
  }
  if (cf_quarantined_ && cf_health_.should_probe(stats_.ticks)) {
    const Level level =
        set_cf_ != kNoLevel ? set_cf_ : cf_ladder_.max_level();
    if (platform_->apply_core_frequency(cf_ladder_.at(level)).failed()) {
      cf_health_.record_failure(stats_.ticks);
    } else {
      set_cf_ = level;
      if (cf_health_.record_success(stats_.ticks)) {
        cf_quarantined_ = false;
        note_heal(Domain::kCore,
                  hal::CapabilitySet{}.with(Capability::kCoreDvfs));
      }
    }
  }
  if (uf_quarantined_ && uf_health_.should_probe(stats_.ticks)) {
    const Level level =
        set_uf_ != kNoLevel ? set_uf_ : uf_ladder_.max_level();
    if (platform_->apply_uncore_frequency(uf_ladder_.at(level)).failed()) {
      uf_health_.record_failure(stats_.ticks);
    } else {
      set_uf_ = level;
      if (uf_health_.record_success(stats_.ticks)) {
        uf_quarantined_ = false;
        note_heal(Domain::kUncore,
                  hal::CapabilitySet{}.with(Capability::kUncoreUfs));
      }
    }
  }
}

hal::SampleOutcome Controller::sample_with_retry() {
  hal::SampleOutcome out = platform_->sample_sensors();
  for (int attempt = 0;
       out.io.failed() && attempt < cfg_.resilience.max_retries; ++attempt) {
    stats_.io_retries += 1;
    out = platform_->sample_sensors();
  }
  return out;
}

bool Controller::try_actuate(Domain domain, Level level) {
  using hal::Capability;
  const bool core = domain == Domain::kCore;
  const FreqMHz f = core ? cf_ladder_.at(level) : uf_ladder_.at(level);
  auto write = [&] {
    return core ? platform_->apply_core_frequency(f)
                : platform_->apply_uncore_frequency(f);
  };
  hal::IoOutcome io = write();
  for (int attempt = 0;
       io.failed() && attempt < cfg_.resilience.max_retries; ++attempt) {
    stats_.io_retries += 1;
    io = write();
  }
  hal::DeviceHealth& health = core ? cf_health_ : uf_health_;
  if (io.failed()) {
    stats_.actuator_write_errors += 1;
    if (health.record_failure(stats_.ticks)) {
      (core ? cf_quarantined_ : uf_quarantined_) = true;
      note_quarantine(domain,
                      hal::CapabilitySet{}.with(core ? Capability::kCoreDvfs
                                                     : Capability::kUncoreUfs));
    }
    return false;
  }
  // kUnsupported counts as accepted: a deliberately absent or masked
  // domain is not ill health (the capability bit already reflects it).
  health.record_success(stats_.ticks);
  return true;
}

ControllerSnapshot Controller::snapshot() const {
  ControllerSnapshot snap;
  snap.slab_width = cfg_.tipi_slab_width;
  snap.cf_levels = cf_ladder_.levels();
  snap.uf_levels = uf_ladder_.levels();
  snap.jpi_samples = cfg_.jpi_samples;
  snap.nodes.reserve(list_.size());
  for (const TipiNode* node = list_.head(); node != nullptr;
       node = node->next) {
    NodeSnapshot ns;
    ns.slab = node->slab;
    ns.ticks = node->ticks;
    ns.cf = capture_domain(node->cf);
    ns.uf = capture_domain(node->uf);
    snap.nodes.push_back(std::move(ns));
  }
  return snap;
}

bool Controller::restore(const ControllerSnapshot& snap) {
  const bool shape_ok = snap.slab_width == cfg_.tipi_slab_width &&
                        snap.cf_levels == cf_ladder_.levels() &&
                        snap.uf_levels == uf_ladder_.levels() &&
                        snap.jpi_samples == cfg_.jpi_samples;
  if (!shape_ok) {
    CF_LOG_WARN(
        "controller: snapshot shape mismatch (slab width %g vs %g, "
        "ladders %dx%d vs %dx%d, jpi %d vs %d); starting cold",
        snap.slab_width, cfg_.tipi_slab_width, snap.cf_levels,
        snap.uf_levels, cf_ladder_.levels(), uf_ladder_.levels(),
        snap.jpi_samples, cfg_.jpi_samples);
    reset_exploration();
    return false;
  }
  list_.clear();
  for (const NodeSnapshot& ns : snap.nodes) {
    TipiNode* node = list_.insert(ns.slab);
    node->ticks = ns.ticks;
    restore_domain(node->cf, ns.cf, cfg_.jpi_samples);
    restore_domain(node->uf, ns.uf, cfg_.jpi_samples);
  }
  // The first tick after a region switch spans the boundary; a null
  // prev_node_ makes it a transition, so its JPI sample is discarded like
  // any other TIPI-range change (Algorithm 2 line 6).
  prev_node_ = nullptr;
  last_ = platform_->sample_sensors().sample.totals();
  return true;
}

void Controller::reset_exploration() {
  list_.clear();
  prev_node_ = nullptr;
  last_ = platform_->sample_sensors().sample.totals();
}

void Controller::record_region_event(TraceEvent event, int64_t region_id,
                                     uint32_t payload) {
  if (trace_ == nullptr) return;
  trace_->record({stats_.ticks, event, region_id, Domain::kCore, kNoLevel,
                  kNoLevel, kNoLevel, payload});
}

void Controller::record_runtime_event(TraceEvent event, uint32_t payload) {
  if (trace_ == nullptr) return;
  trace_->record({stats_.ticks, event, -1, Domain::kCore, kNoLevel, kNoLevel,
                  kNoLevel, payload});
}

void Controller::enter_safe_mode() {
  if (safe_mode_) return;
  safe_mode_ = true;
  effective_ = PolicyKind::kMonitor;
  record_runtime_event(TraceEvent::kSafeStop);
  CF_LOG_ERROR("controller: safe-stopped into monitor mode");
}

void Controller::begin() {
  // Make any construction-time capability degradation auditable before
  // the first decision lands in the trace.
  if (trace_ != nullptr) {
    for (const TraceRecord& rec : degradations_) trace_->record(rec);
  }
  // Algorithm 1 lines 1-2: start at the maximum frequencies.
  set_cf_ = kNoLevel;
  set_uf_ = kNoLevel;
  set_frequencies(cf_ladder_.max_level(), uf_ladder_.max_level());
  prev_cf_ = cf_ladder_.max_level();
  prev_uf_ = uf_ladder_.max_level();
  last_ = platform_->sample_sensors().sample.totals();
  prev_node_ = nullptr;
}

void Controller::set_frequencies(Level cf, Level uf) {
  // Domains without an actuator capability (or in quarantine) are
  // skipped entirely: no write, no freq_writes accounting, no trace
  // noise. A write that fails after its in-call retries leaves set_*
  // untouched — the controller's view never silently diverges from the
  // hardware — and feeds the health tracker instead of the trace.
  if (can_set_cf_ && cf != set_cf_ && try_actuate(Domain::kCore, cf)) {
    set_cf_ = cf;
    stats_.freq_writes += 1;
    if (trace_ != nullptr) {
      trace_->record({stats_.ticks, TraceEvent::kFrequencySet, -1,
                      Domain::kCore, kNoLevel, kNoLevel, cf});
    }
  }
  if (can_set_uf_ && uf != set_uf_ && try_actuate(Domain::kUncore, uf)) {
    set_uf_ = uf;
    stats_.freq_writes += 1;
    if (trace_ != nullptr) {
      trace_->record({stats_.ticks, TraceEvent::kFrequencySet, -1,
                      Domain::kUncore, kNoLevel, kNoLevel, uf});
    }
  }
}

void Controller::trace_window(TraceEvent event, const TipiNode& node,
                              Domain domain) {
  if (trace_ == nullptr) return;
  const DomainState& st = domain_state(node, domain);
  trace_->record({stats_.ticks, event, node.slab, domain, st.lb, st.rb,
                  st.opt});
}

void Controller::trace_opt_found(const TipiNode& node, Domain domain) {
  if (trace_ == nullptr) return;
  const DomainState& st = domain_state(node, domain);
  trace_->record({stats_.ticks, TraceEvent::kOptFound, node.slab, domain,
                  st.lb, st.rb, st.opt});
}

void Controller::trace_explore(const TipiNode& node, Domain domain,
                               const ExploreResult& result) {
  if (trace_ == nullptr) return;
  const DomainState& st = domain_state(node, domain);
  if (result.opt_found) {
    trace_->record({stats_.ticks, TraceEvent::kOptFound, node.slab, domain,
                    st.lb, st.rb, st.opt});
  } else if (result.rb_lowered || result.lb_raised) {
    trace_->record({stats_.ticks, TraceEvent::kBoundTightened, node.slab,
                    domain, st.lb, st.rb, result.next});
  }
}

void Controller::start_uf_phase(TipiNode& node, Level& uf_next) {
  // Algorithm 1 lines 20-24: CF exploration has just concluded; estimate
  // the UF window (Algorithm 3) narrowed by the neighbours (§4.4) and
  // start the UF descent at the window's right bound.
  init_uf_window(node, cf_ladder_, uf_ladder_, cfg_.jpi_samples,
                 node.cf.opt, cfg_.insertion_narrowing);
  trace_window(TraceEvent::kUfWindowInit, node, Domain::kUncore);
  if (node.uf.complete()) {
    uf_propagator_.on_opt_found(node, node.uf.opt);
    uf_next = node.uf.opt;
  } else {
    uf_next = node.uf.rb;
  }
}

void Controller::run_full_policy(TipiNode& node, double jpi, bool record,
                                 Level& cf_next, Level& uf_next) {
  if (!node.cf.complete()) {
    // Algorithm 1 lines 13/18: CF exploration with the uncore held at max.
    const ExploreResult res =
        cf_explorer_.step(node.cf, jpi, prev_cf_, record);
    if (record) stats_.samples_recorded += 1;
    cf_propagator_.apply(node, res);
    trace_explore(node, Domain::kCore, res);
    cf_next = res.next;
    uf_next = uf_ladder_.max_level();
    if (node.cf.complete()) {
      cf_next = node.cf.opt;
      start_uf_phase(node, uf_next);
    }
    return;
  }
  cf_next = node.cf.opt;
  if (!node.uf.window_set) {
    // CF completed through §4.5 propagation while another slab was
    // active; the UF phase still has to be armed.
    start_uf_phase(node, uf_next);
    return;
  }
  if (!node.uf.complete()) {
    // Algorithm 1 lines 25-27.
    const ExploreResult res =
        uf_explorer_.step(node.uf, jpi, prev_uf_, record);
    if (record) stats_.samples_recorded += 1;
    uf_propagator_.apply(node, res);
    trace_explore(node, Domain::kUncore, res);
    uf_next = res.next;
    return;
  }
  // Algorithm 1 lines 28-31: steady state.
  uf_next = node.uf.opt;
}

void Controller::run_core_only(TipiNode& node, double jpi, bool record,
                               Level& cf_next, Level& uf_next) {
  uf_next = uf_ladder_.max_level();
  if (!node.cf.complete()) {
    const ExploreResult res =
        cf_explorer_.step(node.cf, jpi, prev_cf_, record);
    if (record) stats_.samples_recorded += 1;
    cf_propagator_.apply(node, res);
    cf_next = res.next;
  } else {
    cf_next = node.cf.opt;
  }
}

void Controller::run_uncore_only(TipiNode& node, double jpi, bool record,
                                 Level& cf_next, Level& uf_next) {
  cf_next = cf_ladder_.max_level();
  if (!node.uf.complete()) {
    const ExploreResult res =
        uf_explorer_.step(node.uf, jpi, prev_uf_, record);
    if (record) stats_.samples_recorded += 1;
    uf_propagator_.apply(node, res);
    uf_next = res.next;
  } else {
    uf_next = node.uf.opt;
  }
}

void Controller::on_node_inserted(TipiNode& node) {
  // Algorithm 1 lines 8-12: arm the exploration window of the policy's
  // primary domain (the uncore-only variant explores UF directly with the
  // core pinned; everything else starts with the CF descent).
  if (effective_ == PolicyKind::kUncoreOnly) {
    init_uf_window(node, cf_ladder_, uf_ladder_, cfg_.jpi_samples,
                   std::nullopt, cfg_.insertion_narrowing);
    trace_window(TraceEvent::kUfWindowInit, node, Domain::kUncore);
    if (node.uf.complete()) {
      uf_propagator_.on_opt_found(node, node.uf.opt);
    }
  } else {
    init_cf_window(node, cf_ladder_, cfg_.jpi_samples,
                   cfg_.insertion_narrowing);
    trace_window(TraceEvent::kCfWindowInit, node, Domain::kCore);
    if (node.cf.complete()) {
      cf_propagator_.on_opt_found(node, node.cf.opt);
    }
  }
}

void Controller::decide(TipiNode& node, double jpi, bool record,
                        Level& cf_next, Level& uf_next) {
  switch (effective_) {
    case PolicyKind::kFull:
      run_full_policy(node, jpi, record, cf_next, uf_next);
      break;
    case PolicyKind::kCoreOnly:
      run_core_only(node, jpi, record, cf_next, uf_next);
      break;
    case PolicyKind::kUncoreOnly:
      run_uncore_only(node, jpi, record, cf_next, uf_next);
      break;
    case PolicyKind::kMonitor:
      // Profile only: the TIPI list and telemetry fill in, but no windows
      // open and both domains stay at their (unactuated) maxima.
      break;
    case PolicyKind::kMpc:
      // kMpc is implemented by ControllerMpc's override; a plain
      // Controller configured with it (use the factory instead) profiles
      // like kMonitor rather than running a strategy it doesn't have.
      break;
  }
}

void Controller::tick() {
  if (safe_mode_) {
    // Parked by the watchdog: keep the tick count advancing (region and
    // telemetry bookkeeping stays consistent) but touch no hardware.
    stats_.ticks += 1;
    stats_.idle_ticks += 1;
    return;
  }
  if (quarantined_domains_ > 0) {
    quarantine_maintenance();
    if (sensors_quarantined_) {
      // No usable counters: the interval is accounted idle. Probes above
      // keep testing the stack on its backoff schedule; a heal resumes
      // normal ticks from the recovery snapshot.
      stats_.ticks += 1;
      stats_.idle_ticks += 1;
      return;
    }
  }

  // One batched virtual read per tick (Algorithm 1 line 6): every counter
  // arrives in a single SensorSample instead of scattered per-counter
  // register round trips. Transient read failures are retried in-call
  // (same tick, same virtual time); a tick whose read still fails is
  // dropped whole — stale counters must never enter the JPI tables.
  const hal::SampleOutcome sampled = sample_with_retry();
  if (sampled.io.failed()) {
    stats_.ticks += 1;
    stats_.sensor_read_errors += 1;
    // The next successful interval spans the outage; treat it like a
    // region boundary so its sample is discarded as a transition.
    prev_node_ = nullptr;
    if (sensor_health_.record_failure(stats_.ticks)) {
      sensors_quarantined_ = true;
      note_quarantine(Domain::kCore,
                      caps_ & hal::CapabilitySet::all_sensors());
    }
    return;
  }
  sensor_health_.record_success(stats_.ticks);
  // The batched read above published this interval's demand; any grant
  // movement the arbiter answered with belongs to this tick's audit line.
  drain_grant_changes();
  const hal::SensorTotals totals = sampled.sample.totals();
  const uint64_t d_instr = totals.instructions - last_.instructions;
  const uint64_t d_tor = totals.tor_inserts - last_.tor_inserts;
  const double d_energy = totals.energy_joules - last_.energy_joules;
  last_ = totals;
  stats_.ticks += 1;
  if (d_instr == 0) {
    stats_.idle_ticks += 1;
    return;
  }

  // Algorithm 1 line 7: TIPI and JPI of the elapsed interval.
  const double tipi =
      static_cast<double>(d_tor) / static_cast<double>(d_instr);
  const double jpi = d_energy / static_cast<double>(d_instr);
  const int64_t slab = slabber_.slab_of(tipi);

  // Hot-path short circuit: consecutive Tinv intervals overwhelmingly
  // stay in the previous tick's TIPI range, so one compare against the
  // last node skips even the list's MRU/binary-search lookup.
  TipiNode* node = prev_node_ != nullptr && prev_node_->slab == slab
                       ? prev_node_
                       : list_.find(slab);
  bool transition;
  if (node == nullptr) {
    // Algorithm 1 lines 8-12: new TIPI range.
    node = list_.insert(slab);
    stats_.nodes_inserted += 1;
    transition = true;
    if (trace_ != nullptr) {
      trace_->record({stats_.ticks, TraceEvent::kNodeInserted, slab,
                      Domain::kCore, kNoLevel, kNoLevel, kNoLevel});
    }
    if (effective_ != PolicyKind::kMonitor) on_node_inserted(*node);
  } else {
    transition = node != prev_node_;
  }
  node->ticks += 1;
  if (transition) stats_.transitions += 1;

  Level cf_next = cf_ladder_.max_level();
  Level uf_next = uf_ladder_.max_level();
  const bool record = !transition;
  decide(*node, jpi, record, cf_next, uf_next);

  // Algorithm 1 line 33-35.
  set_frequencies(cf_next, uf_next);
  prev_node_ = node;
  prev_cf_ = cf_next;
  prev_uf_ = uf_next;

  if (telemetry_ != nullptr) {
    telemetry_->push_back(TickTelemetry{tipi, jpi, slab, transition,
                                        cf_ladder_.at(cf_next),
                                        uf_ladder_.at(uf_next)});
  }
}

}  // namespace cuttlefish::core
