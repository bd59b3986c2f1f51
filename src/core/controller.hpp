#pragma once

#include <cstdint>
#include <vector>

#include "common/frequency.hpp"
#include "common/tipi.hpp"
#include "core/config.hpp"
#include "core/explorer.hpp"
#include "core/icontroller.hpp"
#include "core/narrowing.hpp"
#include "core/snapshot.hpp"
#include "core/tipi_list.hpp"
#include "core/trace.hpp"
#include "hal/health.hpp"
#include "hal/platform.hpp"

namespace cuttlefish::hal {
class ArbitratedPlatform;
}  // namespace cuttlefish::hal

namespace cuttlefish::core {

/// The Cuttlefish runtime policy (Algorithm 1) as a tick-driven engine —
/// the `Default` registration of core/controller_factory.hpp. Thread-free
/// by design: core::Daemon wraps it in a real thread for wall-clock use,
/// and the experiment driver calls tick() from the virtual-time
/// co-simulation loop. One tick = one Tinv interval.
///
/// The tick() skeleton — batched sensor read, fault retry/quarantine,
/// TIPI slabbing, node lookup, actuation, telemetry — is policy-agnostic
/// and shared by every subclass; strategies differ only in the two
/// protected hooks, on_node_inserted() and decide()
/// (core/controller_mpc.hpp overrides both).
class Controller : public IController {
 public:
  Controller(hal::PlatformInterface& platform, ControllerConfig cfg = {});

  /// Pin both domains to their maxima and baseline the sensors. Call once
  /// after the warm-up period, immediately before the first tick().
  void begin() override;

  /// One pass of the Algorithm-1 loop body.
  void tick() override;

  const ControllerConfig& config() const override { return cfg_; }
  const SortedTipiList& list() const override { return list_; }
  const ControllerStats& stats() const override { return stats_; }
  const TipiSlabber& slabber() const override { return slabber_; }

  /// The backend's capability set, read once at construction.
  hal::CapabilitySet capabilities() const override { return caps_; }
  /// The policy actually run: config().policy narrowed to what the
  /// backend can support (kFull degrades to kCoreOnly without uncore
  /// control, any policy degrades to kMonitor without JPI sensors or the
  /// needed actuator). Equal to config().policy on full-capability
  /// backends.
  PolicyKind effective_policy() const override { return effective_; }
  /// True when effective_policy() differs from the request or a sensor
  /// loss (e.g. TOR -> single-slab TIPI) was recorded.
  bool degraded() const override { return !degradations_.empty(); }

  /// Capture the exploration state — TIPI slab layout, per-node windows
  /// and optima, JPI tables — as plain data. This is what a named region
  /// saves on exit; replaying it through restore() on re-entry skips the
  /// warm-up re-exploration (the recurring-kernel amortisation the paper
  /// targets).
  ControllerSnapshot snapshot() const override;

  /// Replace the exploration state with a previously captured snapshot
  /// and re-baseline the sensors, so the next tick continues exactly
  /// where the snapshot left off (completed nodes go straight to their
  /// optima; partially explored windows resume). Returns false — and
  /// resets to a cold state instead — when the snapshot's shape (ladder
  /// sizes, slab width, JPI quota) does not match this controller.
  bool restore(const ControllerSnapshot& snap) override;

  /// Drop all exploration state (cold region entry): empty TIPI list,
  /// sensors re-baselined. Frequencies are left as-is — the next tick
  /// decides them, discarding the boundary-spanning sample like any
  /// other TIPI transition.
  void reset_exploration() override;

  /// Append a region lifecycle record (enter/exit/warm-start) to the
  /// attached trace. `region_id` is the session-assigned id of the named
  /// region (TraceRecord::slab carries it); `payload` is event-specific
  /// (node count restored by a warm start).
  void record_region_event(TraceEvent event, int64_t region_id,
                           uint32_t payload = 0) override;

  /// Append a machine-wide runtime record (tick overrun, watchdog
  /// diagnostics) to the attached trace; `payload` is event-specific.
  void record_runtime_event(TraceEvent event, uint32_t payload = 0) override;

  /// Permanently park the controller in monitor mode: every subsequent
  /// tick is counted idle and nothing is read or written. The daemon
  /// watchdog's terminal action when the backend wedges (repeated tick
  /// overruns or controller exceptions); irreversible by design — a
  /// backend sick enough to trip it is not trusted again this session.
  void enter_safe_mode() override;
  bool safe_mode() const override { return safe_mode_; }

  /// Per-device health trackers (sensor stack + one per actuator
  /// domain). Drive the retry/quarantine/re-narrowing machinery of
  /// docs/FAULTS.md; exposed for health reports and tests.
  const hal::DeviceHealth& sensor_health() const override {
    return sensor_health_;
  }
  const hal::DeviceHealth& core_actuator_health() const override {
    return cf_health_;
  }
  const hal::DeviceHealth& uncore_actuator_health() const override {
    return uf_health_;
  }
  /// True while any device is quarantined (the effective policy is then
  /// narrowed below the construction-time value).
  bool any_quarantine() const override { return quarantined_domains_ > 0; }

  /// Optional per-tick capture (Fig. 2 timelines, tests). Not owned.
  void set_telemetry(std::vector<TickTelemetry>* sink) override {
    telemetry_ = sink;
  }

  /// Optional decision log (diagnostics / auditing). Not owned; null
  /// disables tracing at zero cost.
  void set_trace(DecisionTrace* trace) override { trace_ = trace; }

 protected:
  /// Strategy hook: a new TIPI range just entered the list (Algorithm 1
  /// lines 8-12). Arm whatever per-node state the policy needs before its
  /// first decide(). Only called when the effective policy is not
  /// kMonitor. The Default implementation opens the Algorithm-3
  /// exploration window for the policy's primary domain.
  virtual void on_node_inserted(TipiNode& node);

  /// Strategy hook: pick the levels to run at until the next tick.
  /// `jpi` is the JPI measured over the elapsed interval; `record` is
  /// false when that interval spanned a TIPI transition (Algorithm 2
  /// line 6: such samples are discarded). `cf_next`/`uf_next` arrive
  /// preloaded with the ladder maxima; leave them untouched to pin a
  /// domain. The interval ran at prev_cf()/prev_uf(). The Default
  /// implementation is the Algorithm-1/2/3 ladder descent.
  virtual void decide(TipiNode& node, double jpi, bool record,
                      Level& cf_next, Level& uf_next);

  // Read-side accessors for subclasses (the skeleton keeps ownership).
  hal::PlatformInterface& platform() { return *platform_; }
  const FreqLadder& cf_ladder() const { return cf_ladder_; }
  const FreqLadder& uf_ladder() const { return uf_ladder_; }
  /// Levels the domains ran at during the interval decide() is judging.
  Level prev_cf() const { return prev_cf_; }
  Level prev_uf() const { return prev_uf_; }
  /// Actuation permissions after capability narrowing and quarantine
  /// (kFull-family policies adapt only the permitted domains).
  bool can_set_cf() const { return can_set_cf_; }
  bool can_set_uf() const { return can_set_uf_; }
  /// Bump ControllerStats::samples_recorded (a sample entered a table).
  void count_sample() { stats_.samples_recorded += 1; }
  /// Trace helpers shared with subclasses.
  void trace_window(TraceEvent event, const TipiNode& node, Domain domain);
  void trace_opt_found(const TipiNode& node, Domain domain);

 private:
  void apply_capabilities();
  /// Move queued arbiter grant changes into the decision trace; inline,
  /// since an unarbitrated or untraced run has none to move.
  void drain_grant_changes() {
    if (arbitrated_ != nullptr && trace_ != nullptr) record_grant_changes();
  }
  void record_grant_changes();
  void note_degradation(Domain domain, hal::CapabilitySet lost);
  void refresh_effective();
  PolicyKind runtime_narrowed_policy(bool jpi_ok) const;
  void note_quarantine(Domain domain, hal::CapabilitySet lost);
  void note_heal(Domain domain, hal::CapabilitySet regained);
  void quarantine_maintenance();
  hal::SampleOutcome sample_with_retry();
  bool try_actuate(Domain domain, Level level);
  void run_full_policy(TipiNode& node, double jpi, bool record,
                       Level& cf_next, Level& uf_next);
  void run_core_only(TipiNode& node, double jpi, bool record,
                     Level& cf_next, Level& uf_next);
  void run_uncore_only(TipiNode& node, double jpi, bool record,
                       Level& cf_next, Level& uf_next);
  void start_uf_phase(TipiNode& node, Level& uf_next);
  void set_frequencies(Level cf, Level uf);
  void trace_explore(const TipiNode& node, Domain domain,
                     const ExploreResult& result);

  hal::PlatformInterface* platform_;
  /// Non-null when the platform is an ArbitratedPlatform (discovered once
  /// at construction): its queued grant movements are drained into the
  /// decision trace each tick as budget-granted/budget-revoked records.
  hal::ArbitratedPlatform* arbitrated_ = nullptr;
  ControllerConfig cfg_;
  hal::CapabilitySet caps_;
  PolicyKind effective_;
  bool can_set_cf_ = false;
  bool can_set_uf_ = false;
  /// Capability losses found at construction, replayed into the trace by
  /// begin() (the trace sink is usually attached after construction).
  std::vector<TraceRecord> degradations_;
  TipiSlabber slabber_;
  FreqLadder cf_ladder_;
  FreqLadder uf_ladder_;
  FrequencyExplorer cf_explorer_;
  FrequencyExplorer uf_explorer_;
  BoundPropagator cf_propagator_;
  BoundPropagator uf_propagator_;
  SortedTipiList list_;
  ControllerStats stats_;

  // Fault-tolerance state (docs/FAULTS.md): per-device health, runtime
  // quarantine flags and the exploration snapshot taken on the first
  // quarantine so a full heal warm-restarts instead of re-exploring.
  hal::DeviceHealth sensor_health_;
  hal::DeviceHealth cf_health_;
  hal::DeviceHealth uf_health_;
  bool sensors_quarantined_ = false;
  bool cf_quarantined_ = false;
  bool uf_quarantined_ = false;
  int quarantined_domains_ = 0;
  ControllerSnapshot recovery_snap_;
  bool have_recovery_snap_ = false;
  bool safe_mode_ = false;

  hal::SensorTotals last_{};
  TipiNode* prev_node_ = nullptr;
  Level prev_cf_ = kNoLevel;
  Level prev_uf_ = kNoLevel;
  Level set_cf_ = kNoLevel;
  Level set_uf_ = kNoLevel;
  std::vector<TickTelemetry>* telemetry_ = nullptr;
  DecisionTrace* trace_ = nullptr;
};

}  // namespace cuttlefish::core
