#pragma once

#include <limits>

#include "common/tipi.hpp"
#include "hal/health.hpp"

/// Controller configuration, split from core/controller.hpp so the
/// user-facing headers (core/api.hpp, core/session.hpp) can carry an
/// Options value without dragging in the controller's internal machinery
/// (TIPI list, explorer, HAL platform).
namespace cuttlefish::core {

/// Which exploration strategy the controller runs and which frequency
/// domains it adapts (paper §5): the full library adapts both; the -Core
/// and -Uncore build variants pin the other domain at its maximum.
/// kMonitor profiles TIPI/JPI without exploring or actuating — the
/// terminal degradation when the backend lacks the sensors or actuators a
/// policy needs (it can also be requested explicitly for pure profiling
/// sessions). kMpc replaces the ladder descent with a model-predictive
/// strategy (core/controller_mpc.hpp): fit a per-phase plant model from a
/// few design-point JPI measurements, actuate the predicted optimum after
/// a bounded verification probe. New kinds register in
/// core/controller_factory.hpp; existing enum values are stable (they are
/// serialized into spec digests and profile files).
enum class PolicyKind { kFull, kCoreOnly, kUncoreOnly, kMonitor, kMpc };

const char* to_string(PolicyKind kind);

struct ControllerConfig {
  PolicyKind policy = PolicyKind::kFull;
  /// Profiling interval. 20 ms is the paper's default (Table 3 sweeps
  /// 10/20/40/60 ms).
  double tinv_s = 0.020;
  /// Cold-cache warm-up before the daemon loop engages (§4.1).
  double warmup_s = 2.0;
  /// Readings averaged per frequency before a JPI "exists" (§4.3).
  int jpi_samples = 10;
  /// TIPI quantisation slab width (§3.2).
  double tipi_slab_width = TipiSlabber::kPaperSlabWidth;
  /// Exploration stride in ladder levels ("steps of two", §4.3).
  int explore_step = 2;
  /// §4.4 neighbour narrowing at window initialisation (ablatable).
  bool insertion_narrowing = true;
  /// §4.5 revalidation propagation (ablatable).
  bool revalidation = true;
  /// kMpc only: design points measured per domain before the plant model
  /// is fit (spread across the ladder, endpoints included).
  int mpc_design_points = 4;
  /// kMpc only: the verification probe accepts the predicted optimum when
  /// its measured JPI is within (1 + margin) of the best design point;
  /// otherwise the controller falls back to the best measured level.
  double mpc_verify_margin = 0.02;
  /// Fault tolerance (docs/FAULTS.md): in-call retry budget, quarantine
  /// threshold and probe backoff for the per-device health trackers.
  hal::RetryPolicy resilience;
  /// Daemon watchdog: a tick is an overrun when its wall time exceeds
  /// tinv_s * watchdog_overrun_factor; after `watchdog_overrun_limit`
  /// consecutive overruns (or `watchdog_exception_limit` controller
  /// exceptions) the daemon safe-stops the controller into monitor mode
  /// instead of letting a wedged backend starve the host.
  double watchdog_overrun_factor = 1.0;
  int watchdog_overrun_limit = 8;
  int watchdog_exception_limit = 3;

  bool operator==(const ControllerConfig&) const = default;
};

/// The most §4.1 warm-up quanta a (tinv_s, warmup_s) pair may ask for:
/// half of INT_MAX, so the quantum-by-quantum sum's rounding drift (a few
/// hundred quanta at this count) cannot overflow the co-simulation's int.
inline constexpr double kMaxWarmupQuanta = std::numeric_limits<int>::max() / 2;

/// A positive Tinv, and at most kMaxWarmupQuanta quanta in the warm-up.
inline bool warmup_count_fits(double tinv_s, double warmup_s) {
  return tinv_s > 0.0 && (warmup_s + 1e-12) / tinv_s <= kMaxWarmupQuanta;
}

}  // namespace cuttlefish::core
