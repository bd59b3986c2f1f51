#pragma once

#include <optional>
#include <string>

#include "arbiter/arbiter.hpp"
#include "core/config.hpp"

namespace cuttlefish::core {

/// Environment-variable overrides for ControllerConfig. The paper ships
/// the -Core/-Uncore variants as build-time flags; a deployed library
/// wants the same switches without rebuilding, so cuttlefish::start()
/// applies these on top of the caller-provided Options:
///
///   CUTTLEFISH_POLICY        full | core | uncore | monitor | mpc
///   CUTTLEFISH_TINV_MS       profiling interval in milliseconds
///                            (0 < ms <= 1e12)
///   CUTTLEFISH_WARMUP_S      warm-up duration in seconds (0 <= s <= 1e9)
///   CUTTLEFISH_JPI_SAMPLES   readings per frequency, a whole number in
///                            1..1000000
///   CUTTLEFISH_SLAB_WIDTH    TIPI slab width (finite, > 0)
///   CUTTLEFISH_NARROWING     0/1: §4.4 insertion narrowing
///   CUTTLEFISH_REVALIDATION  0/1: §4.5 revalidation propagation
///
/// Backend selection (CUTTLEFISH_BACKEND, plus the probe-root overrides
/// CUTTLEFISH_MSR_ROOT / CUTTLEFISH_POWERCAP_ROOT /
/// CUTTLEFISH_CPUFREQ_ROOT) is handled where the platform is chosen:
/// cuttlefish::start() and hal/registry.cpp.
///
/// Numbers must be finite, and the durations bounded so the daemon's
/// nanosecond clocks cannot overflow. Malformed values are rejected with
/// a warning and the previous value is kept — a bad environment must
/// never break the host application.
ControllerConfig apply_env_overrides(ControllerConfig base);

/// Node-local power-arbiter attachment, resolved from the environment
/// (docs/ARBITER.md). A session whose environment names a coordination
/// plane joins it at start():
///
///   CUTTLEFISH_ARBITER           path of the shared-memory plane file;
///                                empty/unset: no arbitration
///   CUTTLEFISH_ARBITER_BUDGET_W  node power budget in watts (finite, > 0);
///                                used only when this session creates the
///                                plane (an existing file's header wins)
///   CUTTLEFISH_ARBITER_POLICY    equal | demand (share policy; same
///                                creator-only rule as the budget)
///   CUTTLEFISH_ARBITER_SLOTS     max co-tenant slots, a whole number in
///                                1..4096 (default 16; creator-only, like
///                                the budget)
struct ArbiterEnvConfig {
  std::string plane_path;  // empty: arbitration disabled
  double budget_w = 0.0;   // <= 0: uncapped (registration/telemetry only)
  arbiter::SharePolicy policy = arbiter::SharePolicy::kEqualShare;
  int slots = 16;

  bool enabled() const { return !plane_path.empty(); }
};

/// Read the CUTTLEFISH_ARBITER* variables over `base`. Malformed values
/// warn and keep the previous value, like apply_env_overrides().
ArbiterEnvConfig apply_arbiter_env_overrides(ArbiterEnvConfig base = {});

/// Parsing helpers, shared with cuttlefishctl's arguments. Each takes the
/// whole string: trailing text ("8x", "2.5ms") is malformed.
std::optional<PolicyKind> parse_policy(const std::string& text);
/// A finite number > 0.
std::optional<double> parse_positive_double(const std::string& text);
/// A whole number in [lo, hi] ("8" and "8.0" are whole, "2.5" is not),
/// range-checked before any cast.
std::optional<int> parse_int_in_range(const std::string& text, int lo,
                                      int hi);
std::optional<bool> parse_bool(const std::string& text);
std::optional<arbiter::SharePolicy> parse_share_policy(
    const std::string& text);

}  // namespace cuttlefish::core
