#include "core/env_config.hpp"

#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/log.hpp"

namespace cuttlefish::core {

namespace {

/// The longest Tinv or warm-up the environment may set, in seconds: the
/// daemon converts both to int64 nanoseconds, which overflow near 9.2e9 s.
constexpr double kMaxDurationS = 1e9;
/// The shortest Tinv the environment may set, in milliseconds (1 µs): the
/// paper's 2 s warm-up is then 2e6 quanta. Far shorter ones overflow the
/// co-simulation's int warm-up count or stop advancing its clock.
constexpr double kMinTinvMs = 0.001;
constexpr double kMinPositive = std::numeric_limits<double>::denorm_min();

std::optional<std::string> env(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return std::nullopt;
  return std::string(value);
}

template <typename T, typename Parser, typename Apply>
void override_from(const char* name, Parser parse, Apply apply) {
  const auto text = env(name);
  if (!text) return;
  const std::optional<T> parsed = parse(*text);
  if (!parsed) {
    CF_LOG_WARN("ignoring malformed %s='%s'", name, text->c_str());
    return;
  }
  apply(*parsed);
}

/// The whole of `text` as a number in [lo, hi] (finite bounds, so NaN and
/// the infinities are malformed too).
std::optional<double> parse_in(const std::string& text, double lo,
                               double hi) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !(value >= lo && value <= hi)) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

std::optional<PolicyKind> parse_policy(const std::string& text) {
  if (text == "full" || text == "Full" || text == "cuttlefish") {
    return PolicyKind::kFull;
  }
  if (text == "core" || text == "Core") return PolicyKind::kCoreOnly;
  if (text == "uncore" || text == "Uncore") return PolicyKind::kUncoreOnly;
  if (text == "monitor" || text == "Monitor") return PolicyKind::kMonitor;
  if (text == "mpc" || text == "Mpc" || text == "MPC") return PolicyKind::kMpc;
  return std::nullopt;
}

std::optional<double> parse_positive_double(const std::string& text) {
  return parse_in(text, kMinPositive, std::numeric_limits<double>::max());
}

std::optional<int> parse_int_in_range(const std::string& text, int lo,
                                      int hi) {
  // Range and wholeness are checked on the double: casting first is UB
  // for values an int cannot hold.
  const auto value = parse_in(text, lo, hi);
  if (!value || *value != std::floor(*value)) return std::nullopt;
  return static_cast<int>(*value);
}

std::optional<bool> parse_bool(const std::string& text) {
  if (text == "0" || text == "false" || text == "off") return false;
  if (text == "1" || text == "true" || text == "on") return true;
  return std::nullopt;
}

std::optional<arbiter::SharePolicy> parse_share_policy(
    const std::string& text) {
  return arbiter::share_policy_from_string(text);
}

ControllerConfig apply_env_overrides(ControllerConfig base) {
  const double tinv_s = base.tinv_s;
  const double warmup_s = base.warmup_s;
  override_from<PolicyKind>("CUTTLEFISH_POLICY", parse_policy,
                            [&](PolicyKind p) { base.policy = p; });
  override_from<double>(
      "CUTTLEFISH_TINV_MS",
      [](const std::string& t) {
        return parse_in(t, kMinTinvMs, kMaxDurationS * 1000.0);
      },
      [&](double ms) { base.tinv_s = ms / 1000.0; });
  // Zero warm-up is legitimate (tests, steady workloads).
  override_from<double>(
      "CUTTLEFISH_WARMUP_S",
      [](const std::string& t) { return parse_in(t, 0.0, kMaxDurationS); },
      [&](double s) { base.warmup_s = s; });
  // Each duration passes its own bound, but the pair must also keep the
  // warm-up count countable, or the co-simulation refuses it and the
  // host aborts: keep the caller's pair instead.
  if ((base.tinv_s != tinv_s || base.warmup_s != warmup_s) &&
      !warmup_count_fits(base.tinv_s, base.warmup_s)) {
    CF_LOG_WARN(
        "ignoring CUTTLEFISH_TINV_MS/CUTTLEFISH_WARMUP_S: Tinv %g s with "
        "warm-up %g s is more than %g warm-up quanta; keeping Tinv %g s "
        "and warm-up %g s",
        base.tinv_s, base.warmup_s, kMaxWarmupQuanta, tinv_s, warmup_s);
    base.tinv_s = tinv_s;
    base.warmup_s = warmup_s;
  }
  override_from<int>(
      "CUTTLEFISH_JPI_SAMPLES",
      [](const std::string& t) { return parse_int_in_range(t, 1, 1000000); },
      [&](int n) { base.jpi_samples = n; });
  override_from<double>("CUTTLEFISH_SLAB_WIDTH", parse_positive_double,
                        [&](double w) { base.tipi_slab_width = w; });
  override_from<bool>("CUTTLEFISH_NARROWING", parse_bool,
                      [&](bool b) { base.insertion_narrowing = b; });
  override_from<bool>("CUTTLEFISH_REVALIDATION", parse_bool,
                      [&](bool b) { base.revalidation = b; });
  return base;
}

ArbiterEnvConfig apply_arbiter_env_overrides(ArbiterEnvConfig base) {
  // The plane path is a filename, not a parsed value: any non-empty
  // string is taken verbatim (open() produces the real diagnostics).
  if (const auto path = env("CUTTLEFISH_ARBITER")) base.plane_path = *path;
  override_from<double>("CUTTLEFISH_ARBITER_BUDGET_W",
                        parse_positive_double,
                        [&](double w) { base.budget_w = w; });
  override_from<arbiter::SharePolicy>("CUTTLEFISH_ARBITER_POLICY",
                                      parse_share_policy,
                                      [&](arbiter::SharePolicy p) {
                                        base.policy = p;
                                      });
  // Within the plane's slot-table bounds.
  override_from<int>(
      "CUTTLEFISH_ARBITER_SLOTS",
      [](const std::string& t) { return parse_int_in_range(t, 1, 4096); },
      [&](int n) { base.slots = n; });
  return base;
}

}  // namespace cuttlefish::core
