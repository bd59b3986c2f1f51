#include "core/session.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <locale>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "arbiter/shm_arbiter.hpp"
#include "common/log.hpp"
#include "core/api.hpp"
#include "core/controller_factory.hpp"
#include "core/icontroller.hpp"
#include "core/daemon.hpp"
#include "core/env_config.hpp"
#include "exp/realtime.hpp"
#include "hal/arbitrated.hpp"
#include "hal/registry.hpp"
#include "sim/machine_config.hpp"

namespace cuttlefish {
namespace {

/// RealtimeSimPlatform that drives its own advance thread for the
/// platform's whole lifetime, so the registry can hand it out as an
/// ordinary backend.
class SelfDrivingSimPlatform final : public hal::PlatformInterface {
 public:
  SelfDrivingSimPlatform(const sim::MachineConfig& cfg,
                         const sim::PhaseProgram& program, double rate)
      : inner_(cfg, program, rate) {
    inner_.start();
  }
  ~SelfDrivingSimPlatform() override { inner_.stop(); }

  hal::CapabilitySet capabilities() const override {
    return inner_.capabilities();
  }
  const FreqLadder& core_ladder() const override {
    return inner_.core_ladder();
  }
  const FreqLadder& uncore_ladder() const override {
    return inner_.uncore_ladder();
  }
  FreqMHz core_frequency() const override { return inner_.core_frequency(); }
  FreqMHz uncore_frequency() const override {
    return inner_.uncore_frequency();
  }
  hal::IoOutcome apply_core_frequency(FreqMHz f) override {
    return inner_.apply_core_frequency(f);
  }
  hal::IoOutcome apply_uncore_frequency(FreqMHz f) override {
    return inner_.apply_uncore_frequency(f);
  }
  hal::SampleOutcome sample_sensors() override {
    return inner_.sample_sensors();
  }

 private:
  exp::RealtimeSimPlatform inner_;
};

/// ~30 min of alternating compute-bound and memory-bound virtual phases —
/// enough for interactive demos of the full discovery cycle.
sim::PhaseProgram demo_program() {
  sim::PhaseProgram program;
  for (int i = 0; i < 1000; ++i) {
    program.add(2e10, 1.0, 0.02);   // compute-bound stretch
    program.add(2e10, 1.2, 0.25);   // memory-bound stretch
  }
  return program;
}

/// The "sim" backend: the paper's 20-core Haswell model coupled to wall
/// clock. Negative priority keeps it out of auto-probing (it would
/// happily "work" everywhere while burning a core on emulation); select
/// it explicitly with CUTTLEFISH_BACKEND=sim or Options::backend.
void register_sim_backend() {
  static std::once_flag once;
  std::call_once(once, [] {
    hal::BackendFactory f;
    f.name = "sim";
    f.description =
        "register-accurate 20-core Haswell emulation coupled to wall "
        "clock; explicit selection only (demos, development hosts)";
    f.priority = -10;
    f.probe = [] {
      hal::ProbeResult r;
      r.available = true;
      r.caps = hal::CapabilitySet::all();
      r.detail = "always available";
      return r;
    };
    f.create = []() -> std::unique_ptr<hal::PlatformInterface> {
      return std::make_unique<SelfDrivingSimPlatform>(
          sim::haswell_2650v3(), demo_program(), /*rate=*/1.0);
    };
    hal::BackendRegistry::instance().add(std::move(f));
  });
}

/// The per-name cache a region's exit writes and a later entry replays.
struct RegionProfile {
  uint64_t entries = 0;
  uint64_t warm_starts = 0;
  bool has_snapshot = false;
  core::ControllerSnapshot snap;
};

// ---- profile JSON ----------------------------------------------------------
// Hand-rolled emitter + strict parser for the save_profiles() format (see
// docs/REGIONS.md); no third-party JSON dependency.

void json_escape(std::ostream& os, const std::string& text) {
  os << '"';
  for (const char ch : text) {
    switch (ch) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\b': os << "\\b"; break;
      case '\f': os << "\\f"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          os << buf;
        } else {
          os << ch;
        }
    }
  }
  os << '"';
}

void json_double(std::ostream& os, double value) {
  // std::to_chars: locale-independent (a host app's de_DE locale must
  // not turn 0.004 into "0,004") and shortest-round-trip, so restored
  // JPI sums equal the saved ones bit-exactly.
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  os.write(buf, res.ptr - buf);
}

void emit_domain(std::ostream& os, const core::DomainSnapshot& d) {
  os << "{\"lb\":" << d.lb << ",\"rb\":" << d.rb << ",\"opt\":" << d.opt
     << ",\"window_set\":" << (d.window_set ? "true" : "false")
     << ",\"jpi\":[";
  for (size_t i = 0; i < d.jpi.size(); ++i) {
    if (i > 0) os << ',';
    os << '[';
    json_double(os, d.jpi[i].first);
    os << ',' << d.jpi[i].second << ']';
  }
  os << "]}";
}

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> members;

  const JsonValue* find(const std::string& key) const {
    if (kind != Kind::kObject) return nullptr;
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  double num_or(double fallback) const {
    return kind == Kind::kNumber ? number : fallback;
  }
  /// Member lookup + number extraction in one scan.
  double num_member_or(const std::string& key, double fallback) const {
    const JsonValue* value = find(key);
    return value != nullptr ? value->num_or(fallback) : fallback;
  }
};

/// Range-checked double -> integer conversion for parsed JSON numbers: a
/// cast of an out-of-range double is UB, and the file is
/// attacker-/corruption-grade input. Returns false (leaving `out`
/// untouched) for non-finite, fractional-overflowing, or out-of-range
/// values.
template <typename Int>
bool json_to_int(double value, Int& out, double lo, double hi) {
  if (!(value >= lo && value <= hi)) return false;  // rejects NaN too
  out = static_cast<Int>(value);
  return true;
}

/// Strict recursive-descent parser covering exactly the JSON subset the
/// emitter above produces (objects, arrays, strings with basic escapes,
/// numbers, booleans, null).
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool consume(char ch) {
    if (pos_ < text_.size() && text_[pos_] == ch) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(const char* word) {
    const size_t len = std::char_traits<char>::length(word);
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  bool parse_value(JsonValue& out) {
    if (pos_ >= text_.size()) return false;
    // The emitter nests four levels deep; anything beyond a generous
    // bound is a hostile file trying to overflow the recursion stack.
    if (depth_ >= 64) return false;
    switch (text_[pos_]) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"':
        out.kind = JsonValue::Kind::kString;
        return parse_string(out.text);
      case 't':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = false;
        return literal("false");
      case 'n':
        out.kind = JsonValue::Kind::kNull;
        return literal("null");
      default: return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out) {
    out.kind = JsonValue::Kind::kObject;
    if (!consume('{')) return false;
    ++depth_;
    skip_ws();
    if (consume('}')) {
      --depth_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!consume(':')) return false;
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) return false;
      out.members.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (consume(',')) continue;
      --depth_;
      return consume('}');
    }
  }

  bool parse_array(JsonValue& out) {
    out.kind = JsonValue::Kind::kArray;
    if (!consume('[')) return false;
    ++depth_;
    skip_ws();
    if (consume(']')) {
      --depth_;
      return true;
    }
    while (true) {
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) return false;
      out.items.push_back(std::move(value));
      skip_ws();
      if (consume(',')) continue;
      --depth_;
      return consume(']');
    }
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (pos_ < text_.size()) {
      const char ch = text_[pos_++];
      if (ch == '"') return true;
      if (ch != '\\') {
        out.push_back(ch);
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char hex = text_[pos_++];
            code <<= 4;
            if (hex >= '0' && hex <= '9') code |= static_cast<unsigned>(hex - '0');
            else if (hex >= 'a' && hex <= 'f') code |= static_cast<unsigned>(hex - 'a' + 10);
            else if (hex >= 'A' && hex <= 'F') code |= static_cast<unsigned>(hex - 'A' + 10);
            else return false;
          }
          // The emitter only writes \u00XX control escapes; reject
          // anything that would need real UTF-16 handling.
          if (code > 0xff) return false;
          out.push_back(static_cast<char>(code));
          break;
        }
        default: return false;
      }
    }
    return false;
  }

  bool parse_number(JsonValue& out) {
    // std::from_chars is locale-independent, matching the emitter.
    const char* begin = text_.c_str() + pos_;
    const char* end = text_.c_str() + text_.size();
    const auto res = std::from_chars(begin, end, out.number);
    if (res.ec != std::errc{} || res.ptr == begin) return false;
    out.kind = JsonValue::Kind::kNumber;
    pos_ += static_cast<size_t>(res.ptr - begin);
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

/// Content validation for imported snapshots (shape is checked
/// separately). The controller trusts its own snapshots; a JSON file is
/// attacker-/corruption-grade input, so everything a CF_ASSERT downstream
/// would abort on is rejected here instead: duplicate or unsorted slabs,
/// out-of-range levels, inverted or table-less open windows, wrong-length
/// or negative/NaN JPI tables — and, against a live session, nodes whose
/// policy-primary domain is unarmed (tick() explores that domain
/// unconditionally while it is incomplete).
bool snapshot_content_ok(const core::ControllerSnapshot& snap,
                         const core::PolicyKind* live_policy) {
  const auto domain_ok = [](const core::DomainSnapshot& d, int levels) {
    const auto level_ok = [&](Level v) { return v >= kNoLevel && v < levels; };
    if (!level_ok(d.lb) || !level_ok(d.rb) || !level_ok(d.opt)) return false;
    if (d.window_set && (d.lb < 0 || d.rb < d.lb)) return false;
    if (!d.jpi.empty() && static_cast<int>(d.jpi.size()) != levels) {
      return false;
    }
    for (const core::JpiCell& cell : d.jpi) {
      if (!(cell.first >= 0.0) || cell.second < 0) return false;  // NaN too
    }
    // An open window wider than the adjacency tie-break needs its JPI
    // table to keep exploring.
    if (d.window_set && d.opt == kNoLevel && d.rb - d.lb > 1 &&
        d.jpi.empty()) {
      return false;
    }
    return true;
  };
  const auto armed = [](const core::DomainSnapshot& d) {
    return d.window_set || d.opt != kNoLevel;
  };
  int64_t prev_slab = 0;
  bool first = true;
  for (const core::NodeSnapshot& node : snap.nodes) {
    if (!first && node.slab <= prev_slab) return false;
    first = false;
    prev_slab = node.slab;
    if (!domain_ok(node.cf, snap.cf_levels) ||
        !domain_ok(node.uf, snap.uf_levels)) {
      return false;
    }
    if (live_policy != nullptr) {
      // kMpc and kMonitor impose no armed requirement: MPC re-arms
      // unarmed domains lazily on its first decide() for the node.
      if ((*live_policy == core::PolicyKind::kFull ||
           *live_policy == core::PolicyKind::kCoreOnly) &&
          !armed(node.cf)) {
        return false;
      }
      if (*live_policy == core::PolicyKind::kUncoreOnly &&
          !armed(node.uf)) {
        return false;
      }
    }
  }
  return true;
}

bool parse_domain(const JsonValue& value, core::DomainSnapshot& out) {
  if (value.kind != JsonValue::Kind::kObject) return false;
  const JsonValue* lb = value.find("lb");
  const JsonValue* rb = value.find("rb");
  const JsonValue* opt = value.find("opt");
  const JsonValue* window_set = value.find("window_set");
  const JsonValue* jpi = value.find("jpi");
  if (lb == nullptr || rb == nullptr || opt == nullptr ||
      window_set == nullptr || jpi == nullptr ||
      window_set->kind != JsonValue::Kind::kBool ||
      jpi->kind != JsonValue::Kind::kArray) {
    return false;
  }
  constexpr double kMaxLevels = 1e6;  // far beyond any real ladder
  if (!json_to_int(lb->num_or(kNoLevel), out.lb, kNoLevel, kMaxLevels) ||
      !json_to_int(rb->num_or(kNoLevel), out.rb, kNoLevel, kMaxLevels) ||
      !json_to_int(opt->num_or(kNoLevel), out.opt, kNoLevel, kMaxLevels)) {
    return false;
  }
  out.window_set = window_set->boolean;
  out.jpi.clear();
  for (const JsonValue& cell : jpi->items) {
    if (cell.kind != JsonValue::Kind::kArray || cell.items.size() != 2 ||
        cell.items[0].kind != JsonValue::Kind::kNumber ||
        cell.items[1].kind != JsonValue::Kind::kNumber) {
      return false;
    }
    int count = 0;
    if (!json_to_int(cell.items[1].number, count, 0.0, 1e9)) return false;
    out.jpi.emplace_back(cell.items[0].number, count);
  }
  return true;
}

}  // namespace

// ---- Session ---------------------------------------------------------------

struct Session::Impl {
  std::unique_ptr<hal::PlatformInterface> owned_platform;
  /// Arbitration stack (docs/ARBITER.md), present only when an arbiter
  /// was supplied or CUTTLEFISH_ARBITER named a plane. Teardown order
  /// matters: the controller stack goes first (its final
  /// restore-to-maximum writes still flow through the wrapper), then the
  /// wrapper (detaching the slot), then the owned arbiter (unmapping the
  /// plane).
  std::unique_ptr<arbiter::IArbiter> owned_arbiter;
  std::unique_ptr<hal::ArbitratedPlatform> arbitrated;
  hal::PlatformInterface* platform = nullptr;
  std::string backend_name;
  std::unique_ptr<core::Daemon> daemon;    // wall-clock mode
  std::unique_ptr<core::IController> manual;  // Options::manual_tick mode
  bool manual_armed = false;
  core::DecisionTrace* trace = nullptr;

  /// Guards the region stack and profile cache. Controller state itself
  /// is only ever touched from the daemon thread (or directly in manual
  /// mode) via with_controller(), whose handshake orders those accesses.
  mutable std::mutex mutex;

  struct Frame {
    std::string name;
    int64_t id = 0;
    /// This frame's live state, captured when a nested region suspended
    /// it; restored when that nested region exits.
    core::ControllerSnapshot suspended;
  };
  std::vector<Frame> stack;
  /// The pre-region state suspended under the outermost region.
  core::ControllerSnapshot ambient;
  std::map<std::string, RegionProfile> profiles;
  std::map<std::string, int64_t> region_ids;
  int64_t next_region_id = 1;

  bool live() const { return daemon != nullptr || manual != nullptr; }

  const core::IController* controller_ptr() const {
    if (daemon != nullptr) return &daemon->controller();
    return manual.get();
  }

  void with_controller(const std::function<void(core::IController&)>& fn) {
    if (daemon != nullptr) {
      daemon->run_on_controller(fn);
    } else if (manual != nullptr) {
      fn(*manual);
    }
  }

  int64_t id_for(const std::string& name) {
    const auto [it, inserted] = region_ids.try_emplace(name, next_region_id);
    if (inserted) ++next_region_id;
    return it->second;
  }

  void init(hal::PlatformInterface& pf,
            std::unique_ptr<hal::PlatformInterface> owned,
            std::string name, const Options& options) {
    owned_platform = std::move(owned);
    platform = &pf;
    backend_name = std::move(name);
    trace = options.trace;
    // Environment overrides (CUTTLEFISH_POLICY, CUTTLEFISH_TINV_MS, ...)
    // win over compiled-in options, mirroring the paper's build-time
    // policy flags without a rebuild.
    const core::ControllerConfig cfg =
        core::apply_env_overrides(options.controller);
    // Arbitration: an explicit Options::arbiter wins; otherwise
    // CUTTLEFISH_ARBITER may name a shared plane to join. Either way the
    // controller sees the wrapper, not the raw backend. Failure to open
    // the plane degrades to an unarbitrated session — coordination must
    // never stop the host application from starting.
    arbiter::IArbiter* arb = options.arbiter;
    if (arb == nullptr) {
      const core::ArbiterEnvConfig env_arb =
          core::apply_arbiter_env_overrides();
      if (env_arb.enabled()) {
        std::string error;
        arbiter::ArbiterConfig plane_cfg;
        plane_cfg.budget_w = env_arb.budget_w;
        plane_cfg.policy = env_arb.policy;
        owned_arbiter = arbiter::ShmArbiter::open(
            env_arb.plane_path, plane_cfg, env_arb.slots, &error);
        if (owned_arbiter == nullptr) {
          CF_LOG_WARN("session: arbiter plane unavailable (%s); "
                      "running unarbitrated",
                      error.c_str());
        }
        arb = owned_arbiter.get();
      }
    }
    if (arb != nullptr) {
      arbitrated =
          std::make_unique<hal::ArbitratedPlatform>(pf, *arb, cfg.tinv_s);
      platform = arbitrated.get();
    }
    hal::PlatformInterface& controlled = *platform;
    int pin = options.daemon_cpu;
    const unsigned hw = std::thread::hardware_concurrency();
    if (pin >= 0 && hw > 0 && pin >= static_cast<int>(hw)) {
      CF_LOG_WARN(
          "session: daemon_cpu %d is outside this host's %u CPUs; "
          "running the daemon unpinned",
          pin, hw);
      pin = -1;
    }
    if (options.manual_tick) {
      manual = core::make_controller(controlled, cfg);
      if (trace != nullptr) manual->set_trace(trace);
      if (options.telemetry != nullptr) {
        manual->set_telemetry(options.telemetry);
      }
    } else {
      daemon = std::make_unique<core::Daemon>(controlled, cfg, pin);
      if (trace != nullptr || options.telemetry != nullptr) {
        // The daemon thread is not running yet, so this attaches
        // directly — before begin() replays any degradation records.
        daemon->run_on_controller([&](core::IController& c) {
          if (trace != nullptr) c.set_trace(trace);
          if (options.telemetry != nullptr) {
            c.set_telemetry(options.telemetry);
          }
        });
      }
      daemon->start();
    }
  }
};

Session::Session() noexcept = default;

Session::Session(const Options& options) : impl_(std::make_unique<Impl>()) {
  register_sim_backend();
  std::string forced = options.backend;
  if (const char* env = std::getenv("CUTTLEFISH_BACKEND");
      env != nullptr && *env != '\0') {
    forced = env;
  }
  hal::BackendRegistry::Selection selection =
      hal::BackendRegistry::instance().select(forced);
  if (selection.platform == nullptr) {
    CF_LOG_WARN("cuttlefish session: no backend could be constructed");
    impl_.reset();
    return;
  }
  if (selection.platform->capabilities().empty()) {
    CF_LOG_WARN(
        "cuttlefish session: no usable sensors or actuators found "
        "(backend '%s'); running a degraded session that controls nothing",
        selection.name.c_str());
  }
  hal::PlatformInterface& ref = *selection.platform;
  impl_->init(ref, std::move(selection.platform), selection.name, options);
}

Session::Session(hal::PlatformInterface& platform, const Options& options)
    : impl_(std::make_unique<Impl>()) {
  impl_->init(platform, nullptr, "explicit", options);
}

Session::~Session() { stop(); }

Session::Session(Session&& other) noexcept = default;

Session& Session::operator=(Session&& other) noexcept {
  if (this != &other) {
    stop();
    impl_ = std::move(other.impl_);
  }
  return *this;
}

// The queries lock like stop() does: a concurrent stop() clears the
// Impl members they read (the old shim serialised everything under its
// global mutex; direct Session users keep that protection here).
bool Session::active() const {
  if (impl_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->live();
}

void Session::stop() {
  if (impl_ == nullptr) return;
  std::lock_guard<std::mutex> lock(impl_->mutex);
  if (!impl_->live()) return;
  if (!impl_->stack.empty()) {
    // Unwind open regions innermost-first so an interrupted kernel still
    // warm-starts next time: the innermost frame snapshots the live
    // state, outer frames keep the state captured when they were
    // suspended.
    impl_->with_controller([&](core::IController& c) {
      for (size_t i = impl_->stack.size(); i-- > 0;) {
        Impl::Frame& frame = impl_->stack[i];
        RegionProfile& prof = impl_->profiles[frame.name];
        prof.snap = (i + 1 == impl_->stack.size())
                        ? c.snapshot()
                        : std::move(frame.suspended);
        prof.has_snapshot = true;
        c.record_region_event(core::TraceEvent::kRegionExit, frame.id);
      }
    });
    impl_->stack.clear();
  }
  if (impl_->daemon != nullptr) {
    impl_->daemon->stop();
    impl_->daemon.reset();
  }
  impl_->manual.reset();
  impl_->manual_armed = false;
  impl_->arbitrated.reset();     // detaches the arbiter slot
  impl_->owned_arbiter.reset();  // unmaps the plane
  impl_->owned_platform.reset();
  impl_->platform = nullptr;
  impl_->backend_name.clear();
}

std::string Session::backend() const {
  if (impl_ == nullptr) return std::string();
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->backend_name;
}

const core::IController* Session::controller() const {
  if (impl_ == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->controller_ptr();
}

bool Session::degraded() const {
  if (impl_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(impl_->mutex);
  const core::IController* ctl = impl_->controller_ptr();
  // degraded() reads construction-time state, safe beside a live daemon.
  return ctl != nullptr && ctl->degraded();
}

void Session::tick() {
  if (impl_ == nullptr) return;
  std::lock_guard<std::mutex> lock(impl_->mutex);
  if (impl_->manual == nullptr) return;
  if (!impl_->manual_armed) {
    impl_->manual->begin();
    impl_->manual_armed = true;
    return;
  }
  impl_->manual->tick();
}

bool Session::enter_region(const std::string& name) {
  if (impl_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(impl_->mutex);
  if (!impl_->live()) return false;
  const int64_t id = impl_->id_for(name);
  RegionProfile& prof = impl_->profiles[name];
  prof.entries += 1;
  const bool warm = prof.has_snapshot;
  bool warm_ok = false;
  impl_->with_controller([&](core::IController& c) {
    core::ControllerSnapshot current = c.snapshot();
    if (impl_->stack.empty()) {
      impl_->ambient = std::move(current);
    } else {
      impl_->stack.back().suspended = std::move(current);
    }
    c.record_region_event(core::TraceEvent::kRegionEnter, id);
    if (warm) {
      warm_ok = c.restore(prof.snap);
      if (warm_ok) {
        c.record_region_event(core::TraceEvent::kRegionWarmStart, id,
                              static_cast<uint32_t>(prof.snap.nodes.size()));
      }
    } else {
      c.reset_exploration();
    }
  });
  if (warm_ok) prof.warm_starts += 1;
  impl_->stack.push_back({name, id, {}});
  return true;
}

void Session::exit_region(const std::string& name) {
  if (impl_ == nullptr) return;
  std::lock_guard<std::mutex> lock(impl_->mutex);
  if (!impl_->live()) return;  // stop() already finalised open regions
  if (impl_->stack.empty() || impl_->stack.back().name != name) {
    CF_LOG_WARN(
        "session: exit_region('%s') does not match the innermost open "
        "region ('%s'); ignored",
        name.c_str(),
        impl_->stack.empty() ? "<none>" : impl_->stack.back().name.c_str());
    return;
  }
  const Impl::Frame frame = std::move(impl_->stack.back());
  impl_->stack.pop_back();
  RegionProfile& prof = impl_->profiles[name];
  impl_->with_controller([&](core::IController& c) {
    prof.snap = c.snapshot();
    prof.has_snapshot = true;
    c.record_region_event(core::TraceEvent::kRegionExit, frame.id);
    c.restore(impl_->stack.empty() ? impl_->ambient
                                   : impl_->stack.back().suspended);
  });
}

size_t Session::region_depth() const {
  if (impl_ == nullptr) return 0;
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->stack.size();
}

std::vector<RegionProfileInfo> Session::region_profiles() const {
  std::vector<RegionProfileInfo> out;
  if (impl_ == nullptr) return out;
  std::lock_guard<std::mutex> lock(impl_->mutex);
  out.reserve(impl_->profiles.size());
  for (const auto& [name, prof] : impl_->profiles) {
    RegionProfileInfo info;
    info.name = name;
    info.entries = prof.entries;
    info.warm_starts = prof.warm_starts;
    if (prof.has_snapshot) {
      info.nodes = prof.snap.nodes.size();
      for (const core::NodeSnapshot& node : prof.snap.nodes) {
        if (node.cf.opt != kNoLevel) ++info.cf_resolved;
        if (node.uf.opt != kNoLevel) ++info.uf_resolved;
      }
    }
    out.push_back(std::move(info));
  }
  return out;
}

bool Session::save_profiles(const std::string& path) const {
  if (impl_ == nullptr) return false;
  std::ostringstream os;
  // Integer insertion honours the stream's locale; pin it to classic so
  // a host app's global locale cannot digit-group slab/tick values.
  os.imbue(std::locale::classic());
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    os << "{\"version\":1,\"regions\":[";
    bool first = true;
    for (const auto& [name, prof] : impl_->profiles) {
      if (!first) os << ',';
      first = false;
      os << "\n {\"name\":";
      json_escape(os, name);
      os << ",\"entries\":" << prof.entries
         << ",\"warm_starts\":" << prof.warm_starts
         << ",\"cached\":" << (prof.has_snapshot ? "true" : "false")
         << ",\"slab_width\":";
      json_double(os, prof.snap.slab_width);
      os << ",\"cf_levels\":" << prof.snap.cf_levels
         << ",\"uf_levels\":" << prof.snap.uf_levels
         << ",\"jpi_samples\":" << prof.snap.jpi_samples << ",\"nodes\":[";
      for (size_t i = 0; i < prof.snap.nodes.size(); ++i) {
        const core::NodeSnapshot& node = prof.snap.nodes[i];
        if (i > 0) os << ',';
        os << "\n  {\"slab\":" << node.slab << ",\"ticks\":" << node.ticks
           << ",\"cf\":";
        emit_domain(os, node.cf);
        os << ",\"uf\":";
        emit_domain(os, node.uf);
        os << '}';
      }
      os << "]}";
    }
    os << "\n]}\n";
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    CF_LOG_WARN("session: cannot write profiles to '%s'", path.c_str());
    return false;
  }
  out << os.str();
  // Flush before reporting success: a buffered write to a full disk
  // only fails at flush/close, and the destructor would discard it.
  out.flush();
  return out.good();
}

bool Session::load_profiles(const std::string& path) {
  if (impl_ == nullptr) return false;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    CF_LOG_WARN("session: cannot read profiles from '%s'", path.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  JsonValue root;
  if (!JsonParser(text).parse(root) ||
      root.kind != JsonValue::Kind::kObject) {
    CF_LOG_WARN("session: '%s' is not a valid profile JSON", path.c_str());
    return false;
  }
  const JsonValue* regions = root.find("regions");
  if (regions == nullptr || regions->kind != JsonValue::Kind::kArray) {
    CF_LOG_WARN("session: '%s' has no regions array", path.c_str());
    return false;
  }

  std::lock_guard<std::mutex> lock(impl_->mutex);
  // The live controller's shape (ladder sizes, slab width, JPI quota)
  // gates imports: profiles are machine-specific.
  core::ControllerSnapshot live_shape;
  core::PolicyKind live_policy{};
  bool have_shape = false;
  if (impl_->live()) {
    impl_->with_controller([&](core::IController& c) {
      live_shape = c.snapshot();
      live_policy = c.effective_policy();
    });
    have_shape = true;
  }

  constexpr double kMaxCounter = 9e18;  // < int64/uint64 range: cast-safe
  for (const JsonValue& region : regions->items) {
    const JsonValue* name = region.find("name");
    if (name == nullptr || name->kind != JsonValue::Kind::kString) continue;
    RegionProfile prof;
    // Counter fields are best-effort: junk values read as 0.
    json_to_int(region.num_member_or("entries", 0.0), prof.entries, 0.0,
                kMaxCounter);
    json_to_int(region.num_member_or("warm_starts", 0.0),
                prof.warm_starts, 0.0, kMaxCounter);
    const JsonValue* cached = region.find("cached");
    const JsonValue* nodes = region.find("nodes");
    if (cached != nullptr && cached->boolean && nodes != nullptr &&
        nodes->kind == JsonValue::Kind::kArray) {
      prof.snap.slab_width = region.num_member_or("slab_width", 0.0);
      if (!json_to_int(region.num_member_or("cf_levels", -1.0),
                       prof.snap.cf_levels, 0.0, 1e6) ||
          !json_to_int(region.num_member_or("uf_levels", -1.0),
                       prof.snap.uf_levels, 0.0, 1e6) ||
          !json_to_int(region.num_member_or("jpi_samples", -1.0),
                       prof.snap.jpi_samples, 0.0, 1e6)) {
        CF_LOG_WARN("session: skipping malformed profile '%s' in '%s'",
                    name->text.c_str(), path.c_str());
        continue;
      }
      if (have_shape &&
          (prof.snap.slab_width != live_shape.slab_width ||
           prof.snap.cf_levels != live_shape.cf_levels ||
           prof.snap.uf_levels != live_shape.uf_levels ||
           prof.snap.jpi_samples != live_shape.jpi_samples)) {
        CF_LOG_WARN(
            "session: skipping profile '%s' from '%s' (snapshot shape "
            "does not match this session's backend)",
            name->text.c_str(), path.c_str());
        continue;
      }
      bool nodes_ok = true;
      for (const JsonValue& node : nodes->items) {
        core::NodeSnapshot ns;
        const JsonValue* slab = node.find("slab");
        const JsonValue* cf = node.find("cf");
        const JsonValue* uf = node.find("uf");
        if (slab == nullptr || cf == nullptr || uf == nullptr ||
            !json_to_int(slab->num_or(0.0), ns.slab, -kMaxCounter,
                         kMaxCounter) ||
            !json_to_int(node.num_member_or("ticks", 0.0), ns.ticks, 0.0,
                         kMaxCounter) ||
            !parse_domain(*cf, ns.cf) || !parse_domain(*uf, ns.uf)) {
          nodes_ok = false;
          break;
        }
        prof.snap.nodes.push_back(std::move(ns));
      }
      if (!nodes_ok ||
          !snapshot_content_ok(prof.snap,
                               have_shape ? &live_policy : nullptr)) {
        CF_LOG_WARN("session: skipping malformed profile '%s' in '%s'",
                    name->text.c_str(), path.c_str());
        continue;
      }
      prof.has_snapshot = true;
    }
    impl_->profiles[name->text] = std::move(prof);
  }
  return true;
}

// ---- shim-level backend listing -------------------------------------------

std::vector<BackendStatus> list_backends() {
  register_sim_backend();
  std::vector<BackendStatus> out;
  for (const hal::BackendRegistry::ProbedBackend& row :
       hal::BackendRegistry::instance().probe_all()) {
    BackendStatus status;
    status.name = row.name;
    status.description = row.description;
    status.priority = row.priority;
    status.available = row.probe.available;
    status.capabilities =
        row.probe.available ? row.probe.caps.to_string() : std::string("-");
    status.detail = row.probe.detail;
    status.auto_selected = row.auto_selected;
    out.push_back(std::move(status));
  }
  return out;
}

}  // namespace cuttlefish
