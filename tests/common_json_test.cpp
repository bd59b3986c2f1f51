// The one JSON module: quote() and number() must round-trip through
// parse() exactly, parse() must reject what is not a whole document, and
// no damaged session profile may take load_profiles() (or the warm start
// that replays it) down with an abort.

#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "core/icontroller.hpp"
#include "core/region.hpp"
#include "core/session.hpp"
#include "exp/record_file.hpp"
#include "sim/machine_config.hpp"
#include "sim/sim_machine.hpp"
#include "sim/sim_platform.hpp"

namespace cuttlefish {
namespace {

uint64_t bits_of(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double round_trip(double v) {
  const auto parsed = json::parse(json::number(v));
  EXPECT_TRUE(parsed.has_value()) << json::number(v);
  if (!parsed) return std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(parsed->kind, json::Value::Kind::kNumber);
  return parsed->number;
}

TEST(Json, QuoteThenParseKeepsEveryByte) {
  std::string all;
  for (int b = 0; b < 256; ++b) {
    const std::string one(1, static_cast<char>(b));
    const auto parsed = json::parse(json::quote(one));
    ASSERT_TRUE(parsed.has_value()) << "byte " << b;
    EXPECT_EQ(parsed->kind, json::Value::Kind::kString);
    EXPECT_EQ(parsed->text, one) << "byte " << b;
    all += one;
  }
  const auto parsed = json::parse(json::quote(all));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->text, all);
  // The escapes profiles have always been written with.
  EXPECT_EQ(json::quote(std::string("\"\\\b\f\n\r\t\x01\x1f\x7f", 10)),
            "\"\\\"\\\\\\b\\f\\n\\r\\t\\u0001\\u001f\x7f\"");
}

TEST(Json, NumberRoundTripsBitExactly) {
  std::vector<double> values = {0.0,          -0.0,          DBL_MAX,
                                -DBL_MAX,     DBL_MIN,       -DBL_MIN,
                                DBL_TRUE_MIN, -DBL_TRUE_MIN, DBL_MIN / 3.0,
                                0.004,        1e21,          1.0 / 3.0};
  std::mt19937_64 rng(2021);
  while (values.size() < 100000) {
    const uint64_t bits = rng();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    if (std::isfinite(v)) values.push_back(v);
  }
  for (const double v : values) {
    ASSERT_EQ(bits_of(round_trip(v)), bits_of(v)) << json::number(v);
  }
  EXPECT_EQ(json::number(0.004), "0.004");
  EXPECT_EQ(json::number(-0.0), "-0");
}

TEST(Json, NonFiniteNumbersAreNull) {
  for (const double v : {std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(json::number(v), "null");
    EXPECT_EQ(json::number(v, 3), "null");
  }
}

TEST(Json, FixedPrecisionMatchesPrintf) {
  // BENCH artifacts keep their bytes: number(v, p) is %.*f in the C locale.
  std::mt19937_64 rng(7);
  std::vector<double> values = {0.0, -0.0, 0.5, 1.5, 2.5, -0.0004, 1e300,
                                DBL_MAX, -DBL_MAX, DBL_TRUE_MIN};
  while (values.size() < 5000) {
    const uint64_t bits = rng();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    if (std::isfinite(v)) values.push_back(v);
    values.push_back(std::ldexp(static_cast<double>(rng() >> 11), -30));
  }
  std::vector<char> buf(400);
  for (const double v : values) {
    for (int precision = 0; precision <= 6; ++precision) {
      std::snprintf(buf.data(), buf.size(), "%.*f", precision, v);
      ASSERT_EQ(json::number(v, precision), buf.data());
    }
  }
}

TEST(Json, ParseRejectsMalformedDocuments) {
  for (const char* bad :
       {"", " ", "{\"a\":1} x", "1 2", "[1,]", "{\"a\"}", "{\"a\":}", "[1",
        "\"abc", "\"abc\\", "\"\\x\"", "\"\\u00zz\"", "\"\\u0100\"",
        "\"\\u12\"", "tru", "nul", "{1:2}"}) {
    EXPECT_FALSE(json::parse(bad).has_value()) << bad;
  }
  const auto ok = json::parse(
      " {\"s\":\"\\u00ff\\/\",\"n\":[-1.5e3,0],\"b\":false,\"z\":null} ");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->find("s")->text, "\xff/");
  EXPECT_EQ(ok->find("n")->items[0].number, -1500.0);
  EXPECT_EQ(ok->num_member_or("b", 7.0), 7.0);  // not a number
  EXPECT_EQ(ok->find("z")->kind, json::Value::Kind::kNull);
  EXPECT_EQ(ok->find("missing"), nullptr);
}

TEST(Json, NestingStopsAt64Levels) {
  const auto nested = [](int depth) {
    return std::string(static_cast<size_t>(depth), '[') +
           std::string(static_cast<size_t>(depth), ']');
  };
  EXPECT_TRUE(json::parse(nested(64)).has_value());
  EXPECT_FALSE(json::parse(nested(65)).has_value());
  EXPECT_FALSE(json::parse(nested(100000)).has_value());
}

TEST(Json, ToIntChecksRangeBeforeTheCast) {
  int out = 7;
  EXPECT_FALSE(json::to_int(1e10, out, 0.0, 1e6));
  EXPECT_FALSE(json::to_int(std::nan(""), out, 0.0, 1e6));
  EXPECT_EQ(out, 7);
  EXPECT_TRUE(json::to_int(42.0, out, 0.0, 1e6));
  EXPECT_EQ(out, 42);
}

/// A manual-tick session on the simulated Haswell running one steady
/// kernel: the live shape every damaged profile is loaded against.
struct LiveSession {
  sim::MachineConfig machine = sim::haswell_2650v3();
  sim::PhaseProgram program;
  sim::SimMachine sim;
  sim::SimPlatform platform;
  Session session;

  LiveSession()
      : program(sim::PhaseProgram().add(1.5e12, 1.0, 0.025)),
        sim(machine, program, 1),
        platform(sim) {
    Options options;
    options.manual_tick = true;
    session = Session(platform, options);
    session.tick();  // arm
  }

  void run(int ticks) {
    const double tinv = session.controller()->config().tinv_s;
    for (int i = 0; i < ticks && !sim.workload_done(); ++i) {
      sim.advance(tinv);
      session.tick();
    }
  }
};

class QuietLog {
 public:
  QuietLog() : saved_(log_level()) { set_log_level(LogLevel::kError); }
  ~QuietLog() { set_log_level(saved_); }

 private:
  LogLevel saved_;
};

TEST(Json, DamagedProfilesLoadOrAreRejected) {
  const std::string path = "common_json_profile.json";
  std::string good;
  {
    LiveSession live;
    {
      Region region(live.session, "k");
      live.run(40);
    }
    ASSERT_TRUE(live.session.save_profiles(path));
    ASSERT_TRUE(exp::read_file(path, &good));
  }
  ASSERT_LT(good.size(), 1024u) << "keep the profile small";
  ASSERT_NE(good.find("\"jpi\":[["), std::string::npos)
      << "the profile should hold a JPI table to damage";

  const QuietLog quiet;
  size_t loaded = 0, rejected = 0;
  const auto feed = [&](const std::string& bytes) {
    ASSERT_TRUE(exp::write_file_atomic(path, bytes));
    LiveSession live;
    if (!live.session.load_profiles(path)) {
      ++rejected;
      return;
    }
    ++loaded;
    // Replay whatever was imported: the warm start is where content a
    // loader let through would trip the controller's asserts.
    for (const RegionProfileInfo& info : live.session.region_profiles()) {
      Region region(live.session, info.name);
      live.run(3);
    }
  };
  feed(good);
  EXPECT_EQ(loaded, 1u);
  for (size_t len = 0; len < good.size(); ++len) feed(good.substr(0, len));
  for (size_t i = 0; i < good.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bytes = good;
      bytes[i] = static_cast<char>(bytes[i] ^ (1 << bit));
      feed(bytes);
    }
  }
  std::remove(path.c_str());
  EXPECT_GT(loaded, 1u);
  EXPECT_GT(rejected, good.size());  // at least every truncation
}

}  // namespace
}  // namespace cuttlefish
