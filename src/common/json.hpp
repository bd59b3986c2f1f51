#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/// The one JSON module: a string quoter and a number writer for every file
/// the project emits (session profiles, the BENCH_*.json artifacts), and a
/// strict parser for the files it reads back (profiles, micro_sweep's
/// --baseline). No third-party dependency.
namespace cuttlefish::json {

/// `text` as a JSON string literal, quotes included: `"` and `\` are
/// escaped, control bytes become \b \f \n \r \t or \u00XX, and every other
/// byte (UTF-8 included) is copied as is.
std::string quote(std::string_view text);

/// The shortest decimal that parses back to the same double
/// (std::to_chars: locale-independent, so a host application's de_DE
/// locale cannot turn 0.004 into "0,004"). `null` for infinities and NaN,
/// which JSON cannot represent.
std::string number(double value);

/// `value` with `precision` (>= 0) digits after the point, as printf's
/// %.*f writes it in the C locale; `null` for infinities and NaN.
std::string number(double value, int precision);

/// A parsed document node.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<Value> items;
  std::vector<std::pair<std::string, Value>> members;

  /// The member named `key`; nullptr when absent or not an object.
  const Value* find(std::string_view key) const;
  double num_or(double fallback) const {
    return kind == Kind::kNumber ? number : fallback;
  }
  /// Member lookup + number extraction in one scan.
  double num_member_or(std::string_view key, double fallback) const {
    const Value* value = find(key);
    return value != nullptr ? value->num_or(fallback) : fallback;
  }
};

/// Strict recursive-descent parse of a whole document: objects, arrays,
/// strings, numbers, booleans and null, with nothing but whitespace after
/// the value. Strings take the escapes quote() writes plus \/ and \u00XX
/// (no \u above 0xff: nothing here needs UTF-16), and nesting stops at 64
/// levels so a hostile file cannot overflow the stack. nullopt on any
/// error.
std::optional<Value> parse(std::string_view text);

/// Range-checked double -> integer conversion for parsed numbers: a cast of
/// an out-of-range double is UB, and a file on disk is corruption-grade
/// input. Returns false (leaving `out` untouched) unless lo <= value <= hi,
/// which rejects NaN too.
template <typename Int>
bool to_int(double value, Int& out, double lo, double hi) {
  if (!(value >= lo && value <= hi)) return false;
  out = static_cast<Int>(value);
  return true;
}

}  // namespace cuttlefish::json
