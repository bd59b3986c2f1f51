#include "common/json.hpp"

#include <charconv>
#include <cmath>

namespace cuttlefish::json {

std::string quote(std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out = "\"";
  out.reserve(text.size() + 2);
  for (const char ch : text) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          out += "\\u00";
          out += kHex[ch >> 4];
          out += kHex[ch & 0xf];
        } else {
          out += ch;
        }
    }
  }
  out += '"';
  return out;
}

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

std::string number(double value, int precision) {
  if (!std::isfinite(value)) return "null";
  // DBL_MAX has 309 integer digits; add the sign, point and fraction.
  std::string out(312 + static_cast<size_t>(precision), '\0');
  const auto res = std::to_chars(out.data(), out.data() + out.size(), value,
                                 std::chars_format::fixed, precision);
  out.resize(static_cast<size_t>(res.ptr - out.data()));
  return out;
}

const Value* Value::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  /// One value with nothing but whitespace around it.
  std::optional<Value> document() {
    Value root;
    skip_ws();
    if (!parse_value(root)) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;
    return root;
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
  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool parse_value(Value& out) {
    if (pos_ >= text_.size()) return false;
    // Real documents nest a few levels deep; anything beyond a generous
    // bound is a hostile file trying to overflow the recursion stack.
    if (depth_ >= 64) return false;
    switch (text_[pos_]) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"':
        out.kind = Value::Kind::kString;
        return parse_string(out.text);
      case 't':
        out.kind = Value::Kind::kBool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.kind = Value::Kind::kBool;
        out.boolean = false;
        return literal("false");
      case 'n':
        out.kind = Value::Kind::kNull;
        return literal("null");
      default: return parse_number(out);
    }
  }

  /// `open` element (`,` element)* `close`, or just `open` `close`.
  template <typename Element>
  bool parse_list(char open, char close, Element element) {
    if (!consume(open)) return false;
    ++depth_;
    skip_ws();
    if (!consume(close)) {
      do {
        skip_ws();
        if (!element()) return false;
        skip_ws();
      } while (consume(','));
      if (!consume(close)) return false;
    }
    --depth_;
    return true;
  }

  bool parse_object(Value& out) {
    out.kind = Value::Kind::kObject;
    return parse_list('{', '}', [&] {
      std::string key;
      Value value;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!consume(':')) return false;
      skip_ws();
      if (!parse_value(value)) return false;
      out.members.emplace_back(std::move(key), std::move(value));
      return true;
    });
  }

  bool parse_array(Value& out) {
    out.kind = Value::Kind::kArray;
    return parse_list('[', ']', [&] {
      Value value;
      if (!parse_value(value)) return false;
      out.items.push_back(std::move(value));
      return true;
    });
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
          // quote() only writes \u00XX control escapes; reject anything
          // that would need real UTF-16 handling.
          const char* hex = text_.data() + pos_;
          unsigned code = 0;
          if (pos_ + 4 > text_.size() ||
              std::from_chars(hex, hex + 4, code, 16).ptr != hex + 4 ||
              code > 0xff) {
            return false;
          }
          pos_ += 4;
          out.push_back(static_cast<char>(code));
          break;
        }
        default: return false;
      }
    }
    return false;
  }

  bool parse_number(Value& out) {
    // std::from_chars is locale-independent, matching number().
    const char* begin = text_.data() + pos_;
    const char* end = text_.data() + text_.size();
    const auto res = std::from_chars(begin, end, out.number);
    if (res.ec != std::errc{} || res.ptr == begin) return false;
    out.kind = Value::Kind::kNumber;
    pos_ += static_cast<size_t>(res.ptr - begin);
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

std::optional<Value> parse(std::string_view text) {
  return Parser(text).document();
}

}  // namespace cuttlefish::json
