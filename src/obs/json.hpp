// The JSON vocabulary shared by every obs artifact writer and reader
// (report, profile, audit bundle, registry dump, log records, Chrome
// trace): one string escaper, one number policy, one UTC timestamp
// format, and a minimal recursive-descent reader with typed field access.
// Header-only, no external dependency. Deliberately NOT installed under
// include/ — the public surface is the parse_*/write_* functions of each
// artifact; this is the plumbing that keeps them agreeing.
//
// Number policy: finite doubles are written as %.17g, which reads back
// bit-exact. JSON has no NaN/Inf literals, so non-finite values are
// written as the strings "nan", "inf" and "-inf"; the typed readers
// decode them back. Integer literals are also kept as exact int64, so
// counters above 2^53 survive a round trip.
#pragma once

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "gridsec/util/error.hpp"

namespace gridsec::obs::json {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  bool is_integer = false;  // number token was an int64-range integer
  std::int64_t integer = 0;  // exact value when is_integer
  std::string string;
  std::vector<JsonValue> array;
  // Map keeps insertion order irrelevant; artifact keys are unique.
  std::map<std::string, JsonValue> object;

  [[nodiscard]] const JsonValue* find(const std::string& key) const {
    if (kind != Kind::kObject) return nullptr;
    const auto it = object.find(key);
    return it != object.end() ? &it->second : nullptr;
  }

  /// The number, including the quoted non-finite forms; `fallback` for
  /// any other kind.
  [[nodiscard]] double number_or(double fallback) const {
    if (kind == Kind::kNumber) return number;
    if (kind == Kind::kString) {
      if (string == "nan") return std::numeric_limits<double>::quiet_NaN();
      if (string == "inf") return std::numeric_limits<double>::infinity();
      if (string == "-inf") return -std::numeric_limits<double>::infinity();
    }
    return fallback;
  }
  /// The exact integer for integer tokens; other numbers truncate when
  /// they fit in int64. `fallback` otherwise.
  [[nodiscard]] std::int64_t int_or(std::int64_t fallback) const {
    if (kind != Kind::kNumber) return fallback;
    if (is_integer) return integer;
    if (!(std::abs(number) < 9.2e18)) return fallback;
    return static_cast<std::int64_t>(number);
  }
  [[nodiscard]] std::string string_or(std::string fallback) const {
    return kind == Kind::kString ? string : std::move(fallback);
  }
  [[nodiscard]] bool bool_or(bool fallback) const {
    return kind == Kind::kBool ? boolean : fallback;
  }

  /// Typed member readers: the member's value, or `fallback` when the
  /// member is absent or of another kind.
  [[nodiscard]] double number_field(const std::string& key,
                                    double fallback = 0.0) const {
    const JsonValue* v = find(key);
    return v != nullptr ? v->number_or(fallback) : fallback;
  }
  [[nodiscard]] std::int64_t int_field(const std::string& key,
                                       std::int64_t fallback = 0) const {
    const JsonValue* v = find(key);
    return v != nullptr ? v->int_or(fallback) : fallback;
  }
  [[nodiscard]] std::string string_field(const std::string& key,
                                         std::string fallback = "") const {
    const JsonValue* v = find(key);
    return v != nullptr ? v->string_or(std::move(fallback))
                        : std::move(fallback);
  }
  [[nodiscard]] bool bool_field(const std::string& key,
                                bool fallback = false) const {
    const JsonValue* v = find(key);
    return v != nullptr ? v->bool_or(fallback) : fallback;
  }
  /// The member's elements; empty when absent or not an array.
  [[nodiscard]] const std::vector<JsonValue>& array_field(
      const std::string& key) const {
    static const std::vector<JsonValue> kEmpty;
    const JsonValue* v = find(key);
    return v != nullptr && v->kind == Kind::kArray ? v->array : kEmpty;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  StatusOr<JsonValue> parse() {
    JsonValue v;
    const Status st = parse_value(&v);
    if (!st.is_ok()) return st;
    skip_ws();
    if (pos_ != text_.size()) {
      return error("trailing characters after JSON value");
    }
    return v;
  }

 private:
  Status parse_value(JsonValue* out) {
    skip_ws();
    if (pos_ >= text_.size()) return error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"': out->kind = JsonValue::Kind::kString;
                return parse_string(&out->string);
      case 't': return parse_literal("true", out, true);
      case 'f': return parse_literal("false", out, false);
      case 'n':
        if (text_.compare(pos_, 4, "null") == 0) {
          pos_ += 4;
          out->kind = JsonValue::Kind::kNull;
          return Status::ok();
        }
        return error("bad literal");
      default: return parse_number(out);
    }
  }

  Status parse_literal(const char* word, JsonValue* out, bool value) {
    const std::size_t n = std::strlen(word);
    if (text_.compare(pos_, n, word) != 0) return error("bad literal");
    pos_ += n;
    out->kind = JsonValue::Kind::kBool;
    out->boolean = value;
    return Status::ok();
  }

  Status parse_number(JsonValue* out) {
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin) return error("malformed number");
    out->kind = JsonValue::Kind::kNumber;
    out->number = v;
    const std::string_view token(begin, static_cast<std::size_t>(end - begin));
    if (token.find_first_of(".eE") == std::string_view::npos) {
      errno = 0;
      char* int_end = nullptr;
      const long long i = std::strtoll(begin, &int_end, 10);
      out->is_integer = errno == 0 && int_end == end;
      out->integer = i;
    }
    pos_ += static_cast<std::size_t>(end - begin);
    return Status::ok();
  }

  Status parse_string(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::ok();
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return error("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
            else return error("bad \\u escape");
          }
          // Our writers only emit \u for control characters; keep it simple.
          out->push_back(static_cast<char>(code & 0x7f));
          break;
        }
        default: return error("unknown escape");
      }
    }
    return error("unterminated string");
  }

  Status parse_array(JsonValue* out) {
    ++pos_;  // '['
    out->kind = JsonValue::Kind::kArray;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return Status::ok();
    }
    while (true) {
      JsonValue element;
      const Status st = parse_value(&element);
      if (!st.is_ok()) return st;
      out->array.push_back(std::move(element));
      skip_ws();
      if (pos_ >= text_.size()) return error("unterminated array");
      const char c = text_[pos_++];
      if (c == ']') return Status::ok();
      if (c != ',') return error("expected ',' or ']' in array");
    }
  }

  Status parse_object(JsonValue* out) {
    ++pos_;  // '{'
    out->kind = JsonValue::Kind::kObject;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return Status::ok();
    }
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return error("expected object key");
      }
      std::string key;
      Status st = parse_string(&key);
      if (!st.is_ok()) return st;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_++] != ':') {
        return error("expected ':' after object key");
      }
      JsonValue value;
      st = parse_value(&value);
      if (!st.is_ok()) return st;
      out->object.emplace(std::move(key), std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return error("unterminated object");
      const char c = text_[pos_++];
      if (c == '}') return Status::ok();
      if (c != ',') return error("expected ',' or '}' in object");
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  Status error(const std::string& what) const {
    return Status::invalid_argument("json: " + what + " at offset " +
                                    std::to_string(pos_));
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

/// Escapes and quotes `s` as a JSON string into `os`.
inline void write_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

/// Writes `v` under the number policy above: %.17g when finite, else the
/// quoted "nan", "inf" or "-inf".
inline void write_number(std::ostream& os, double v) {
  if (std::isnan(v)) {
    os << "\"nan\"";
  } else if (std::isinf(v)) {
    os << (v > 0 ? "\"inf\"" : "\"-inf\"");
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << buf;
  }
}

/// The current UTC time in ISO 8601: "2026-08-06T12:00:00Z", or with
/// `millis` "2026-08-06T12:00:00.123Z" (log records need sub-second order).
inline std::string utc_now_iso8601(bool millis = false) {
  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  std::tm tm{};
  gmtime_r(&secs, &tm);
  char buf[40];
  std::size_t n = std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%S", &tm);
  if (millis) {
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        now.time_since_epoch())
                        .count() %
                    1000;
    n += static_cast<std::size_t>(std::snprintf(
        buf + n, sizeof(buf) - n, ".%03d", static_cast<int>(ms)));
  }
  std::snprintf(buf + n, sizeof(buf) - n, "Z");
  return buf;
}

}  // namespace gridsec::obs::json
