// Dependency-free JSON writing and (minimal) parsing for run reports.
//
// The observability layer serializes every pMAFIA run — per-rank/per-phase
// seconds and communication deltas — as machine-readable JSON so the perf
// trajectory can be tracked across changes (BENCH_*.json, --report-json).
// Third-party JSON libraries are off the table (the build is intentionally
// dependency-light), so this header provides:
//
//   * JsonWriter — a streaming writer with automatic comma/nesting
//     management.  Numbers are emitted round-trip exact (%.17g for doubles,
//     full width for 64-bit integers); strings are escaped per RFC 8259.
//   * JsonValue / json_parse — a small recursive-descent parser used by
//     tests and tooling to validate emitted reports.  It handles the full
//     JSON grammar (objects, arrays, strings with escapes, numbers, bools,
//     null) but is tuned for trusted, well-formed input: malformed text
//     throws mafia::Error with a byte offset.
#pragma once

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace mafia {

/// Streaming JSON writer.  Usage:
///   JsonWriter w;
///   w.begin_object();
///   w.key("records").value(123u);
///   w.key("phases").begin_array();
///   ... w.end_array();
///   w.end_object();
///   std::string text = w.str();
/// The writer validates nesting depth on end_*() and inserts commas
/// automatically; keys are only legal directly inside an object.
class JsonWriter {
 public:
  JsonWriter& begin_object() {
    separate();
    out_ += '{';
    stack_.push_back(Frame::Object);
    fresh_ = true;
    return *this;
  }

  JsonWriter& end_object() {
    require(!stack_.empty() && stack_.back() == Frame::Object,
            "JsonWriter: end_object without matching begin_object");
    stack_.pop_back();
    out_ += '}';
    fresh_ = false;
    return *this;
  }

  JsonWriter& begin_array() {
    separate();
    out_ += '[';
    stack_.push_back(Frame::Array);
    fresh_ = true;
    return *this;
  }

  JsonWriter& end_array() {
    require(!stack_.empty() && stack_.back() == Frame::Array,
            "JsonWriter: end_array without matching begin_array");
    stack_.pop_back();
    out_ += ']';
    fresh_ = false;
    return *this;
  }

  /// Writes an object key; must be followed by exactly one value.
  JsonWriter& key(const std::string& name) {
    require(!stack_.empty() && stack_.back() == Frame::Object,
            "JsonWriter: key outside of object");
    separate();
    write_string(name);
    out_ += ':';
    pending_key_ = true;
    return *this;
  }

  JsonWriter& value(const std::string& s) {
    separate();
    write_string(s);
    return *this;
  }
  JsonWriter& value(const char* s) { return value(std::string(s)); }

  JsonWriter& value(double d) {
    // JSON has no NaN/Infinity literals; %.17g would emit "nan"/"inf" and
    // corrupt the whole document.  A non-finite value (e.g. a rate a caller
    // computed over a zero-length interval, 0/0) serializes as null
    // instead.
    if (!std::isfinite(d)) return null();
    separate();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    out_ += buf;
    return *this;
  }

  JsonWriter& value(std::uint64_t u) {
    separate();
    out_ += std::to_string(u);
    return *this;
  }
  JsonWriter& value(std::int64_t i) {
    separate();
    out_ += std::to_string(i);
    return *this;
  }
  JsonWriter& value(int i) { return value(static_cast<std::int64_t>(i)); }
  JsonWriter& value(unsigned u) { return value(static_cast<std::uint64_t>(u)); }

  JsonWriter& value(bool b) {
    separate();
    out_ += b ? "true" : "false";
    return *this;
  }

  JsonWriter& null() {
    separate();
    out_ += "null";
    return *this;
  }

  /// Splices a pre-serialized JSON value in verbatim (no validation) —
  /// used to embed one complete document inside another.
  JsonWriter& raw(const std::string& json) {
    separate();
    out_ += json;
    return *this;
  }

  /// The document so far; call once nesting is fully closed.
  [[nodiscard]] const std::string& str() const {
    require(stack_.empty(), "JsonWriter: unclosed object/array");
    return out_;
  }

 private:
  enum class Frame : std::uint8_t { Object, Array };

  /// Emits the comma before a sibling value, consuming any pending key.
  void separate() {
    if (pending_key_) {
      pending_key_ = false;
      return;  // "key": <- value attaches directly, no comma
    }
    if (!stack_.empty() && !fresh_) out_ += ',';
    fresh_ = false;
  }

  void write_string(const std::string& s) {
    out_ += '"';
    for (const char c : s) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\r': out_ += "\\r"; break;
        case '\t': out_ += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out_ += buf;
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<Frame> stack_;
  bool fresh_ = true;        ///< true right after '{' / '[' (no comma yet)
  bool pending_key_ = false; ///< a key was written, its value is next
};

/// Parsed JSON value (tests/tooling side of the writer).
struct JsonValue {
  enum class Type : std::uint8_t { Null, Bool, Number, String, Array, Object };

  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  [[nodiscard]] bool is_object() const { return type == Type::Object; }
  [[nodiscard]] bool is_array() const { return type == Type::Array; }
  [[nodiscard]] bool is_number() const { return type == Type::Number; }
  [[nodiscard]] bool is_string() const { return type == Type::String; }

  [[nodiscard]] bool has(const std::string& k) const {
    return type == Type::Object && object.count(k) > 0;
  }

  /// Object member access; throws if absent or not an object.
  [[nodiscard]] const JsonValue& at(const std::string& k) const {
    require(type == Type::Object, "JsonValue: not an object");
    const auto it = object.find(k);
    require(it != object.end(), "JsonValue: missing key '" + k + "'");
    return it->second;
  }
};

namespace detail {

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = parse_value();
    skip_ws();
    require(at_ == text_.size(), err("trailing characters"));
    return v;
  }

 private:
  [[nodiscard]] std::string err(const std::string& what) const {
    return "json_parse: " + what + " at byte " + std::to_string(at_);
  }

  void skip_ws() {
    while (at_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[at_]))) {
      ++at_;
    }
  }

  char peek() {
    skip_ws();
    require(at_ < text_.size(), err("unexpected end of input"));
    return text_[at_];
  }

  void expect(char c) {
    require(peek() == c, err(std::string("expected '") + c + "'"));
    ++at_;
  }

  JsonValue parse_value() {
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        JsonValue v;
        v.type = JsonValue::Type::String;
        v.string = parse_string();
        return v;
      }
      case 't':
      case 'f': return parse_literal(c == 't');
      case 'n': {
        consume_word("null");
        return JsonValue{};
      }
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.type = JsonValue::Type::Object;
    if (peek() == '}') {
      ++at_;
      return v;
    }
    while (true) {
      std::string k = parse_string();
      expect(':');
      v.object.emplace(std::move(k), parse_value());
      const char c = peek();
      ++at_;
      if (c == '}') return v;
      require(c == ',', err("expected ',' or '}' in object"));
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.type = JsonValue::Type::Array;
    if (peek() == ']') {
      ++at_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      const char c = peek();
      ++at_;
      if (c == ']') return v;
      require(c == ',', err("expected ',' or ']' in array"));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      require(at_ < text_.size(), err("unterminated string"));
      const char c = text_[at_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      require(at_ < text_.size(), err("unterminated escape"));
      const char e = text_[at_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          require(at_ + 4 <= text_.size(), err("truncated \\u escape"));
          const unsigned long cp =
              std::strtoul(text_.substr(at_, 4).c_str(), nullptr, 16);
          at_ += 4;
          // Reports only ever escape control characters (< 0x80); emit
          // a minimal UTF-8 encoding for anything in the BMP.
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default: require(false, err("bad escape character"));
      }
    }
  }

  JsonValue parse_literal(bool b) {
    consume_word(b ? "true" : "false");
    JsonValue v;
    v.type = JsonValue::Type::Bool;
    v.boolean = b;
    return v;
  }

  JsonValue parse_number() {
    skip_ws();
    const char* start = text_.c_str() + at_;
    char* end = nullptr;
    const double d = std::strtod(start, &end);
    require(end != start, err("expected a value"));
    at_ += static_cast<std::size_t>(end - start);
    JsonValue v;
    v.type = JsonValue::Type::Number;
    v.number = d;
    return v;
  }

  void consume_word(const char* word) {
    skip_ws();
    const std::size_t len = std::string(word).size();
    require(text_.compare(at_, len, word) == 0, err("bad literal"));
    at_ += len;
  }

  const std::string& text_;
  std::size_t at_ = 0;
};

}  // namespace detail

/// Parses a JSON document; throws mafia::Error on malformed input.
[[nodiscard]] inline JsonValue json_parse(const std::string& text) {
  return detail::JsonParser(text).parse();
}

}  // namespace mafia
