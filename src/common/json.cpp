#include "common/json.h"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace winofault {

const std::string Json::kEmpty;

Json Json::boolean(bool v) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = v;
  return j;
}

Json Json::number(double v) {
  Json j;
  j.type_ = Type::kNumber;
  j.num_ = v;
  return j;
}

Json Json::integer(std::int64_t v) {
  Json j;
  j.type_ = Type::kNumber;
  j.is_integer_ = true;
  j.negative_ = v < 0;
  // Negating INT64_MIN directly is UB; the unsigned wrap-around of the
  // cast is exactly its magnitude.
  j.magnitude_ = v < 0 ? ~static_cast<std::uint64_t>(v) + 1
                       : static_cast<std::uint64_t>(v);
  j.num_ = static_cast<double>(v);
  return j;
}

Json Json::unsigned_integer(std::uint64_t v) {
  Json j;
  j.type_ = Type::kNumber;
  j.is_integer_ = true;
  j.magnitude_ = v;
  j.num_ = static_cast<double>(v);
  return j;
}

Json Json::str(std::string v) {
  Json j;
  j.type_ = Type::kString;
  j.str_ = std::move(v);
  return j;
}

Json Json::object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

Json Json::array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

const Json* Json::find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool Json::as_bool(bool fallback) const {
  return type_ == Type::kBool ? bool_ : fallback;
}

double Json::as_double(double fallback) const {
  return type_ == Type::kNumber ? num_ : fallback;
}

std::int64_t Json::as_int(std::int64_t fallback) const {
  if (type_ != Type::kNumber) return fallback;
  if (is_integer_) {
    if (negative_) {
      if (magnitude_ > 0x8000000000000000ULL) return fallback;
      return -static_cast<std::int64_t>(magnitude_ - 1) - 1;
    }
    if (magnitude_ > static_cast<std::uint64_t>(INT64_MAX)) return fallback;
    return static_cast<std::int64_t>(magnitude_);
  }
  return static_cast<std::int64_t>(num_);
}

std::uint64_t Json::as_uint(std::uint64_t fallback) const {
  if (type_ != Type::kNumber) return fallback;
  if (is_integer_) return negative_ ? fallback : magnitude_;
  return num_ < 0 ? fallback : static_cast<std::uint64_t>(num_);
}

const std::string& Json::as_string(const std::string& fallback) const {
  return type_ == Type::kString ? str_ : fallback;
}

Json& Json::set(std::string key, Json value) {
  type_ = Type::kObject;
  members_.emplace_back(std::move(key), std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  type_ = Type::kArray;
  elements_.push_back(std::move(value));
  return *this;
}

namespace {

void dump_string(const std::string& s, std::string* out) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace

void Json::dump_to(std::string* out) const {
  switch (type_) {
    case Type::kNull:
      *out += "null";
      break;
    case Type::kBool:
      *out += bool_ ? "true" : "false";
      break;
    case Type::kNumber: {
      char buf[40];
      if (is_integer_) {
        std::snprintf(buf, sizeof(buf), "%s%" PRIu64, negative_ ? "-" : "",
                      magnitude_);
      } else {
        // %.17g round-trips every finite double exactly; non-finite values
        // have no JSON spelling — emit null (decode falls back).
        if (num_ != num_ || num_ == 1.0 / 0.0 || num_ == -1.0 / 0.0) {
          *out += "null";
          break;
        }
        std::snprintf(buf, sizeof(buf), "%.17g", num_);
      }
      *out += buf;
      break;
    }
    case Type::kString:
      dump_string(str_, out);
      break;
    case Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [k, v] : members_) {
        if (!first) out->push_back(',');
        first = false;
        dump_string(k, out);
        out->push_back(':');
        v.dump_to(out);
      }
      out->push_back('}');
      break;
    }
    case Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const Json& v : elements_) {
        if (!first) out->push_back(',');
        first = false;
        v.dump_to(out);
      }
      out->push_back(']');
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(&out);
  return out;
}

// Recursive-descent parser. Depth-limited so a hostile request cannot
// overflow the stack; the server additionally caps line length.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  std::optional<Json> parse() {
    std::optional<Json> value = parse_value(0);
    if (!value.has_value()) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_literal(const char* lit) {
    const std::size_t len = std::strlen(lit);
    if (text_.compare(pos_, len, lit) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  std::optional<Json> parse_value(int depth) {
    if (depth > kMaxDepth) return std::nullopt;
    skip_ws();
    if (pos_ >= text_.size()) return std::nullopt;
    switch (text_[pos_]) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': {
        std::string s;
        if (!parse_string(&s)) return std::nullopt;
        return Json::str(std::move(s));
      }
      case 't':
        return consume_literal("true") ? std::optional<Json>(Json::boolean(
                                             true))
                                       : std::nullopt;
      case 'f':
        return consume_literal("false") ? std::optional<Json>(Json::boolean(
                                              false))
                                        : std::nullopt;
      case 'n':
        return consume_literal("null") ? std::optional<Json>(Json::null())
                                       : std::nullopt;
      default:
        return parse_number();
    }
  }

  std::optional<Json> parse_object(int depth) {
    ++pos_;  // '{'
    Json obj = Json::object();
    skip_ws();
    if (consume('}')) return obj;
    for (;;) {
      skip_ws();
      std::string key;
      if (!parse_string(&key)) return std::nullopt;
      skip_ws();
      if (!consume(':')) return std::nullopt;
      std::optional<Json> value = parse_value(depth + 1);
      if (!value.has_value()) return std::nullopt;
      obj.set(std::move(key), *std::move(value));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return obj;
      return std::nullopt;
    }
  }

  std::optional<Json> parse_array(int depth) {
    ++pos_;  // '['
    Json arr = Json::array();
    skip_ws();
    if (consume(']')) return arr;
    for (;;) {
      std::optional<Json> value = parse_value(depth + 1);
      if (!value.has_value()) return std::nullopt;
      arr.push(*std::move(value));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return arr;
      return std::nullopt;
    }
  }

  bool parse_string(std::string* out) {
    if (!consume('"')) return false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code += 10u + (h - 'a');
            else if (h >= 'A' && h <= 'F') code += 10u + (h - 'A');
            else return false;
          }
          // BMP code points as UTF-8; surrogate halves are rejected (the
          // protocol's own emitter never produces them).
          if (code >= 0xd800 && code <= 0xdfff) return false;
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xc0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
          } else {
            out->push_back(static_cast<char>(0xe0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
          }
          break;
        }
        default:
          return false;
      }
    }
    return false;  // unterminated
  }

  std::optional<Json> parse_number() {
    const std::size_t start = pos_;
    bool negative = false;
    if (consume('-')) negative = true;
    bool integral = true;
    std::uint64_t magnitude = 0;
    bool overflow = false;
    if (pos_ >= text_.size() ||
        !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      return std::nullopt;
    }
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      const std::uint64_t digit =
          static_cast<std::uint64_t>(text_[pos_] - '0');
      if (magnitude > (UINT64_MAX - digit) / 10) overflow = true;
      if (!overflow) magnitude = magnitude * 10 + digit;
      ++pos_;
    }
    if (pos_ < text_.size() &&
        (text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      // Let strtod validate and consume the fraction/exponent.
      const char* begin = text_.c_str() + start;
      char* end = nullptr;
      const double value = std::strtod(begin, &end);
      if (end == begin) return std::nullopt;
      pos_ = start + static_cast<std::size_t>(end - begin);
      return Json::number(value);
    }
    (void)integral;
    if (overflow) {
      // Integer wider than 64 bits: carry the approximate double.
      const double value = std::strtod(text_.c_str() + start, nullptr);
      return Json::number(value);
    }
    if (negative) {
      // "-0" stays a double: integer zero has no sign, so it would dump
      // back as "0" and -0.0 would not survive a round trip.
      if (magnitude == 0 || magnitude > 0x8000000000000000ULL) {
        return Json::number(-static_cast<double>(magnitude));
      }
      return Json::integer(magnitude == 0x8000000000000000ULL
                               ? INT64_MIN
                               : -static_cast<std::int64_t>(magnitude));
    }
    return Json::unsigned_integer(magnitude);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

std::optional<Json> Json::parse(const std::string& text) {
  return JsonParser(text).parse();
}

}  // namespace winofault
