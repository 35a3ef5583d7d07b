// The repo's one JSON codec: the daemon wire protocol
// (core/service/protocol.h), the NDJSON event log and the trace-event file
// (common/telemetry), and the bench drivers' BENCH_*.json files all build
// and parse through it.
//
// The JSON layer is deliberately tiny — objects, arrays, strings, numbers,
// booleans, null — and numeric round-trips are exact where the campaign
// contract needs them to be: integer literals (seeds, budgets, salts) are
// carried as unsigned 64-bit magnitudes, and doubles (BERs, protection
// fractions) are emitted with %.17g, which strtod parses back to the
// identical bit pattern. That exactness is what makes a daemon-submitted
// campaign byte-identical to a local run (tests/service_test.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace winofault {

// A parsed JSON value. Object member order is preserved (emission is
// deterministic); duplicate keys keep the first for lookup.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kObject, kArray };

  Json() = default;

  static Json null() { return Json(); }
  static Json boolean(bool v);
  static Json number(double v);
  static Json integer(std::int64_t v);
  static Json unsigned_integer(std::uint64_t v);
  static Json str(std::string v);
  static Json object();
  static Json array();

  // Strict parse of exactly one JSON value (trailing non-space rejected).
  static std::optional<Json> parse(const std::string& text);

  // Compact single-line emission (the protocol's framing unit).
  std::string dump() const;
  void dump_to(std::string* out) const;

  Type type() const { return type_; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_number() const { return type_ == Type::kNumber; }

  // Object lookup; nullptr when absent or not an object.
  const Json* find(const std::string& key) const;

  // Typed reads with fallbacks (never throw). as_int and as_uint truncate
  // a fraction and return the fallback for a value outside their type.
  bool as_bool(bool fallback = false) const;
  double as_double(double fallback = 0.0) const;
  std::int64_t as_int(std::int64_t fallback = 0) const;
  std::uint64_t as_uint(std::uint64_t fallback = 0) const;
  const std::string& as_string(const std::string& fallback = kEmpty) const;

  // Builders.
  Json& set(std::string key, Json value);  // object member (appends)
  Json& push(Json value);                  // array element

  const std::vector<std::pair<std::string, Json>>& members() const {
    return members_;
  }
  const std::vector<Json>& elements() const { return elements_; }

 private:
  static const std::string kEmpty;

  Type type_ = Type::kNull;
  bool bool_ = false;
  // Numbers: `num_` always holds the value; integer literals additionally
  // carry their exact magnitude + sign so 64-bit seeds/salts round-trip.
  double num_ = 0.0;
  bool is_integer_ = false;
  bool negative_ = false;
  std::uint64_t magnitude_ = 0;
  std::string str_;
  std::vector<std::pair<std::string, Json>> members_;
  std::vector<Json> elements_;

  friend class JsonParser;
};

}  // namespace winofault
