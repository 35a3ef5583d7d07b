#include "common/env.h"

#include <cstdlib>
#include <limits>

namespace winofault {
namespace {

const char* raw(const char* name) { return std::getenv(name); }

}  // namespace

bool parse_int(const char* text, int* out) {
  char* end = nullptr;
  // strtoll saturates beyond long long, which is outside int's range too.
  const long long parsed = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' ||
      parsed < std::numeric_limits<int>::min() ||
      parsed > std::numeric_limits<int>::max()) {
    return false;
  }
  *out = static_cast<int>(parsed);
  return true;
}

int env_int(const char* name, int fallback) {
  const char* value = raw(name);
  int parsed = fallback;
  return value != nullptr && parse_int(value, &parsed) ? parsed : fallback;
}

double env_double(const char* name, double fallback) {
  const char* value = raw(name);
  if (!value || !*value) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  return (end && *end == '\0') ? parsed : fallback;
}

bool env_bool(const char* name, bool fallback) {
  const char* value = raw(name);
  if (!value || !*value) return fallback;
  const std::string v(value);
  if (v == "1" || v == "true" || v == "on" || v == "yes") return true;
  if (v == "0" || v == "false" || v == "off" || v == "no") return false;
  return fallback;
}

std::string env_string(const char* name, const std::string& fallback) {
  const char* value = raw(name);
  return (value && *value) ? std::string(value) : fallback;
}

bool full_run_requested() { return env_bool("WINOFAULT_FULL", false); }

}  // namespace winofault
