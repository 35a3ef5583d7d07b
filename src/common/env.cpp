#include "common/env.h"

#include <cstdlib>
#include <limits>

namespace winofault {

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

std::string env_string(const char* name, const std::string& fallback) {
  const char* value = std::getenv(name);
  return (value && *value) ? std::string(value) : fallback;
}

}  // namespace winofault
