// Environment-variable and integer-text readers shared by the library's
// env knobs and the bench/tool command lines.
#pragma once

#include <string>

namespace winofault {

// Returns the env var's value, or `fallback` when it is unset or empty.
std::string env_string(const char* name, const std::string& fallback);

// Parses all of `text` as a decimal int into `out`. False, leaving `out`
// alone, when `text` is empty, has trailing characters or names a value
// outside int's range: an out-of-range value is never narrowed.
bool parse_int(const char* text, int* out);

}  // namespace winofault
