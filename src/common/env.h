// Environment-variable knobs used by benches so default runs stay fast while
// WINOFAULT_FULL=1 (or per-knob overrides) enables paper-scale sweeps.
#pragma once

#include <string>

namespace winofault {

// Returns the env var parsed as the requested type, or `fallback` when the
// variable is unset or unparsable (for env_int, as parse_int reads it).
int env_int(const char* name, int fallback);
double env_double(const char* name, double fallback);
bool env_bool(const char* name, bool fallback);
std::string env_string(const char* name, const std::string& fallback);

// True when WINOFAULT_FULL=1: benches raise image counts / sweep densities.
bool full_run_requested();

// Parses all of `text` as a decimal int into `out`. False, leaving `out`
// alone, when `text` is empty, has trailing characters or names a value
// outside int's range: an out-of-range value is never narrowed.
bool parse_int(const char* text, int* out);

}  // namespace winofault
