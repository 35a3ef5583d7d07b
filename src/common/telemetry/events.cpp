#include "common/telemetry/events.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

#include "common/env.h"
#include "common/json.h"

namespace winofault::telemetry {
namespace {

// Like the trace/metrics sinks in telemetry.cpp, all IO here is plain
// stdio on purpose: the recorder must never route through the iofault
// shims (see the header's observation-only contract).

struct EventState {
  std::mutex mu;  // guards everything below; also serializes line writes
  std::string path;
  std::FILE* sink = nullptr;
  std::string sink_path;
};

std::atomic<bool> g_events{false};
std::once_flag g_events_env_once;

EventState& event_state() {
  static EventState* state = new EventState;  // leaked: see telemetry.cpp
  return *state;
}

void init_events_from_env() {
  std::call_once(g_events_env_once, [] {
    const std::string path = env_string("WINOFAULT_EVENTS", "");
    if (path.empty()) return;
    std::lock_guard<std::mutex> lock(event_state().mu);
    event_state().path = path;
    g_events.store(true, std::memory_order_release);
  });
}

std::int64_t wall_epoch_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

bool events_enabled() {
  init_events_from_env();
  return g_events.load(std::memory_order_relaxed);
}

void set_events_path(const std::string& path) {
  init_events_from_env();
  EventState& state = event_state();
  std::lock_guard<std::mutex> lock(state.mu);
  state.path = path;
  // The open sink (if any) is closed on the next emit when stale; closing
  // here keeps file handles from outliving a cleared recorder.
  if (state.sink != nullptr && state.sink_path != path) {
    std::fclose(state.sink);
    state.sink = nullptr;
    state.sink_path.clear();
  }
  g_events.store(!path.empty(), std::memory_order_release);
}

void emit_event(
    const char* type,
    std::initializer_list<std::pair<const char*, std::string>> fields,
    std::initializer_list<std::pair<const char*, std::int64_t>> nums) {
  if (!events_enabled()) return;
  // Build the line outside any file operation; one allocation-churny
  // object per event is fine — events are rare lifecycle transitions, not
  // per-cell traffic.
  Json event = Json::object();
  event.set("ts_ms", Json::integer(wall_epoch_ms()));
  event.set("pid", Json::integer(::getpid()));
  event.set("event", Json::str(type));
  for (const auto& [key, value] : fields) event.set(key, Json::str(value));
  for (const auto& [key, value] : nums) event.set(key, Json::integer(value));
  std::string line = event.dump();
  line += '\n';

  EventState& state = event_state();
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.path.empty()) return;  // cleared between the check and here
  if (state.sink != nullptr && state.sink_path != state.path) {
    std::fclose(state.sink);
    state.sink = nullptr;
  }
  if (state.sink == nullptr) {
    state.sink = std::fopen(state.path.c_str(), "a");
    if (state.sink == nullptr) return;
    state.sink_path = state.path;
  }
  std::fwrite(line.data(), 1, line.size(), state.sink);
  std::fflush(state.sink);
}

}  // namespace winofault::telemetry
