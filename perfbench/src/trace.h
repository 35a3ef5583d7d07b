// Span recorder of the benchmark's traced run. Spans are recorded by the
// benchmark's own code around the calls it makes into each layer's public
// functions; nothing inside the library is instrumented. Each span keeps
// (name, start, end, parent, run id); spans stay in memory and are written
// once, as Chrome trace-event JSON, when the run ends.
//
// When tracing is off a Span costs one relaxed load, so the untimed and
// timed paths can share code.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

// Steady-clock nanoseconds since the first call in this process.
std::int64_t now_ns();

void trace_enable(bool on);
bool trace_enabled();

// Identifier shared by every span of one request (a pass, a phase, a
// submission); recorded with each span.
void trace_set_run(std::int64_t run);

// Innermost open span of the calling thread, or -1. Pass it to spans
// opened on pool threads so they nest under the span that caused them.
std::int64_t trace_current();

class Span {
 public:
  // `name` must be a string literal. `parent` < 0 nests the span under the
  // innermost open span of the calling thread.
  explicit Span(const char* name, std::int64_t parent = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::int64_t id_ = -1;  // -1 when tracing was off at construction
  std::int64_t parent_ = -1;
  std::int64_t start_ns_ = 0;
};

struct SpanStats {
  std::int64_t calls = 0;
  double total_us = 0;  // summed span durations
  double self_us = 0;   // summed durations minus the time children cover
};

// Per span name. A span's self time is its duration minus the union of
// its children's intervals, so children running in parallel on pool
// threads are not subtracted twice.
std::map<std::string, SpanStats> span_stats();

// Mean self microseconds per call of span `name` (0 when never recorded).
double mean_self_us(const std::map<std::string, SpanStats>& stats,
                    const std::string& name);

// Writes every recorded span as {"traceEvents":[...]}.
bool write_chrome_trace(const std::string& path);

}  // namespace perfbench
