// Cross-tier telemetry: a process-wide metrics registry plus scoped trace
// spans. Both are OBSERVATION-ONLY by construction — nothing here feeds
// back into any computation, so numerics, hashes, journals, and CSVs are
// byte-identical with telemetry on, off, or toggled mid-run (proved in
// tests/campaign_test.cpp and tests/service_test.cpp).
//
// Metrics — counters, gauges, log2-bucketed histograms — live forever in
// one leaked registry; get-or-create returns a stable reference, so hot
// paths cache it in a function-local static and pay exactly one relaxed
// atomic RMW per event. A series counts the whole process; what one
// campaign did is in its CampaignStats (core/campaign).
// Series are (name, labels) pairs rendered in Prometheus text-exposition
// format by prometheus_text(); winofaultd serves that render through its
// `metrics` protocol verb, and WINOFAULT_METRICS=path dumps it at process
// exit (the classic print-stats-at-exit instrumentation shape).
//
// Trace spans emit Chrome trace-event JSON ("ph":"X" complete events) when
// WINOFAULT_TRACE=path is set: each thread appends to its own buffer (one
// uncontended lock per span), flushed to the file at process exit and by
// flush_trace(). Open the file in chrome://tracing or Perfetto. When
// tracing is off a span costs one relaxed load — the iofault-shim budget.
//
// See README.md in this directory for the metric catalog, span naming
// scheme, and the determinism contract.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace winofault::telemetry {

// Monotonic counter. add() is a relaxed fetch_add; aggregation across
// threads is exact (tests/telemetry_test.cpp proves it under the
// work-stealing pool).
class Counter {
 public:
  void add(std::int64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }  // test seam

 private:
  std::atomic<std::int64_t> value_{0};
};

// Point-in-time value (queue depths, resident sessions, last-job latency).
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }  // test seam

 private:
  std::atomic<std::int64_t> value_{0};
};

// Histogram over non-negative integer observations (typically
// microseconds) with power-of-two bucket bounds 1, 2, 4, ... — coarse but
// allocation-free and exact in count and sum, which is what the phase
// profiles and queue-latency percentiles need.
class Histogram {
 public:
  static constexpr int kBuckets = 28;  // last bucket: +Inf

  void observe(std::int64_t v);

  std::int64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  // Mean observation; 0 when empty.
  double mean() const;
  // Cumulative count of observations <= the bucket's upper bound
  // (Prometheus `le` semantics). bucket kBuckets-1 == count().
  std::int64_t cumulative(int bucket) const;
  // Upper bound of bucket b (1 << b); the last bucket is +Inf.
  static std::int64_t bucket_bound(int bucket) {
    return std::int64_t{1} << bucket;
  }
  // Estimated q-quantile (0 < q <= 1) by linear interpolation inside the
  // log2 bucket holding the target rank; 0 when empty. Observations
  // landing in the +Inf bucket report that bucket's lower bound (the
  // Prometheus histogram_quantile convention). Coarse — bucket bounds
  // double — but monotone in q and exact at bucket edges, which is all the
  // p50/p95/p99 dashboard lines need.
  double quantile(double q) const;
  void reset();  // test seam

 private:
  std::atomic<std::int64_t> buckets_[kBuckets] = {};
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
};

// Get-or-create a series. `name` is the Prometheus metric name; `labels`
// is the literal label body without braces (e.g. `phase="exec"`), empty
// for an unlabeled series. The same (name, labels) always returns the same
// object — cache the reference in a static for hot paths. `help` is taken
// from the first registration of `name`. A name must keep one metric type
// across all its label sets; a mismatch returns a process-lifetime dummy
// (never crashes an instrumented hot path).
Counter& counter(const std::string& name, const std::string& help,
                 const std::string& labels = std::string());
Gauge& gauge(const std::string& name, const std::string& help,
             const std::string& labels = std::string());
Histogram& histogram(const std::string& name, const std::string& help,
                     const std::string& labels = std::string());

// Renders every registered series in Prometheus text-exposition format:
// one # HELP / # TYPE pair per metric name (registration order, stable),
// then each series. Histograms render _bucket{le=...}/_sum/_count plus
// estimated _p50/_p95/_p99 quantile lines (untyped convenience series for
// dashboards; see Histogram::quantile for the estimation contract).
std::string prometheus_text();

// One registered series captured at a point in time — the unit of the
// daemon's history ring. Histograms are summarized (count, sum, and the
// three dashboard quantiles) rather than carried bucket-by-bucket so a
// deep ring of full-registry samples stays small.
struct SeriesSample {
  std::string name;    // Prometheus metric name
  std::string labels;  // label body without braces; empty when unlabeled
  char type = 'c';     // 'c' counter, 'g' gauge, 'h' histogram
  std::int64_t value = 0;  // counter/gauge value; histogram count
  std::int64_t sum = 0;    // histogram sum; 0 otherwise
  double p50 = 0, p95 = 0, p99 = 0;  // histogram quantiles; 0 otherwise
};

// Captures every registered series (registration order, stable across
// calls). The values of different series are read without a global
// barrier — relaxed per-series reads, same contract as a metrics scrape.
std::vector<SeriesSample> snapshot();

// Test seam: zeroes every registered value (objects stay alive, so cached
// references in instrumented code remain valid).
void reset_for_test();

// ---- Trace spans ---------------------------------------------------------

// True when a trace sink is configured (WINOFAULT_TRACE=path, or
// set_trace_path). One relaxed load — the off-path budget.
bool tracing_enabled();

// Installs (or clears, with "") the trace sink. Overrides WINOFAULT_TRACE;
// events already buffered are kept. Test seam and daemon hook.
void set_trace_path(const std::string& path);

// Appends events buffered since the previous flush to the trace path and
// re-finalizes it, so the file is one valid Chrome trace-event JSON
// document ({"traceEvents":[...]}) after every call — O(new events) per
// flush, not O(all events) (long-resident daemons flush periodically).
// Changing the sink path starts a fresh file carrying everything buffered
// so far. Safe to call at any time; also runs automatically at process
// exit. No-op without a sink.
void flush_trace();

// RAII scoped span: records a complete ("ph":"X") event over its lifetime.
// `name` and `cat` MUST be string literals (or otherwise outlive the
// process) — the buffers store the pointers. Spans are per-thread and may
// nest; Chrome/Perfetto reconstruct the stack from the timestamps.
class TraceSpan {
 public:
  TraceSpan(const char* name, const char* cat);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  const char* cat_;
  std::int64_t start_us_;  // -1 when tracing was off at construction
};

// Microseconds since process telemetry start (steady clock) — the span
// timebase, exposed for instrumentation that records durations into
// histograms without a span.
std::int64_t now_us();

}  // namespace winofault::telemetry
