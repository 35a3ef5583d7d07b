// Telemetry registry + trace-span guarantees (common/telemetry):
//   (a) counter/gauge/histogram aggregation is exact under the
//       work-stealing pool — relaxed atomics lose nothing;
//   (b) get-or-create returns stable references: the same (name, labels)
//       pair is the same series, different labels are different series,
//       and reset_for_test() zeroes values without invalidating anything;
//   (c) prometheus_text() renders well-formed exposition: HELP/TYPE per
//       name, histogram _bucket/_sum/_count with monotone cumulative
//       counts;
//   (d) trace files are valid JSON (parsed with common/json) whose events
//       carry name/ph/ts/dur, and tracing toggled on/off never touches
//       metric values;
//   (e) event-log lines emitted from pool threads never interleave.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/parallel.h"
#include "common/telemetry/events.h"
#include "common/telemetry/telemetry.h"

namespace winofault {
namespace {

namespace fs = std::filesystem;

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override { telemetry::reset_for_test(); }
  void TearDown() override {
    telemetry::set_trace_path("");  // stop tracing between tests
    telemetry::reset_for_test();
  }
};

TEST_F(TelemetryTest, CounterExactUnderPool) {
  telemetry::Counter& c =
      telemetry::counter("test_pool_adds_total", "test counter");
  constexpr std::int64_t kN = 100000;
  parallel_for(kN, 4, [&](std::int64_t) { c.add(1); });
  EXPECT_EQ(c.value(), kN);
}

TEST_F(TelemetryTest, HistogramExactUnderPool) {
  telemetry::Histogram& h =
      telemetry::histogram("test_pool_obs_us", "test histogram");
  constexpr std::int64_t kN = 50000;
  // Observation i contributes i: count and sum must both be exact.
  parallel_for(kN, 4, [&](std::int64_t i) { h.observe(i); });
  EXPECT_EQ(h.count(), kN);
  EXPECT_EQ(h.sum(), kN * (kN - 1) / 2);
  EXPECT_DOUBLE_EQ(h.mean(), static_cast<double>(kN - 1) / 2.0);
  // Cumulative bucket counts are monotone and end at count().
  std::int64_t prev = 0;
  for (int b = 0; b < telemetry::Histogram::kBuckets; ++b) {
    const std::int64_t cum = h.cumulative(b);
    EXPECT_GE(cum, prev);
    prev = cum;
  }
  EXPECT_EQ(prev, kN);
}

TEST_F(TelemetryTest, GaugeSetAndAdd) {
  telemetry::Gauge& g = telemetry::gauge("test_gauge", "test gauge");
  g.set(42);
  EXPECT_EQ(g.value(), 42);
  g.add(-2);
  EXPECT_EQ(g.value(), 40);
  g.set(7);
  EXPECT_EQ(g.value(), 7);
}

TEST_F(TelemetryTest, SameSeriesSameReferenceDistinctLabelsDistinct) {
  telemetry::Counter& a =
      telemetry::counter("test_labeled_total", "help", "k=\"a\"");
  telemetry::Counter& a2 =
      telemetry::counter("test_labeled_total", "help", "k=\"a\"");
  telemetry::Counter& b =
      telemetry::counter("test_labeled_total", "help", "k=\"b\"");
  EXPECT_EQ(&a, &a2);
  EXPECT_NE(&a, &b);
  a.add(3);
  b.add(5);
  EXPECT_EQ(a2.value(), 3);
  EXPECT_EQ(b.value(), 5);
}

TEST_F(TelemetryTest, ResetZeroesValuesKeepsReferences) {
  telemetry::Counter& c = telemetry::counter("test_reset_total", "help");
  telemetry::Gauge& g = telemetry::gauge("test_reset_gauge", "help");
  telemetry::Histogram& h = telemetry::histogram("test_reset_us", "help");
  c.add(9);
  g.set(9);
  h.observe(9);
  telemetry::reset_for_test();
  EXPECT_EQ(c.value(), 0);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.sum(), 0);
  // The references survive the reset: the next event lands in the same
  // series (this is what makes function-local static caching safe in
  // long-lived test processes).
  c.add(2);
  EXPECT_EQ(c.value(), 2);
  EXPECT_EQ(telemetry::counter("test_reset_total", "help").value(), 2);
}

TEST_F(TelemetryTest, PrometheusTextWellFormed) {
  telemetry::counter("test_expo_total", "a test counter", "k=\"a\"").add(2);
  telemetry::counter("test_expo_total", "a test counter", "k=\"b\"").add(3);
  telemetry::gauge("test_expo_gauge", "a test gauge").set(-4);
  telemetry::Histogram& h =
      telemetry::histogram("test_expo_us", "a test histogram");
  h.observe(1);
  h.observe(100);
  const std::string text = telemetry::prometheus_text();

  EXPECT_NE(text.find("# HELP test_expo_total a test counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE test_expo_total counter"), std::string::npos);
  EXPECT_NE(text.find("test_expo_total{k=\"a\"} 2"), std::string::npos);
  EXPECT_NE(text.find("test_expo_total{k=\"b\"} 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_expo_gauge gauge"), std::string::npos);
  EXPECT_NE(text.find("test_expo_gauge -4"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_expo_us histogram"), std::string::npos);
  EXPECT_NE(text.find("test_expo_us_sum 101"), std::string::npos);
  EXPECT_NE(text.find("test_expo_us_count 2"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\"} 2"), std::string::npos);
  // One HELP line per metric name, not per series.
  std::size_t helps = 0;
  for (std::size_t at = text.find("# HELP test_expo_total");
       at != std::string::npos;
       at = text.find("# HELP test_expo_total", at + 1)) {
    ++helps;
  }
  EXPECT_EQ(helps, 1u);
}

TEST_F(TelemetryTest, TraceFileIsValidJsonWithCompleteEvents) {
  const std::string path =
      ::testing::TempDir() + "winofault_telemetry_trace.json";
  fs::remove(path);
  telemetry::set_trace_path(path);
  EXPECT_TRUE(telemetry::tracing_enabled());
  {
    telemetry::TraceSpan outer("outer_span", "test");
    telemetry::TraceSpan inner("inner_span", "test");
  }
  parallel_for(8, 2, [&](std::int64_t) {
    telemetry::TraceSpan span("pooled_span", "test");
  });
  telemetry::flush_trace();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::optional<Json> doc = Json::parse(buffer.str());
  ASSERT_TRUE(doc.has_value());
  const Json* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  const std::vector<Json>& items = events->elements();
  ASSERT_GE(items.size(), 10u);  // 2 scoped + 8 pooled
  std::size_t outer_seen = 0, pooled_seen = 0;
  for (const Json& event : items) {
    const Json* name = event.find("name");
    const Json* ph = event.find("ph");
    ASSERT_NE(name, nullptr);
    ASSERT_NE(ph, nullptr);
    EXPECT_EQ(ph->as_string(), "X");
    EXPECT_NE(event.find("ts"), nullptr);
    EXPECT_NE(event.find("dur"), nullptr);
    EXPECT_NE(event.find("tid"), nullptr);
    if (name->as_string() == "outer_span") ++outer_seen;
    if (name->as_string() == "pooled_span") ++pooled_seen;
  }
  EXPECT_EQ(outer_seen, 1u);
  EXPECT_EQ(pooled_seen, 8u);
  telemetry::set_trace_path("");
  fs::remove(path);
}

TEST_F(TelemetryTest, HistogramQuantilesInterpolateWithinBuckets) {
  telemetry::Histogram& h =
      telemetry::histogram("test_quantile_us", "a test histogram");
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty histogram
  // 100 identical observations of 10 land in the (8, 16] bucket: every
  // quantile must interpolate inside that bucket, never outside it.
  for (int i = 0; i < 100; ++i) h.observe(10);
  for (const double q : {0.5, 0.95, 0.99}) {
    EXPECT_GT(h.quantile(q), 8.0) << "q=" << q;
    EXPECT_LE(h.quantile(q), 16.0) << "q=" << q;
  }
  // A spread distribution keeps quantiles monotone in q.
  telemetry::Histogram& spread =
      telemetry::histogram("test_quantile_spread_us", "a test histogram");
  for (int i = 1; i <= 1000; ++i) spread.observe(i);
  const double p50 = spread.quantile(0.50);
  const double p95 = spread.quantile(0.95);
  const double p99 = spread.quantile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // p50 of 1..1000 is ~500; the log2 bucket holding it is (256, 512].
  EXPECT_GT(p50, 256.0);
  EXPECT_LE(p50, 512.0);
  EXPECT_GT(p99, 512.0);
}

TEST_F(TelemetryTest, PrometheusTextCarriesQuantileLines) {
  telemetry::Histogram& h =
      telemetry::histogram("test_expo_q_us", "a test histogram");
  for (int i = 0; i < 10; ++i) h.observe(100);
  const std::string text = telemetry::prometheus_text();
  EXPECT_NE(text.find("test_expo_q_us_p50 "), std::string::npos);
  EXPECT_NE(text.find("test_expo_q_us_p95 "), std::string::npos);
  EXPECT_NE(text.find("test_expo_q_us_p99 "), std::string::npos);
}

TEST_F(TelemetryTest, SnapshotCapturesEverySeriesWithSummaries) {
  telemetry::counter("test_snap_total", "help").add(7);
  telemetry::gauge("test_snap_gauge", "help").set(-3);
  telemetry::Histogram& h = telemetry::histogram("test_snap_us", "help");
  h.observe(4);
  h.observe(6);
  const std::vector<telemetry::SeriesSample> series = telemetry::snapshot();
  bool saw_counter = false, saw_gauge = false, saw_hist = false;
  for (const telemetry::SeriesSample& s : series) {
    if (s.name == "test_snap_total") {
      saw_counter = true;
      EXPECT_EQ(s.type, 'c');
      EXPECT_EQ(s.value, 7);
    } else if (s.name == "test_snap_gauge") {
      saw_gauge = true;
      EXPECT_EQ(s.type, 'g');
      EXPECT_EQ(s.value, -3);
    } else if (s.name == "test_snap_us") {
      saw_hist = true;
      EXPECT_EQ(s.type, 'h');
      EXPECT_EQ(s.value, 2);  // histogram count rides in `value`
      EXPECT_EQ(s.sum, 10);
      EXPECT_LE(s.p50, s.p95);
      EXPECT_LE(s.p95, s.p99);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
  EXPECT_TRUE(saw_hist);
}

TEST_F(TelemetryTest, IncrementalFlushAppendsAndStaysValidJson) {
  const std::string path =
      ::testing::TempDir() + "winofault_telemetry_incremental.json";
  fs::remove(path);
  telemetry::set_trace_path(path);
  const auto parse_events = [&]() -> std::size_t {
    std::ifstream in(path);
    EXPECT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::optional<Json> doc = Json::parse(buffer.str());
    EXPECT_TRUE(doc.has_value());
    if (!doc.has_value()) return 0;
    const Json* events = doc->find("traceEvents");
    EXPECT_NE(events, nullptr);
    return events != nullptr ? events->elements().size() : 0;
  };
  // Each flush appends only the new events and re-closes the document:
  // the file is valid JSON after every flush and never shrinks a
  // previously flushed event away. (A fresh sink path replays the full
  // per-thread history, so earlier tests' spans may be present — the
  // checks are relative to the first flush.)
  { telemetry::TraceSpan span("first_span", "test"); }
  telemetry::flush_trace();
  const std::size_t base = parse_events();
  EXPECT_GE(base, 1u);
  { telemetry::TraceSpan span("second_span", "test"); }
  { telemetry::TraceSpan span("third_span", "test"); }
  telemetry::flush_trace();
  EXPECT_EQ(parse_events(), base + 2);
  // A flush with nothing new keeps the document intact.
  telemetry::flush_trace();
  EXPECT_EQ(parse_events(), base + 2);
  telemetry::set_trace_path("");
  fs::remove(path);
}

TEST_F(TelemetryTest, EventsFromPoolThreadsNeverInterleave) {
  const std::string path =
      ::testing::TempDir() + "winofault_telemetry_events.ndjson";
  fs::remove(path);
  telemetry::set_events_path(path);
  constexpr std::int64_t kN = 2000;
  parallel_for(kN, 4, [&](std::int64_t i) {
    telemetry::emit_event("pool_event", {{"path", "a \"quoted\"\npath"}},
                          {{"i", i}});
  });
  telemetry::set_events_path("");

  std::ifstream in(path);
  std::vector<bool> seen(kN, false);
  std::int64_t lines = 0;
  for (std::string line; std::getline(in, line); ++lines) {
    const std::optional<Json> doc = Json::parse(line);
    ASSERT_TRUE(doc.has_value()) << line;
    const std::int64_t i = doc->find("i")->as_int(-1);
    ASSERT_TRUE(i >= 0 && i < kN) << line;
    seen[static_cast<std::size_t>(i)] = true;
  }
  EXPECT_EQ(lines, kN);
  EXPECT_EQ(std::count(seen.begin(), seen.end(), true), kN);
  fs::remove(path);
}

TEST_F(TelemetryTest, TracingToggleNeverTouchesMetrics) {
  telemetry::Counter& c = telemetry::counter("test_toggle_total", "help");
  c.add(1);
  const std::string path =
      ::testing::TempDir() + "winofault_telemetry_toggle.json";
  telemetry::set_trace_path(path);
  { telemetry::TraceSpan span("toggle_span", "test"); }
  telemetry::set_trace_path("");
  { telemetry::TraceSpan span("untraced_span", "test"); }
  EXPECT_FALSE(telemetry::tracing_enabled());
  EXPECT_EQ(c.value(), 1);
  fs::remove(path);
}

}  // namespace
}  // namespace winofault
