#include "common/telemetry/telemetry.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/env.h"
#include "common/json.h"

namespace winofault::telemetry {
namespace {

// All trace/metrics file IO in this translation unit uses plain stdio on
// purpose: telemetry output must never route through the iofault shims —
// an injected fault in the observer would perturb the chaos schedule's
// match ordinals and break the very byte-identity it exists to watch.

enum class MetricType { kCounter, kGauge, kHistogram };

struct Series {
  MetricType type;
  std::string name;
  std::string labels;
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;
};

struct MetricName {
  std::string name;
  std::string help;
  MetricType type;
};

const char* type_name(MetricType type) {
  switch (type) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "untyped";
}

// The registry. Leaked singleton: instrumented code caches references into
// it, and static-destruction order must never invalidate them.
class Registry {
 public:
  static Registry& instance() {
    static Registry* registry = new Registry;
    return *registry;
  }

  Series& get_or_create(MetricType type, const std::string& name,
                        const std::string& help, const std::string& labels) {
    std::lock_guard<std::mutex> lock(mu_);
    const std::string key = name + "\x1f" + labels;
    if (const auto it = index_.find(key); it != index_.end()) {
      Series& series = *series_[it->second];
      if (series.type == type) return series;
      return dummy(type);  // type clash: keep the hot path alive
    }
    bool known_name = false;
    for (const MetricName& n : names_) {
      if (n.name == name) {
        known_name = true;
        if (n.type != type) return dummy(type);
        break;
      }
    }
    if (!known_name) names_.push_back(MetricName{name, help, type});
    auto series = std::make_unique<Series>();
    series->type = type;
    series->name = name;
    series->labels = labels;
    switch (type) {
      case MetricType::kCounter:
        series->counter = std::make_unique<Counter>();
        break;
      case MetricType::kGauge:
        series->gauge = std::make_unique<Gauge>();
        break;
      case MetricType::kHistogram:
        series->histogram = std::make_unique<Histogram>();
        break;
    }
    index_.emplace(key, series_.size());
    series_.push_back(std::move(series));
    return *series_.back();
  }

  std::string render() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::string out;
    char line[256];
    for (const MetricName& n : names_) {
      out += "# HELP " + n.name + " " + n.help + "\n";
      out += "# TYPE " + n.name + " " + std::string(type_name(n.type)) + "\n";
      for (const std::unique_ptr<Series>& s : series_) {
        if (s->name != n.name) continue;
        const std::string brace =
            s->labels.empty() ? std::string() : "{" + s->labels + "}";
        switch (s->type) {
          case MetricType::kCounter:
            std::snprintf(line, sizeof(line), " %lld\n",
                          static_cast<long long>(s->counter->value()));
            out += s->name + brace + line;
            break;
          case MetricType::kGauge:
            std::snprintf(line, sizeof(line), " %lld\n",
                          static_cast<long long>(s->gauge->value()));
            out += s->name + brace + line;
            break;
          case MetricType::kHistogram: {
            const Histogram& h = *s->histogram;
            const std::string sep = s->labels.empty() ? "" : ",";
            for (int b = 0; b < Histogram::kBuckets; ++b) {
              std::string le;
              if (b == Histogram::kBuckets - 1) {
                le = "+Inf";
              } else {
                std::snprintf(line, sizeof(line), "%lld",
                              static_cast<long long>(
                                  Histogram::bucket_bound(b)));
                le = line;
              }
              std::snprintf(line, sizeof(line), "\"} %lld\n",
                            static_cast<long long>(h.cumulative(b)));
              out += s->name + "_bucket{" + s->labels + sep + "le=\"" + le +
                     line;
            }
            std::snprintf(line, sizeof(line), " %lld\n",
                          static_cast<long long>(h.sum()));
            out += s->name + "_sum" + brace + line;
            std::snprintf(line, sizeof(line), " %lld\n",
                          static_cast<long long>(h.count()));
            out += s->name + "_count" + brace + line;
            // Estimated quantiles as untyped convenience series — what the
            // `top` dashboard and latency gates read without reconstructing
            // buckets client-side.
            static constexpr struct { const char* suffix; double q; }
                kQuantiles[] = {{"_p50", 0.50}, {"_p95", 0.95},
                                {"_p99", 0.99}};
            for (const auto& [suffix, q] : kQuantiles) {
              std::snprintf(line, sizeof(line), " %.6g\n", h.quantile(q));
              out += s->name + suffix + brace + line;
            }
            break;
          }
        }
      }
    }
    return out;
  }

  std::vector<SeriesSample> snapshot_values() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<SeriesSample> out;
    out.reserve(series_.size());
    for (const std::unique_ptr<Series>& s : series_) {
      SeriesSample sample;
      sample.name = s->name;
      sample.labels = s->labels;
      switch (s->type) {
        case MetricType::kCounter:
          sample.type = 'c';
          sample.value = s->counter->value();
          break;
        case MetricType::kGauge:
          sample.type = 'g';
          sample.value = s->gauge->value();
          break;
        case MetricType::kHistogram:
          sample.type = 'h';
          sample.value = s->histogram->count();
          sample.sum = s->histogram->sum();
          sample.p50 = s->histogram->quantile(0.50);
          sample.p95 = s->histogram->quantile(0.95);
          sample.p99 = s->histogram->quantile(0.99);
          break;
      }
      out.push_back(std::move(sample));
    }
    return out;
  }

  void reset_values() {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::unique_ptr<Series>& s : series_) {
      switch (s->type) {
        case MetricType::kCounter: s->counter->reset(); break;
        case MetricType::kGauge: s->gauge->reset(); break;
        case MetricType::kHistogram: s->histogram->reset(); break;
      }
    }
  }

 private:
  Registry() = default;

  // Shared per-type sinks for misregistered series (type clash under one
  // name): increments land somewhere harmless instead of crashing.
  Series& dummy(MetricType type) {
    const int i = static_cast<int>(type);
    if (dummies_[i] == nullptr) {
      dummies_[i] = std::make_unique<Series>();
      dummies_[i]->type = type;
      dummies_[i]->name = "_winofault_type_clash";
      switch (type) {
        case MetricType::kCounter:
          dummies_[i]->counter = std::make_unique<Counter>();
          break;
        case MetricType::kGauge:
          dummies_[i]->gauge = std::make_unique<Gauge>();
          break;
        case MetricType::kHistogram:
          dummies_[i]->histogram = std::make_unique<Histogram>();
          break;
      }
    }
    return *dummies_[i];
  }

  mutable std::mutex mu_;
  std::vector<MetricName> names_;           // HELP/TYPE emission order
  std::vector<std::unique_ptr<Series>> series_;  // registration order
  std::unordered_map<std::string, std::size_t> index_;
  std::unique_ptr<Series> dummies_[3];
};

// ---- Trace sink ----------------------------------------------------------

struct TraceEvent {
  const char* name;
  const char* cat;
  std::int64_t ts_us;
  std::int64_t dur_us;
};

// One buffer per thread. The owning thread appends under the buffer's own
// mutex (uncontended in steady state — flush is the only other party), so
// events survive both thread exit and a mid-run flush without races.
// `flushed` counts events already written to the current sink file;
// incremental flushes only emit events past it.
struct ThreadBuffer {
  std::mutex mu;
  std::uint32_t tid = 0;
  std::vector<TraceEvent> events;
  std::size_t flushed = 0;
};

struct TraceState {
  std::mutex mu;  // guards path, buffer registration, and the sink below
  std::string path;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::uint32_t next_tid = 1;
  // Incremental sink: the open file, the path it serves, the byte offset
  // of the closing "\n]}\n" (each flush seeks back here, appends only new
  // events, and re-finalizes — the file is valid JSON after every flush),
  // and whether any event has been written (comma placement).
  std::FILE* sink = nullptr;
  std::string sink_path;
  std::int64_t sink_tail = 0;
  bool sink_has_events = false;
};

std::atomic<bool> g_tracing{false};
std::once_flag g_trace_env_once;
std::once_flag g_atexit_once;

TraceState& trace_state() {
  static TraceState* state = new TraceState;  // leaked: see Registry
  return *state;
}

std::chrono::steady_clock::time_point process_t0() {
  static const std::chrono::steady_clock::time_point t0 =
      std::chrono::steady_clock::now();
  return t0;
}

void dump_metrics_at_exit() {
  const std::string target = env_string("WINOFAULT_METRICS", "");
  if (target.empty()) return;
  const std::string text = prometheus_text();
  if (target == "-" || target == "stderr") {
    std::fwrite(text.data(), 1, text.size(), stderr);
    return;
  }
  if (std::FILE* f = std::fopen(target.c_str(), "w")) {
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }
}

void at_exit_hook() {
  flush_trace();
  dump_metrics_at_exit();
}

void register_exit_hook() {
  std::call_once(g_atexit_once, [] { std::atexit(at_exit_hook); });
}

void init_tracing_from_env() {
  std::call_once(g_trace_env_once, [] {
    (void)process_t0();  // pin the timebase before the first span
    const std::string path = env_string("WINOFAULT_TRACE", "");
    const bool metrics_dump = !env_string("WINOFAULT_METRICS", "").empty();
    if (!path.empty()) {
      std::lock_guard<std::mutex> lock(trace_state().mu);
      trace_state().path = path;
      g_tracing.store(true, std::memory_order_release);
    }
    if (!path.empty() || metrics_dump) register_exit_hook();
  });
}

// Lazy env init runs on first telemetry touch of any kind; a static
// initializer covers processes that never construct a span before exit.
struct EnvInit {
  EnvInit() { init_tracing_from_env(); }
} g_env_init;

ThreadBuffer& thread_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto b = std::make_shared<ThreadBuffer>();
    TraceState& state = trace_state();
    std::lock_guard<std::mutex> lock(state.mu);
    b->tid = state.next_tid++;
    state.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

}  // namespace

void Histogram::observe(std::int64_t v) {
  if (v < 0) v = 0;
  int b = 0;
  while (b < kBuckets - 1 && v > bucket_bound(b)) ++b;
  buckets_[b].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

double Histogram::mean() const {
  const std::int64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

std::int64_t Histogram::cumulative(int bucket) const {
  std::int64_t total = 0;
  for (int b = 0; b <= std::min(bucket, kBuckets - 1); ++b) {
    total += buckets_[b].load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::quantile(double q) const {
  const std::int64_t n = count();
  if (n <= 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(n);
  std::int64_t before = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const std::int64_t in_bucket = buckets_[b].load(std::memory_order_relaxed);
    if (in_bucket == 0) continue;
    const std::int64_t through = before + in_bucket;
    if (static_cast<double>(through) >= target) {
      const double lo =
          b == 0 ? 0.0 : static_cast<double>(bucket_bound(b - 1));
      if (b == kBuckets - 1) return lo;  // +Inf bucket: lower bound
      const double hi = static_cast<double>(bucket_bound(b));
      const double frac = (target - static_cast<double>(before)) /
                          static_cast<double>(in_bucket);
      return lo + frac * (hi - lo);
    }
    before = through;
  }
  return static_cast<double>(bucket_bound(kBuckets - 2));
}

Counter& counter(const std::string& name, const std::string& help,
                 const std::string& labels) {
  return *Registry::instance()
              .get_or_create(MetricType::kCounter, name, help, labels)
              .counter;
}

Gauge& gauge(const std::string& name, const std::string& help,
             const std::string& labels) {
  return *Registry::instance()
              .get_or_create(MetricType::kGauge, name, help, labels)
              .gauge;
}

Histogram& histogram(const std::string& name, const std::string& help,
                     const std::string& labels) {
  return *Registry::instance()
              .get_or_create(MetricType::kHistogram, name, help, labels)
              .histogram;
}

std::string prometheus_text() { return Registry::instance().render(); }

std::vector<SeriesSample> snapshot() {
  return Registry::instance().snapshot_values();
}

void reset_for_test() { Registry::instance().reset_values(); }

bool tracing_enabled() {
  init_tracing_from_env();
  return g_tracing.load(std::memory_order_relaxed);
}

void set_trace_path(const std::string& path) {
  init_tracing_from_env();
  {
    std::lock_guard<std::mutex> lock(trace_state().mu);
    trace_state().path = path;
  }
  if (!path.empty()) register_exit_hook();
  g_tracing.store(!path.empty(), std::memory_order_release);
}

std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - process_t0())
      .count();
}

void flush_trace() {
  TraceState& state = trace_state();
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.path.empty()) {
    // Sink cleared: the file was finalized by the last flush — just close.
    if (state.sink != nullptr) {
      std::fclose(state.sink);
      state.sink = nullptr;
      state.sink_path.clear();
    }
    return;
  }
  if (state.sink != nullptr && state.sink_path != state.path) {
    std::fclose(state.sink);  // already valid JSON from its last flush
    state.sink = nullptr;
  }
  if (state.sink == nullptr) {
    std::FILE* f = std::fopen(state.path.c_str(), "w");
    if (f == nullptr) return;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
    state.sink = f;
    state.sink_path = state.path;
    state.sink_tail = std::ftell(f);
    state.sink_has_events = false;
    // A fresh sink starts from the beginning of every buffer, so a path
    // change carries the full history into the new file.
    for (const std::shared_ptr<ThreadBuffer>& buffer : state.buffers) {
      std::lock_guard<std::mutex> buffer_lock(buffer->mu);
      buffer->flushed = 0;
    }
  }
  // Seek back over the previous finalization and append only the events
  // each buffer gained since its last flush.
  std::FILE* f = state.sink;
  if (std::fseek(f, static_cast<long>(state.sink_tail), SEEK_SET) != 0) {
    return;
  }
  const std::int64_t pid = ::getpid();
  for (const std::shared_ptr<ThreadBuffer>& buffer : state.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    for (std::size_t i = buffer->flushed; i < buffer->events.size(); ++i) {
      const TraceEvent& e = buffer->events[i];
      Json event = Json::object();
      event.set("name", Json::str(e.name));
      event.set("cat", Json::str(e.cat));
      event.set("ph", Json::str("X"));
      event.set("ts", Json::integer(e.ts_us));
      event.set("dur", Json::integer(e.dur_us));
      event.set("pid", Json::integer(pid));
      event.set("tid", Json::unsigned_integer(buffer->tid));
      std::fprintf(f, "%s\n%s", state.sink_has_events ? "," : "",
                   event.dump().c_str());
      state.sink_has_events = true;
    }
    buffer->flushed = buffer->events.size();
  }
  state.sink_tail = std::ftell(f);
  // Finalize: the closing bytes are constant, so the next flush's appends
  // always reach past them — no truncation needed.
  std::fputs("\n]}\n", f);
  std::fflush(f);
}

TraceSpan::TraceSpan(const char* name, const char* cat)
    : name_(name), cat_(cat), start_us_(-1) {
  if (tracing_enabled()) start_us_ = now_us();
}

TraceSpan::~TraceSpan() {
  if (start_us_ < 0) return;
  // A span opened while tracing was on records even if the sink was
  // cleared meanwhile — flush decides what reaches disk.
  TraceEvent event{name_, cat_, start_us_, now_us() - start_us_};
  if (event.dur_us < 0) event.dur_us = 0;
  ThreadBuffer& buffer = thread_buffer();
  std::lock_guard<std::mutex> lock(buffer.mu);
  buffer.events.push_back(event);
}

}  // namespace winofault::telemetry
