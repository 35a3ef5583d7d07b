// winofault-cli — thin control client for winofaultd (core/service).
// Figure submissions normally go through the fig drivers' --daemon mode;
// this tool covers the operational verbs:
//
//   winofault-cli --socket PATH ping
//   winofault-cli --socket PATH status JOB
//   winofault-cli --socket PATH cancel JOB
//   winofault-cli --socket PATH drain
//   winofault-cli --socket PATH stats [--raw]
//   winofault-cli --socket PATH top [--once] [--interval N]
//
// `stats` fetches the daemon's `metrics` verb (the cross-tier telemetry
// registry) and renders it as a table; --raw prints the Prometheus text
// exposition verbatim, suitable for piping into a scrape file.
//
// `top` is the live flight-recorder dashboard: it combines the `history`
// verb (the daemon's sampler ring) with `ping` to render jobs, sessions,
// throughput, queue depth, and queue-latency p95 as unicode sparklines,
// refreshing in place. --once emits a single frame with no escape codes
// (CI smoke checks parse it).
//
// Every other response is echoed as its raw JSON line; the exit code is 0
// when the daemon answered ok:true, 1 otherwise.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/json.h"
#include "core/service/client.h"

namespace {

using winofault::Json;
using winofault::ServiceClient;

void usage(const char* prog, std::FILE* to) {
  std::fprintf(
      to,
      "usage: %s --socket PATH "
      "<ping|drain|stats [--raw]|top [--once] [--interval N]|"
      "status JOB|cancel JOB>\n",
      prog);
}

// Renders a Prometheus text exposition as a plain table: one section per
// metric (name + help from the # HELP line), one row per series. Histogram
// _bucket series are elided — the _sum/_count pair and the _p50/_p95/_p99
// quantile lines carry the summary — so the table stays scannable; --raw
// has the full distribution.
void print_metrics_table(const std::string& text) {
  std::string help;
  std::size_t start = 0;
  bool first = true;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    if (line.rfind("# HELP ", 0) == 0) {
      const std::size_t name_end = line.find(' ', 7);
      const std::string name =
          name_end == std::string::npos ? line.substr(7)
                                        : line.substr(7, name_end - 7);
      help = name_end == std::string::npos ? std::string()
                                           : line.substr(name_end + 1);
      std::printf("%s%s%s%s\n", first ? "" : "\n", name.c_str(),
                  help.empty() ? "" : " — ", help.c_str());
      first = false;
      continue;
    }
    if (line[0] == '#') continue;  // TYPE
    // Series line: `name{labels} value` or `name value`.
    const std::size_t value_at = line.rfind(' ');
    if (value_at == std::string::npos) continue;
    const std::string series = line.substr(0, value_at);
    if (series.find("_bucket{") != std::string::npos) continue;
    std::printf("  %-58s %s\n", series.c_str(),
                line.c_str() + value_at + 1);
  }
}

// Eight-level unicode sparkline scaled to the window maximum; an all-zero
// (or empty) window renders as flat ▁s so the column widths stay stable
// between frames.
std::string sparkline(const std::vector<double>& values) {
  static const char* kBars[] = {"▁", "▂", "▃", "▄",
                                "▅", "▆", "▇", "█"};
  double max = 0.0;
  for (double v : values) max = v > max ? v : max;
  std::string out;
  for (double v : values) {
    int level = 0;
    if (max > 0.0 && v > 0.0) {
      level = static_cast<int>((v / max) * 7.0 + 0.5);
      if (level < 0) level = 0;
      if (level > 7) level = 7;
    }
    out += kBars[level];
  }
  return out;
}

// Pulls one numeric track out of a `history` reply: for counters/gauges
// the per-sample value; for histograms the named summary field ("p95",
// "count", ...). Missing samples read as 0.
std::vector<double> series_track(const Json& samples, const char* key,
                                 const char* hist_field) {
  std::vector<double> out;
  for (const Json& sample : samples.elements()) {
    const Json* series = sample.find("series");
    const Json* entry = series != nullptr ? series->find(key) : nullptr;
    if (entry == nullptr) {
      out.push_back(0.0);
    } else if (entry->is_object()) {
      const Json* field = entry->find(hist_field);
      out.push_back(field != nullptr ? field->as_double() : 0.0);
    } else {
      out.push_back(entry->as_double());
    }
  }
  return out;
}

// Counter track -> per-interval deltas (throughput). The first sample has
// no predecessor, so the track shortens by one; negative deltas (daemon
// restart between samples) clamp to 0.
std::vector<double> deltas(const std::vector<double>& track) {
  std::vector<double> out;
  for (std::size_t i = 1; i < track.size(); ++i) {
    const double d = track[i] - track[i - 1];
    out.push_back(d > 0.0 ? d : 0.0);
  }
  return out;
}

double last_or_zero(const std::vector<double>& track) {
  return track.empty() ? 0.0 : track.back();
}

// One dashboard frame. Returns false when the daemon stopped answering
// (the refresh loop then exits with an error instead of spinning).
bool top_frame(ServiceClient& client, const std::string& socket_path,
               bool ansi, std::string* error) {
  Json history_req = Json::object();
  history_req.set("op", Json::str("history"));
  history_req.set("prefix", Json::str("winofault_service_"));
  const std::optional<Json> history = client.request(history_req, error);
  if (!history.has_value()) return false;
  Json ping_req = Json::object();
  ping_req.set("op", Json::str("ping"));
  const std::optional<Json> ping = client.request(ping_req, error);
  if (!ping.has_value()) return false;

  const Json* samples = history->find("samples");
  static const Json kEmptyArray = Json::array();
  if (samples == nullptr || !samples->is_array()) samples = &kEmptyArray;
  const Json* interval = history->find("interval_s");
  const long interval_s =
      interval != nullptr ? static_cast<long>(interval->as_int(5)) : 5;

  const std::vector<double> done = deltas(series_track(
      *samples, "winofault_service_jobs_done_total", "count"));
  const std::vector<double> submitted = deltas(series_track(
      *samples, "winofault_service_jobs_submitted_total", "count"));
  const std::vector<double> queued =
      series_track(*samples, "winofault_service_jobs_queued", "count");
  const std::vector<double> sessions =
      series_track(*samples, "winofault_service_sessions_active", "count");
  std::vector<double> latency_p95_ms = series_track(
      *samples, "winofault_service_queue_latency_us", "p95");
  for (double& v : latency_p95_ms) v /= 1000.0;

  if (ansi) std::fputs("\x1b[H\x1b[J", stdout);
  const Json* pid = ping->find("pid");
  std::printf("winofault top — %s (pid %lld, %zu samples @ %lds)\n",
              socket_path.c_str(),
              pid != nullptr ? static_cast<long long>(pid->as_int()) : 0LL,
              samples->elements().size(), interval_s);
  const Json* draining = ping->find("draining");
  std::printf("state: %s   queued %lld   sessions %lld   tracked %lld\n\n",
              draining != nullptr && draining->as_bool(false) ? "draining"
                                                              : "serving",
              static_cast<long long>(ping->find("queued") != nullptr
                                         ? ping->find("queued")->as_int()
                                         : 0),
              static_cast<long long>(ping->find("sessions") != nullptr
                                         ? ping->find("sessions")->as_int()
                                         : 0),
              static_cast<long long>(
                  ping->find("jobs_tracked") != nullptr
                      ? ping->find("jobs_tracked")->as_int()
                      : 0));
  std::printf("  %-22s %8.0f  %s\n", "jobs done/interval",
              last_or_zero(done), sparkline(done).c_str());
  std::printf("  %-22s %8.0f  %s\n", "submits/interval",
              last_or_zero(submitted), sparkline(submitted).c_str());
  std::printf("  %-22s %8.0f  %s\n", "queue depth",
              last_or_zero(queued), sparkline(queued).c_str());
  std::printf("  %-22s %8.0f  %s\n", "sessions active",
              last_or_zero(sessions), sparkline(sessions).c_str());
  std::printf("  %-22s %8.2f  %s\n", "queue p95 (ms)",
              last_or_zero(latency_p95_ms),
              sparkline(latency_p95_ms).c_str());
  std::fflush(stdout);
  return true;
}

// parse_int rejects "2x" and any value outside int's range: 4294967297
// must not narrow to a 1 s refresh, nor a saturated value sleep for years.
int positive_arg(const char* prog, const char* flag, const char* value) {
  int parsed = 0;
  if (!winofault::parse_int(value, &parsed) || parsed < 1) {
    std::fprintf(stderr, "%s: bad value '%s' for %s\n", prog, value, flag);
    usage(prog, stderr);
    std::exit(2);
  }
  return parsed;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string verb;
  std::string job;
  bool raw = false;
  bool once = false;
  int interval_s = 2;  // top refresh cadence
  const char* prog = argc > 0 ? argv[0] : "winofault-cli";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      usage(prog, stdout);
      return 0;
    }
    if (std::strcmp(argv[i], "--raw") == 0) {
      raw = true;
    } else if (std::strcmp(argv[i], "--once") == 0) {
      once = true;
    } else if (std::strcmp(argv[i], "--interval") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --interval requires a value\n", prog);
        return 2;
      }
      interval_s = positive_arg(prog, "--interval", argv[++i]);
    } else if (std::strcmp(argv[i], "--socket") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --socket requires a value\n", prog);
        return 2;
      }
      socket_path = argv[++i];
    } else if (verb.empty()) {
      verb = argv[i];
    } else if (job.empty()) {
      job = argv[i];
    } else {
      std::fprintf(stderr, "%s: unexpected argument '%s'\n", prog, argv[i]);
      usage(prog, stderr);
      return 2;
    }
  }
  if (socket_path.empty() || verb.empty()) {
    usage(prog, stderr);
    return 2;
  }
  const bool needs_job = verb == "status" || verb == "cancel";
  if (needs_job == job.empty()) {
    std::fprintf(stderr, needs_job ? "%s: '%s' needs a job id\n"
                                   : "%s: '%s' takes no job id\n",
                 prog, verb.c_str());
    return 2;
  }
  if (verb != "ping" && verb != "drain" && verb != "stats" &&
      verb != "top" && !needs_job) {
    std::fprintf(stderr, "%s: unknown verb '%s'\n", prog, verb.c_str());
    usage(prog, stderr);
    return 2;
  }
  if (raw && verb != "stats") {
    std::fprintf(stderr, "%s: --raw only applies to 'stats'\n", prog);
    return 2;
  }
  if (once && verb != "top") {
    std::fprintf(stderr, "%s: --once only applies to 'top'\n", prog);
    return 2;
  }

  ServiceClient client;
  std::string error;
  if (!client.connect(socket_path, &error)) {
    std::fprintf(stderr, "%s: %s\n", prog, error.c_str());
    return 1;
  }

  if (verb == "top") {
    // --once: one frame, no escape codes (parseable by CI smoke checks).
    // Otherwise redraw in place until interrupted or the daemon goes away.
    for (;;) {
      if (!top_frame(client, socket_path, /*ansi=*/!once, &error)) {
        std::fprintf(stderr, "%s: %s\n", prog, error.c_str());
        return 1;
      }
      if (once) return 0;
      ::sleep(static_cast<unsigned>(interval_s));
    }
  }

  Json request = Json::object();
  request.set("op", Json::str(verb == "stats" ? "metrics" : verb.c_str()));
  if (!job.empty()) request.set("job", Json::str(job));
  if (verb == "status") request.set("wait", Json::boolean(false));
  const std::optional<Json> response = client.request(request, &error);
  if (!response.has_value()) {
    std::fprintf(stderr, "%s: %s\n", prog, error.c_str());
    return 1;
  }
  const Json* ok = response->find("ok");
  const bool answered_ok = ok != nullptr && ok->as_bool(false);
  if (verb == "stats" && answered_ok) {
    const Json* metrics = response->find("metrics");
    const std::string text =
        metrics != nullptr ? metrics->as_string() : std::string();
    if (raw) {
      std::fputs(text.c_str(), stdout);
    } else {
      print_metrics_table(text);
    }
    return 0;
  }
  std::printf("%s\n", response->dump().c_str());
  return answered_ok ? 0 : 1;
}
