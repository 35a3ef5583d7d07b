// Resident-service benchmark -> BENCH_service.json: what does winofaultd's
// warm cross-submission state buy over cold-starting a figure process?
//
// The binary hosts an in-process ServiceServer on a scratch socket and
// submits the same fig1-regime campaign, serially:
//
//   cold_submit_s    the first submission to a freshly started server: the
//                    daemon builds the model + teacher dataset and every
//                    golden from scratch; the median of kColdSubmissions,
//                    each against a new server
//   warm_submit_s    identical spec again to the last server: model,
//                    dataset, and all goldens served from the session's
//                    runner (fault replay still re-executes every cell);
//                    the median of kWarmSubmissions
//   stored_submit_s  identical spec with a fresh store: every cell runs
//                    on warm goldens and is journaled, and each golden
//                    it uses is saved as a shard
//   stored_replay_s  the stored spec again, kStoredReplays times: nothing
//                    executes at all; the median of the repetitions
//
// warm_speedup = cold_submit_s / warm_submit_s is the headline (the
// acceptance bar is >= 2x) and stored_replay_speedup = cold_submit_s /
// stored_replay_s; both divide medians. Every submission is verified
// bit-identical to a direct in-process CampaignRunner run, and a warm
// submission must build no golden (exit 1 on either failure).
// queue_latency_p95_ms is the nearest-rank p95 of every submission's exact
// queue wait, read from the server's last-job gauge after each one; with
// kColdSubmissions + kWarmSubmissions + kStoredReplays + 1 waits it has
// at least ten samples beyond it.
//
// Knobs: WINOFAULT_IMAGES (default 10), WINOFAULT_TRIALS (default 1),
// WINOFAULT_SEED.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <numeric>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/telemetry/telemetry.h"
#include "core/campaign/campaign.h"
#include "core/service/client.h"
#include "core/service/server.h"

using namespace winofault;
using namespace winofault::bench;

namespace {

// Every timing is a median over repetitions, because a single sample
// swings with the host. A cold submission (~0.2 s at 4 images) restarts
// the server each time; a warm one takes a few ms; a journal-served one
// 0.1-0.5 ms, so 200 of them take well under 0.1 s.
constexpr int kColdSubmissions = 5;
constexpr int kWarmSubmissions = 20;
constexpr int kStoredReplays = 200;

CampaignSpec bench_spec(std::uint64_t seed, int trials) {
  // Fig1 regime at low BER: replay after the golden build is nearly free
  // (a handful of flips, diff-pruned cones), so the split between cold
  // and warm isolates exactly the state the daemon keeps resident —
  // model + dataset build and the golden forwards.
  CampaignSpec spec;
  for (const double ber : {1e-9, 4e-9, 1e-8}) {
    for (const ConvPolicy policy :
         {ConvPolicy::kDirect, ConvPolicy::kWinograd2}) {
      CampaignPoint point;
      point.fault.ber = ber;
      point.policy = policy;
      point.seed = seed;
      point.trials = trials;
      spec.points.push_back(std::move(point));
    }
  }
  return spec;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return (samples[(n - 1) / 2] + samples[n / 2]) / 2;
}

bool same_results(const CampaignResult& a, const CampaignResult& b) {
  if (a.points.size() != b.points.size()) return false;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    if (a.points[i].accuracy != b.points[i].accuracy ||
        a.points[i].avg_flips != b.points[i].avg_flips ||
        a.points[i].images != b.points[i].images) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli = parse_cli(argc, argv);
  reject_dist_cli(cli, "bench_service",
                  "the service benchmark hosts its own daemon");
  note_store_unused(cli, "bench_service manages its own scratch store");

  const BenchEnv env = bench_env(argv[0]);
  const int trials = int_knob(argv[0], "WINOFAULT_TRIALS", 1, 1);
  const std::string scratch =
      std::filesystem::temp_directory_path() /
      ("winofault_bench_service_" + std::to_string(::getpid()));
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);
  const std::string socket_path = scratch + "/winofaultd.sock";
  const std::string store_dir = scratch + "/store";

  const std::string model = "vgg19";
  std::printf("== bench_service: %s int16, %d images, trials=%d ==\n",
              model.c_str(), env.images, trials);

  // Direct in-process reference (also the bit-identity oracle).
  ModelUnderTest m = make_model(model, DType::kInt16, env);
  const CampaignSpec spec = bench_spec(env.seed, trials);
  const auto direct_start = std::chrono::steady_clock::now();
  const CampaignResult reference = run_campaign(m.net, m.data, spec);
  const double direct_s = seconds_since(direct_start);
  std::printf("direct in-process run: %.3fs\n", direct_s);

  ServerOptions options;
  options.socket_path = socket_path;
  options.concurrent_jobs = 1;  // latency benchmark: no overlap noise
  std::string error;
  // A fresh server holds no session, so its first submission is cold.
  const auto start_server = [&] {
    auto server = std::make_unique<ServiceServer>(options);
    if (!server->start(&error)) {
      std::fprintf(stderr, "bench_service: %s\n", error.c_str());
      std::exit(1);
    }
    return server;
  };
  std::unique_ptr<ServiceServer> server;

  ModelEnv submit_env = model_env(model, DType::kInt16, env.images, env);
  submit_env.env_hash = campaign_env_hash(m.net, m.data);

  // The server hosts in this process, so its telemetry is directly
  // readable. With concurrent_jobs=1 and serial submissions a job's queue
  // wait is pure dispatch overhead (admission to the queued->running
  // handoff), and the last-job gauge holds it exactly once the submission
  // returns.
  telemetry::Gauge& last_wait_us = telemetry::gauge(
      "winofault_service_last_queue_latency_us",
      "queue latency of the most recently started job");
  std::vector<double> queue_waits_ms;
  bool identical = true;
  const auto submit = [&](const char* label, const CampaignSpec& s,
                          double* seconds, CampaignStats* stats,
                          bool print = true) {
    ServiceClient client;
    if (!client.connect(socket_path, &error)) {
      std::fprintf(stderr, "bench_service: %s\n", error.c_str());
      std::exit(1);
    }
    const auto start = std::chrono::steady_clock::now();
    const auto outcome =
        client.submit_and_wait("bench_service", submit_env, s);
    *seconds = seconds_since(start);
    if (!outcome.ok) {
      std::fprintf(stderr, "bench_service: %s submission failed: %s\n",
                   label, outcome.error.c_str());
      std::exit(1);
    }
    queue_waits_ms.push_back(static_cast<double>(last_wait_us.value()) / 1e3);
    identical = identical && same_results(reference, outcome.result);
    if (stats != nullptr) *stats = outcome.result.stats;
    if (print) {
      std::printf("%s: %.3fs (goldens built %lld, hits %lld, journal "
                  "loaded %lld)\n",
                  label, *seconds,
                  static_cast<long long>(outcome.result.stats.golden_builds),
                  static_cast<long long>(outcome.result.stats.golden_hits),
                  static_cast<long long>(
                      outcome.result.stats.journal_cells_loaded));
    }
  };

  std::vector<double> colds_s(kColdSubmissions);
  CampaignStats cold_stats, warm_stats, stored_stats;
  for (double& cold_s : colds_s) {
    if (server != nullptr) {
      server->request_drain();
      server->wait();
    }
    server = start_server();
    submit("cold submit", spec, &cold_s, &cold_stats);
  }
  const double cold_s = median(colds_s);
  std::vector<double> warms_s(kWarmSubmissions);
  std::int64_t warm_builds = 0;
  for (double& warm_s : warms_s) {
    submit("warm submit", spec, &warm_s, &warm_stats, false);
    warm_builds += warm_stats.golden_builds;
  }
  const double warm_s = median(warms_s);
  std::printf("cold submits: median %.3f s of %d fresh servers (%.3f-%.3f "
              "s)\n",
              cold_s, kColdSubmissions,
              *std::min_element(colds_s.begin(), colds_s.end()),
              *std::max_element(colds_s.begin(), colds_s.end()));
  std::printf("warm submits: median %.3f ms of %d (%.3f-%.3f ms), goldens "
              "built %lld, hits %lld\n",
              warm_s * 1e3, kWarmSubmissions,
              *std::min_element(warms_s.begin(), warms_s.end()) * 1e3,
              *std::max_element(warms_s.begin(), warms_s.end()) * 1e3,
              static_cast<long long>(warm_builds),
              static_cast<long long>(warm_stats.golden_hits));
  double stored_cold_s = 0;
  // Stored: the first submission journals every cell (goldens still
  // warm), every later one replays the journal without executing anything.
  CampaignSpec stored_spec = spec;
  stored_spec.store = store_options(store_dir, env);
  submit("stored submit", stored_spec, &stored_cold_s, nullptr);
  std::vector<double> replays_s(kStoredReplays);
  for (double& replay_s : replays_s) {
    submit("stored replay", stored_spec, &replay_s, &stored_stats, false);
  }
  const double stored_warm_s = median(replays_s);
  std::printf("stored replay: median %.3f ms of %d (%.3f-%.3f ms), journal "
              "loaded %lld\n",
              stored_warm_s * 1e3, kStoredReplays,
              *std::min_element(replays_s.begin(), replays_s.end()) * 1e3,
              *std::max_element(replays_s.begin(), replays_s.end()) * 1e3,
              static_cast<long long>(stored_stats.journal_cells_loaded));

  if (!identical) {
    std::fprintf(stderr,
                 "bench_service: daemon results diverge from the direct "
                 "run\n");
    return 1;
  }
  std::printf("all submissions bit-identical to the direct run\n");
  // The session's runner keeps every golden of its first submission.
  if (warm_builds != 0) {
    std::fprintf(stderr,
                 "bench_service: warm submissions built %lld golden(s); "
                 "the session must serve them all\n",
                 static_cast<long long>(warm_builds));
    return 1;
  }

  std::sort(queue_waits_ms.begin(), queue_waits_ms.end());
  const std::size_t waits = queue_waits_ms.size();
  const double queue_latency_ms =
      std::accumulate(queue_waits_ms.begin(), queue_waits_ms.end(), 0.0) /
      static_cast<double>(waits);
  const double queue_latency_p95_ms = queue_waits_ms[static_cast<std::size_t>(
      std::ceil(0.95 * static_cast<double>(waits))) - 1];
  std::printf("mean queue latency: %.3f ms (p95 %.3f ms) over %zu job(s)\n",
              queue_latency_ms, queue_latency_p95_ms, waits);

  const double warm_speedup = warm_s > 0 ? cold_s / warm_s : 0.0;
  const double replay_speedup =
      stored_warm_s > 0 ? cold_s / stored_warm_s : 0.0;
  std::printf("warm submission speedup: %.1fx (replay-from-journal: "
              "%.1fx)\n",
              warm_speedup, replay_speedup);
  if (warm_speedup < 2.0) {
    std::fprintf(stderr,
                 "warning: warm speedup %.2fx below the 2x acceptance "
                 "bar\n",
                 warm_speedup);
  }

  Json json = Json::object();
  json.set("model", Json::str(model))
      .set("images", Json::integer(env.images))
      .set("trials", Json::integer(trials))
      .set("points", Json::integer(spec.points.size()))
      .set("direct_s", Json::number(direct_s))
      .set("cold_submit_s", Json::number(cold_s))
      .set("warm_submit_s", Json::number(warm_s))
      .set("stored_submit_s", Json::number(stored_cold_s))
      .set("stored_replay_s", Json::number(stored_warm_s))
      .set("warm_speedup", Json::number(warm_speedup))
      .set("stored_replay_speedup", Json::number(replay_speedup))
      .set("queue_latency_ms", Json::number(queue_latency_ms))
      .set("queue_latency_p95_ms", Json::number(queue_latency_p95_ms))
      .set("cold_golden_builds", Json::integer(cold_stats.golden_builds))
      .set("warm_golden_builds", Json::integer(warm_builds))
      .set("warm_golden_hits", Json::integer(warm_stats.golden_hits))
      .set("replay_journal_cells_loaded",
           Json::integer(stored_stats.journal_cells_loaded))
      .set("hardware_threads", Json::integer(default_thread_count()));
  write_bench_json("BENCH_service.json", json);

  server->request_drain();
  server->wait();
  std::filesystem::remove_all(scratch);
  return 0;
}
