// Resident-service benchmark -> BENCH_service.json: what does winofaultd's
// warm cross-submission state buy over cold-starting a figure process?
//
// The binary hosts an in-process ServiceServer on a scratch socket and
// submits the same fig1-regime campaign four times:
//
//   cold_submit_s    first submission: the daemon builds the model +
//                    teacher dataset and every golden from scratch
//   warm_submit_s    identical spec again: model, dataset, and all
//                    goldens served from the warm session (fault replay
//                    still re-executes every cell)
//   stored_submit_s  identical spec with a fresh store: every cell runs
//                    on warm goldens and is journaled, and each golden
//                    it uses is saved as a shard
//   stored_replay_s  the stored spec again: nothing executes at all
//
// warm_speedup = cold_submit_s / warm_submit_s is the headline (the
// acceptance bar is >= 2x); every submission is verified bit-identical to
// a direct in-process CampaignRunner run (exit 1 on any disagreement).
//
// Knobs: WINOFAULT_IMAGES (default 10), WINOFAULT_TRIALS (default 1),
// WINOFAULT_SEED.
#include <chrono>
#include <cstdio>
#include <filesystem>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/telemetry/telemetry.h"
#include "core/campaign/campaign.h"
#include "core/service/client.h"
#include "core/service/server.h"

using namespace winofault;
using namespace winofault::bench;

namespace {

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
      point.tag = "bench-service";
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

  const BenchEnv env = bench_env();
  const int trials = env_int("WINOFAULT_TRIALS", 1);
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
  ServiceServer server(options);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "bench_service: %s\n", error.c_str());
    return 1;
  }

  ModelEnv model_env;
  model_env.model = model;
  model_env.dtype = DType::kInt16;
  model_env.images = env.images;
  model_env.seed = env.seed;
  model_env.width = env.width_override;
  model_env.env_hash = campaign_env_hash(m.net, m.data);

  const auto submit = [&](const char* label, const CampaignSpec& s,
                          double* seconds,
                          CampaignStats* stats) -> CampaignResult {
    ServiceClient client;
    if (!client.connect(socket_path, &error)) {
      std::fprintf(stderr, "bench_service: %s\n", error.c_str());
      std::exit(1);
    }
    const auto start = std::chrono::steady_clock::now();
    const auto outcome =
        client.submit_and_wait("bench_service", model_env, s);
    *seconds = seconds_since(start);
    if (!outcome.ok) {
      std::fprintf(stderr, "bench_service: %s submission failed: %s\n",
                   label, outcome.error.c_str());
      std::exit(1);
    }
    if (stats != nullptr) *stats = outcome.result.stats;
    std::printf("%s: %.3fs (goldens built %lld, hits %lld, journal "
                "loaded %lld)\n",
                label, *seconds,
                static_cast<long long>(outcome.result.stats.golden_builds),
                static_cast<long long>(outcome.result.stats.golden_hits),
                static_cast<long long>(
                    outcome.result.stats.journal_cells_loaded));
    return outcome.result;
  };

  double cold_s = 0, warm_s = 0, stored_cold_s = 0, stored_warm_s = 0;
  CampaignStats cold_stats, warm_stats, stored_stats;
  const CampaignResult cold = submit("cold submit", spec, &cold_s,
                                     &cold_stats);
  const CampaignResult warm = submit("warm submit", spec, &warm_s,
                                     &warm_stats);
  // Stored pair: the first journals every cell (goldens still warm), the
  // second replays the journal without executing anything.
  CampaignSpec stored_spec = spec;
  stored_spec.store = store_options(store_dir);
  const CampaignResult stored_first =
      submit("stored submit", stored_spec, &stored_cold_s, nullptr);
  const CampaignResult stored_replay =
      submit("stored replay", stored_spec, &stored_warm_s, &stored_stats);

  bool identical = true;
  for (const auto* result : {&cold, &warm, &stored_first, &stored_replay}) {
    identical = identical && same_results(reference, *result);
  }
  if (!identical) {
    std::fprintf(stderr,
                 "bench_service: daemon results diverge from the direct "
                 "run\n");
    return 1;
  }
  std::printf("all submissions bit-identical to the direct run\n");

  // Queue latency across the four submissions: the server hosts in this
  // process, so its telemetry histogram is directly readable. With
  // concurrent_jobs=1 and serial submissions this is pure dispatch
  // overhead — admission to queued->running handoff.
  telemetry::Histogram& queue_hist = telemetry::histogram(
      "winofault_service_queue_latency_us",
      "microseconds jobs spend queued before running");
  const double queue_latency_ms =
      queue_hist.count() > 0 ? queue_hist.mean() / 1e3 : 0.0;
  const double queue_latency_p95_ms =
      queue_hist.count() > 0 ? queue_hist.quantile(0.95) / 1e3 : 0.0;
  std::printf("mean queue latency: %.3f ms (p95 %.3f ms) over %lld job(s)\n",
              queue_latency_ms, queue_latency_p95_ms,
              static_cast<long long>(queue_hist.count()));

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
      .set("warm_golden_builds", Json::integer(warm_stats.golden_builds))
      .set("warm_golden_hits", Json::integer(warm_stats.golden_hits))
      .set("replay_journal_cells_loaded",
           Json::integer(stored_stats.journal_cells_loaded))
      .set("hardware_threads", Json::integer(default_thread_count()));
  write_bench_json("BENCH_service.json", json);

  server.request_drain();
  server.wait();
  std::filesystem::remove_all(scratch);
  return 0;
}
