// Service-layer probe of stored_shards' traced run: an in-process
// ServiceServer on a socket under the run's scratch directory and one
// ServiceClient in a closed loop — the next submission starts after the
// previous result arrives. Each submission is a small fig1-style VGG19
// int16 campaign ({direct, winograd2} x {op, neuron} x 3 BERs x 1 trial)
// with a fresh seed, so nothing is deduped or journal-served while the
// session's goldens stay warm. It is the only path through protocol,
// scheduler and session. Every tenth submission is re-run through an
// in-process CampaignRunner and must agree.
#include <unistd.h>

#include "common.h"
#include "common/telemetry/telemetry.h"
#include "core/analysis/network_sweep.h"
#include "core/service/client.h"
#include "core/service/server.h"
#include "core/service/session.h"
#include "core/store/hash.h"
#include "trace.h"

namespace perfbench {

using namespace winofault;

namespace {

constexpr int kSubmissions = 50;
constexpr int kOracleEvery = 10;

CampaignSpec submission(const Run& run, std::uint64_t k) {
  std::vector<SweepOptions> configs;
  for (const auto& [policy, mode] :
       {std::pair{ConvPolicy::kDirect, InjectionMode::kOpLevel},
        std::pair{ConvPolicy::kWinograd2, InjectionMode::kOpLevel},
        std::pair{ConvPolicy::kDirect, InjectionMode::kNeuronLevel},
        std::pair{ConvPolicy::kWinograd2, InjectionMode::kNeuronLevel}}) {
    SweepOptions options;
    options.bers = {1e-9, 1e-8, 1e-7};
    options.policy = policy;
    options.mode = mode;
    options.seed = run.seed * 1000003ULL + k;
    options.threads = run.threads;
    configs.push_back(std::move(options));
  }
  return sweep_campaign(configs);
}

}  // namespace

void run_service_probe(Run& run, const Model& model) {
  ModelEnv env;
  env.model = model.name;
  env.dtype = model.dtype;
  env.images = kImages;
  env.seed = kModelSeed;
  env.env_hash = campaign_env_hash(model.net, model.data);

  {
    SessionCache sessions(default_model_env_builder(), 1, 0);
    std::string error;
    const std::int64_t t0 = now_ns();
    {
      Span span("service.session_build");
      run.check(sessions.get_or_build(env, &error) != nullptr,
                "session build: " + error);
    }
    run.set("service.session_build_s", seconds_between(t0, now_ns()));
  }

  ServerOptions options;
  options.socket_path =
      run.scratch_path("d" + std::to_string(::getpid()) + ".sock");
  options.concurrent_jobs = 1;
  options.history_depth = 0;
  ServiceServer server(options);
  ServiceClient client;
  std::string error;
  if (!run.check(server.start(&error) &&
                     client.connect(options.socket_path, &error),
                 "daemon start: " + error)) {
    return;
  }
  telemetry::Gauge& last_wait_us =
      telemetry::gauge("winofault_service_last_queue_latency_us",
                       "queue latency of the most recently started job");
  std::vector<double> waits_us, exec_ms;
  const ServerStats before = server.stats();
  // Submission 0 is the cold one (session build); it is not sampled.
  for (std::uint64_t k = 0; k <= kSubmissions; ++k) {
    trace_set_run(500 + static_cast<std::int64_t>(k));
    const CampaignSpec spec = submission(run, k);
    const std::int64_t t0 = now_ns();
    ServiceClient::SubmitOutcome outcome;
    {
      Span span("service.submit");
      outcome = client.submit_and_wait("perfbench", env, spec);
    }
    const double latency_ms = seconds_between(t0, now_ns()) * 1e3;
    if (!run.check(outcome.ok, "submission failed: " + outcome.error)) break;
    if (k == 0) continue;
    const double wait_us = static_cast<double>(last_wait_us.value());
    waits_us.push_back(wait_us);
    exec_ms.push_back(latency_ms - wait_us / 1e3);
    if (k % kOracleEvery == 0) {
      run.check(same_points(outcome.result.points,
                            traced_campaign(model.net, model.data, spec)
                                .points),
                "daemon submission " + std::to_string(k) +
                    " differs from the in-process run");
    }
  }
  const ServerStats after = server.stats();
  client.close();
  server.request_drain();
  server.wait();

  run.set("service.queue_wait_us.p50", percentile(waits_us, 0.5));
  run.set("service.queue_wait_us.p95", percentile(waits_us, 0.95));
  run.set("service.exec_ms", median(exec_ms));
  run.set("service.rejected",
          static_cast<double>(after.jobs_rejected - before.jobs_rejected));
  run.set("service.deduped",
          static_cast<double>(after.jobs_deduped - before.jobs_deduped));
}

}  // namespace perfbench
