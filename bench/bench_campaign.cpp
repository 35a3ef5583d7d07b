// Fault-sweep campaign throughput: a fig1-style operation-level injection
// campaign (BER x policy grid) timed end-to-end in three modes:
//   campaign        one CampaignSpec over the whole grid — one golden per
//                   image shared across every point, one schedule
//   per_call_cache  point-by-point evaluate() (PR 1: golden cache per call)
//   scratch         point-by-point, every trial recomputed from scratch
// and in two regimes:
//   deep    WINOFAULT_TRIALS trials per (image, point): the golden build
//           amortizes across trials even per call, so this isolates the
//           replay engine's throughput trajectory
//   sweep   1 trial per (image, point), the regime every fig driver runs
//           in: per-call execution pays one golden build per grid point
//           while the campaign pays one per image
// Emits BENCH_campaign.json so CI can track the perf trajectory, plus the
// usual terminal/CSV table. All modes must agree bit-exactly on the
// accuracy checksum.
//
// Extra knobs on top of bench_util.h:
//   WINOFAULT_TRIALS  deep-regime trials per (image, BER) point (default 100)
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>

#include "bench_util.h"
#include "common/telemetry/telemetry.h"
#include "core/analysis/network_sweep.h"
#include "core/campaign/campaign.h"

using namespace winofault;
using namespace winofault::bench;

namespace {

// The campaign runner's phase histogram (microseconds, labeled by phase).
// Reading sum() before/after a run and differencing gives that run's
// attributable phase time — the runner maintains these at its TraceSpan
// sites, the bench only observes.
telemetry::Histogram& phase_hist(const char* phase) {
  return telemetry::histogram(
      "winofault_campaign_phase_us",
      "microseconds per campaign phase unit (golden build, per-cell replay "
      "or scratch inject)",
      std::string("phase=\"") + phase + "\"");
}

constexpr ConvPolicy kPolicies[] = {ConvPolicy::kDirect,
                                    ConvPolicy::kWinograd2};

std::vector<CampaignPoint> campaign_points(const std::vector<double>& bers,
                                           int trials, std::uint64_t seed,
                                           bool reuse_golden) {
  std::vector<CampaignPoint> points;
  for (const double ber : bers) {
    for (const ConvPolicy policy : kPolicies) {
      CampaignPoint point;
      point.fault.ber = ber;
      point.policy = policy;
      point.seed = seed;
      point.trials = trials;
      point.reuse_golden = reuse_golden;
      points.push_back(std::move(point));
    }
  }
  return points;
}

// The same grid under a registry fault model (fault/models): `spec` must
// parse — these are compile-time-chosen literals, so a failure is a bug.
std::vector<CampaignPoint> model_points(const std::vector<double>& bers,
                                        std::uint64_t seed,
                                        const char* spec) {
  const std::optional<FaultModelSpec> model = FaultModelSpec::parse(spec);
  WF_CHECK(model.has_value());
  std::vector<CampaignPoint> points = campaign_points(bers, 1, seed, true);
  for (CampaignPoint& point : points) point.fault.model = *model;
  return points;
}

double timed(const std::function<double()>& body, double* checksum) {
  const auto start = std::chrono::steady_clock::now();
  const double sum = body();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  if (checksum != nullptr) *checksum = sum;
  return elapsed.count();
}

// The whole grid as ONE campaign (cross-point golden sharing).
double run_unified(const Network& net, const Dataset& data,
                   const std::vector<CampaignPoint>& points,
                   CampaignStats* stats) {
  CampaignSpec spec;
  spec.points = points;
  const CampaignResult result = run_campaign(net, data, spec);
  if (stats != nullptr) *stats = result.stats;
  double checksum = 0.0;
  for (const EvalResult& point : result.points) checksum += point.accuracy;
  return checksum;
}

// Point-by-point evaluate() calls (the pre-campaign driver loop).
double run_per_call(const Network& net, const Dataset& data,
                    const std::vector<CampaignPoint>& points) {
  double checksum = 0.0;
  for (const CampaignPoint& point : points) {
    checksum += evaluate(net, data, point).accuracy;
  }
  return checksum;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions cli = parse_cli(argc, argv);
  require_builtin_fault_model(cli, argv[0]);
  note_store_unused(cli,
                    "throughput A/B must execute every mode from scratch");
  reject_dist_cli(cli, argv[0],
                  "throughput A/B must execute every mode from scratch");
  const BenchEnv env = bench_env(argv[0]);
  const int trials = int_knob(argv[0], "WINOFAULT_TRIALS", 100, 1);
  ModelUnderTest m = make_model("vgg19", DType::kInt16, env);
  const std::vector<double> bers = log_ber_grid(1e-9, 1e-7, 3);
  const auto deep = campaign_points(bers, trials, env.seed, true);
  const auto deep_scratch = campaign_points(bers, trials, env.seed, false);
  const auto sweep = campaign_points(bers, 1, env.seed, true);

  // Deep-regime inference count: images * trials * bers * 2 policies.
  const double inferences = static_cast<double>(m.data.size()) * trials *
                            static_cast<double>(bers.size()) * 2.0;
  const double sweep_inferences = static_cast<double>(m.data.size()) *
                                  static_cast<double>(bers.size()) * 2.0;

  double campaign_sum = 0, percall_sum = 0, scratch_sum = 0;
  double sweep_campaign_sum = 0, sweep_percall_sum = 0;
  CampaignStats stats;
  // Phase attribution for the deep campaign run: histogram-sum deltas
  // around the run isolate its golden-build vs execution (replay + inject)
  // split from anything the warmup already recorded.
  const std::int64_t gb_us0 = phase_hist("golden_build").sum();
  const std::int64_t replay_us0 = phase_hist("replay").sum();
  const std::int64_t inject_us0 = phase_hist("inject").sum();
  const double campaign_s = timed(
      [&] { return run_unified(m.net, m.data, deep, &stats); },
      &campaign_sum);
  const double golden_build_s =
      static_cast<double>(phase_hist("golden_build").sum() - gb_us0) / 1e6;
  const double exec_s =
      static_cast<double>(phase_hist("replay").sum() - replay_us0 +
                          phase_hist("inject").sum() - inject_us0) /
      1e6;
  const double percall_s =
      timed([&] { return run_per_call(m.net, m.data, deep); }, &percall_sum);
  const double scratch_s = timed(
      [&] { return run_per_call(m.net, m.data, deep_scratch); },
      &scratch_sum);
  // Sweep regime: the fig-driver shape (1 trial per grid point).
  const double sweep_campaign_s = timed(
      [&] { return run_unified(m.net, m.data, sweep, nullptr); },
      &sweep_campaign_sum);
  const double sweep_percall_s = timed(
      [&] { return run_per_call(m.net, m.data, sweep); }, &sweep_percall_sum);

  // Fault-model regimes (fault/models): the same sweep-shaped grid under a
  // transient weight model (per-trial sampling + dense weight-faulted
  // recompute) and a permanent one (per-point overlay + variant-golden
  // build, then free replays). The two bracket the registry's cost space;
  // CI tracks both trajectories.
  const auto model_transient =
      model_points(bers, env.seed, "stuck0@weight");
  const auto model_permanent =
      model_points(bers, env.seed, "stuck0@weight#perm");
  double model_transient_sum = 0, model_permanent_sum = 0;
  const double model_transient_s = timed(
      [&] { return run_unified(m.net, m.data, model_transient, nullptr); },
      &model_transient_sum);
  const double model_permanent_s = timed(
      [&] { return run_unified(m.net, m.data, model_permanent, nullptr); },
      &model_permanent_sum);

  // Runner noise calibration: repeat the cheap sweep campaign and report
  // the coefficient of variation of its wall time. The CI regression gate
  // (tools/bench_gate.py) scales its failure threshold from this, so the
  // gate is exactly as strict as the runner is quiet.
  constexpr int kNoiseRuns = 5;
  double noise_wall[kNoiseRuns];
  double noise_mean = 0;
  for (int r = 0; r < kNoiseRuns; ++r) {
    double sum = 0;
    noise_wall[r] =
        timed([&] { return run_unified(m.net, m.data, sweep, nullptr); },
              &sum);
    noise_mean += noise_wall[r] / kNoiseRuns;
  }
  double noise_var = 0;
  for (const double w : noise_wall) {
    noise_var += (w - noise_mean) * (w - noise_mean) / kNoiseRuns;
  }
  const double noise_cv =
      noise_mean > 0 ? std::sqrt(noise_var) / noise_mean : 0.0;

  const double campaign_ips = inferences / campaign_s;
  const double percall_ips = inferences / percall_s;
  const double scratch_ips = inferences / scratch_s;
  const double speedup_vs_percall = percall_s / campaign_s;
  const double speedup_vs_scratch = scratch_s / campaign_s;
  const double sweep_speedup = sweep_percall_s / sweep_campaign_s;

  Table table({"regime", "mode", "wall_s", "inferences_per_s",
               "accuracy_checksum"});
  table.add_row({"deep", "campaign", Table::fmt(campaign_s, 3),
                 Table::fmt(campaign_ips, 1), Table::fmt(campaign_sum, 6)});
  table.add_row({"deep", "per_call_cache", Table::fmt(percall_s, 3),
                 Table::fmt(percall_ips, 1), Table::fmt(percall_sum, 6)});
  table.add_row({"deep", "scratch", Table::fmt(scratch_s, 3),
                 Table::fmt(scratch_ips, 1), Table::fmt(scratch_sum, 6)});
  table.add_row({"sweep", "campaign", Table::fmt(sweep_campaign_s, 3),
                 Table::fmt(sweep_inferences / sweep_campaign_s, 1),
                 Table::fmt(sweep_campaign_sum, 6)});
  table.add_row({"sweep", "per_call_cache", Table::fmt(sweep_percall_s, 3),
                 Table::fmt(sweep_inferences / sweep_percall_s, 1),
                 Table::fmt(sweep_percall_sum, 6)});
  table.add_row({"model", "stuck0@weight", Table::fmt(model_transient_s, 3),
                 Table::fmt(sweep_inferences / model_transient_s, 1),
                 Table::fmt(model_transient_sum, 6)});
  table.add_row({"model", "stuck0@weight#perm",
                 Table::fmt(model_permanent_s, 3),
                 Table::fmt(sweep_inferences / model_permanent_s, 1),
                 Table::fmt(model_permanent_sum, 6)});
  emit(table, "Campaign throughput: unified campaign vs per-call cache vs "
              "scratch (VGG19 int16, op-level FI)",
       "bench_campaign");
  std::printf(
      "deep  (%d trials): %.2fx vs per-call cache, %.2fx vs scratch "
      "(%zu images, %zu BER points x 2 policies)\n",
      trials, speedup_vs_percall, speedup_vs_scratch, m.data.size(),
      bers.size());
  std::printf(
      "sweep (1 trial):   %.2fx vs per-call cache over %zu grid points\n",
      sweep_speedup, sweep.size());
  std::printf(
      "phase split (deep campaign, cpu-seconds across workers): "
      "golden_build %.3fs, exec %.3fs\n",
      golden_build_s, exec_s);
  std::printf(
      "golden builds: %lld (campaign) vs %lld (per-call), hits %lld, "
      "evictions %lld\n",
      static_cast<long long>(stats.golden_builds),
      static_cast<long long>(m.data.size() * bers.size() * 2),
      static_cast<long long>(stats.golden_hits),
      static_cast<long long>(stats.golden_evictions));
  if (campaign_sum != percall_sum || campaign_sum != scratch_sum ||
      sweep_campaign_sum != sweep_percall_sum) {
    std::printf("ERROR: campaign modes disagree\n");
    return 1;
  }

  Json json = Json::object();
  json.set("benchmark", Json::str("fi_campaign_vgg19_int16_oplevel"))
      .set("images", Json::integer(m.data.size()))
      .set("trials_per_image", Json::integer(trials))
      .set("ber_points", Json::integer(bers.size()))
      .set("sweep_points", Json::integer(deep.size()))
      .set("inferences", Json::number(inferences))
      .set("campaign_wall_s", Json::number(campaign_s))
      // Phase breakdown of the deep campaign run (cpu-seconds summed
      // across workers — exec_s can exceed campaign_wall_s on multi-core).
      .set("golden_build_s", Json::number(golden_build_s))
      .set("exec_s", Json::number(exec_s))
      .set("cached_wall_s", Json::number(percall_s))
      .set("scratch_wall_s", Json::number(scratch_s))
      .set("campaign_inferences_per_s", Json::number(campaign_ips))
      .set("cached_inferences_per_s", Json::number(percall_ips))
      .set("scratch_inferences_per_s", Json::number(scratch_ips))
      .set("sweep_campaign_wall_s", Json::number(sweep_campaign_s))
      .set("sweep_percall_wall_s", Json::number(sweep_percall_s))
      .set("model_transient_wall_s", Json::number(model_transient_s))
      .set("model_transient_inferences_per_s",
           Json::number(sweep_inferences / model_transient_s))
      .set("model_permanent_wall_s", Json::number(model_permanent_s))
      .set("model_permanent_inferences_per_s",
           Json::number(sweep_inferences / model_permanent_s))
      .set("golden_builds", Json::integer(stats.golden_builds))
      .set("golden_hits", Json::integer(stats.golden_hits))
      .set("speedup_vs_percall", Json::number(speedup_vs_percall))
      .set("speedup_vs_scratch", Json::number(speedup_vs_scratch))
      .set("sweep_speedup_vs_percall", Json::number(sweep_speedup))
      .set("noise_runs", Json::integer(kNoiseRuns))
      .set("noise_cv", Json::number(noise_cv));
  write_bench_json("BENCH_campaign.json", json);
  return 0;
}
