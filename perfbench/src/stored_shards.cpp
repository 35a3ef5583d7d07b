// stored_shards: the fig1 grid (VGG19 int16, {direct, winograd2} x {op,
// neuron} x 6 BERs x kTrials trials) written to and then read from the
// persistent store, once per pass:
//   cold   a fresh store, filled by two concurrent in-process dist shards
//          that split the threads, then merge_campaign_segments
//   regen  the grid plus one BER point per configuration that the cold grid
//          lacks, single process against the merged store: old cells come
//          from the journal, new cells restore their goldens from the
//          shards the cold workers spilled
// Oracle: one single-process in-memory run of the regen grid; every shard's
// assembled result and every regen result must equal it. The traced run
// also carries the service-layer probe (service_probe.cpp).
#include <filesystem>
#include <exception>
#include <thread>
#include <unistd.h>

#include "common.h"
#include "core/analysis/network_sweep.h"
#include "core/dist/merge.h"
#include "core/store/hash.h"
#include "trace.h"

namespace perfbench {

using namespace winofault;

namespace {

constexpr int kShards = 2;
constexpr int kTrials = 4;
constexpr double kRegenBer = 3e-8;  // between the cold grid's 1.6e-8 and 6.3e-8

struct ColdPhase {
  CampaignResult shards[kShards];
  double shard_s[kShards] = {};
  double wall_s = 0;
};

ColdPhase run_cold(Run& run, const Model& model, const CampaignSpec& base,
                   const std::string& dir) {
  ColdPhase cold;
  std::string errors[kShards];
  const std::int64_t t0 = now_ns();
  const std::int64_t parent = trace_current();
  std::vector<std::thread> workers;
  for (int i = 0; i < kShards; ++i) {
    workers.emplace_back([&, i] {
      Span span("dist.shard", parent);
      CampaignSpec spec = base;
      spec.threads = std::max(1, run.threads / kShards);
      spec.store.dir = dir;
      spec.store.dist.shard_index = i;
      spec.store.dist.shard_count = kShards;
      spec.store.dist.worker_tag = "shard" + std::to_string(i);
      // Far above the heaviest cell, so no live claim is stolen; a shard
      // that died would still have its claims taken within the run.
      spec.store.dist.claim_stale_ms = 30000;
      spec.store.dist.poll_ms = 5;
      const std::int64_t s0 = now_ns();
      try {
        cold.shards[i] = traced_campaign(model.net, model.data, spec);
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
      cold.shard_s[i] = seconds_between(s0, now_ns());
    });
  }
  for (std::thread& t : workers) t.join();
  for (const std::string& e : errors) {
    run.check(e.empty(), "dist shard threw: " + e);
  }
  {
    Span span("dist.merge");
    const MergeStats merge = merge_campaign_segments(dir);
    run.check(merge.segments_rejected == 0 && merge.segments_unreadable == 0,
              "merge rejected or could not read a segment");
  }
  cold.wall_s = seconds_between(t0, now_ns());
  return cold;
}

}  // namespace

void run_stored_shards(Run& run) {
  Model model;
  const double setup_s = median_setup_seconds([&] {
    model = build_model("vgg19", DType::kInt16);
  });
  run.set("nn.model_build_us", mean_self_us(span_stats(), "nn.model_build"));

  std::vector<SweepOptions> configs;
  for (const auto& [policy, mode] :
       {std::pair{ConvPolicy::kDirect, InjectionMode::kOpLevel},
        std::pair{ConvPolicy::kWinograd2, InjectionMode::kOpLevel},
        std::pair{ConvPolicy::kDirect, InjectionMode::kNeuronLevel},
        std::pair{ConvPolicy::kWinograd2, InjectionMode::kNeuronLevel}}) {
    SweepOptions options;
    options.bers = log_ber_grid(1e-9, 1e-6, 6);
    options.policy = policy;
    options.mode = mode;
    options.seed = run.seed;
    options.trials = kTrials;
    options.threads = run.threads;
    configs.push_back(std::move(options));
  }
  const CampaignSpec base = sweep_campaign(configs);
  CampaignSpec regen = base;
  for (SweepOptions options : configs) {
    options.bers = {kRegenBer};
    for (CampaignPoint& point : sweep_campaign(std::vector{options}).points) {
      regen.points.push_back(std::move(point));
    }
  }
  const std::size_t base_points = base.points.size();

  std::vector<double> colds, regens, passes, requests;
  std::vector<std::vector<EvalResult>> cold_points, regen_points;
  std::int64_t pass_inferences = 0;  // identical in every pass
  double timed_s = 0;
  double traced_wall = 0, untraced_wall = 0;
  RssPeak rss;
  for (int pass = 0; run.another_pass(timed_s, median(passes), pass);
       ++pass) {
    const bool traced = run.trace && pass == 1;
    trace_enable(traced);
    trace_set_run(pass);
    const std::string dir = run.scratch_path(
        "stored-" + std::to_string(::getpid()) + "-" + std::to_string(pass));
    std::filesystem::remove_all(dir);

    const Registry r0 = Registry::read();
    const ColdPhase cold = run_cold(run, model, base, dir);
    const Registry r1 = Registry::read();
    CampaignSpec spec = regen;
    spec.store.dir = dir;
    const std::int64_t g0 = now_ns();
    const CampaignResult regen_result =
        traced_campaign(model.net, model.data, spec);
    const double regen_s = seconds_between(g0, now_ns());
    const Registry r2 = Registry::read();

    CampaignStats cold_stats;
    for (int i = 0; i < kShards; ++i) {
      cold_points.push_back(cold.shards[i].points);
      accumulate_stats(cold_stats, cold.shards[i].stats);
      // A shard returns once the whole grid is done, so these latencies
      // track the cold phase's wall time rather than the shard's own work.
      requests.push_back(cold.shard_s[i]);
    }
    pass_inferences = cold_stats.inferences + regen_result.stats.inferences;
    regen_points.push_back(regen_result.points);
    // Only the new BER points execute; every cold cell is journal-served.
    const std::int64_t new_cells =
        static_cast<std::int64_t>(regen.points.size() - base_points) *
        kImages;
    run.check(regen_result.stats.journal_cells_written == new_cells,
              "regen executed " +
                  std::to_string(regen_result.stats.journal_cells_written) +
                  " cells, expected " + std::to_string(new_cells) +
                  " (loaded " +
                  std::to_string(regen_result.stats.journal_cells_loaded) +
                  ", cold shards executed " +
                  std::to_string(cold_stats.dist_cells_executed) +
                  ", healed " + std::to_string(cold_stats.dist_cells_healed) +
                  ", stolen " +
                  std::to_string(cold_stats.dist_buckets_stolen) + ")");
    colds.push_back(cold.wall_s);
    regens.push_back(regen_s);
    passes.push_back(cold.wall_s + regen_s);
    timed_s += cold.wall_s + regen_s;
    if (run.trace && pass == 0) untraced_wall = cold.wall_s + regen_s;

    if (traced) {
      traced_wall = cold.wall_s + regen_s;
      set_campaign_layer_metrics(run, r0, r1, cold.wall_s, cold_stats);
      const auto stats = span_stats();
      run.set("campaign.run_us", mean_self_us(stats, "campaign.run"));
      run.set("dist.merge_us", mean_self_us(stats, "dist.merge"));
      // From the cells each shard executed itself: every shard polls until
      // the whole grid is done and then assembles it, so its wall time
      // ends with the slowest shard's and cannot show an uneven split.
      std::int64_t most = 0;
      for (const CampaignResult& shard : cold.shards) {
        most = std::max(most, shard.stats.dist_cells_executed);
      }
      run.set("dist.shard_imbalance",
              cold_stats.dist_cells_executed > 0
                  ? static_cast<double>(most * kShards) /
                        static_cast<double>(cold_stats.dist_cells_executed)
                  : 0.0);
      run.set("dist.buckets_claimed",
              static_cast<double>(cold_stats.dist_buckets_claimed));
      run.set("dist.cells_recovered",
              static_cast<double>(cold_stats.dist_cells_recovered));
      run.set("dist.cells_healed",
              static_cast<double>(cold_stats.dist_cells_healed));
      set_store_layer_metrics(run, r0, r1, r2, regen_result.stats, dir,
                              campaign_env_hash(model.net, model.data));
    }
    std::filesystem::remove_all(dir);
  }
  const double peak_mb = rss.stop();
  trace_enable(run.trace);

  // Oracle: one single-process in-memory run of the regen grid.
  trace_set_run(300);
  const CampaignResult reference =
      traced_campaign(model.net, model.data, regen);
  const std::vector<EvalResult> base_reference(
      reference.points.begin(),
      reference.points.begin() + static_cast<std::ptrdiff_t>(base_points));
  for (const auto& points : cold_points) {
    run.check(same_points(points, base_reference),
              "a dist shard's assembled result differs from the in-memory run");
  }
  for (const auto& points : regen_points) {
    run.check(same_points(points, reference.points),
              "regen from the merged store differs from the in-memory run");
  }
  run.digest = digest_points(reference.points);

  if (!run.trace) {
    run.set("inferences_per_s",
            static_cast<double>(pass_inferences) / median(passes));
    run.set("wall_s", median(colds));
    run.set("regen_s", median(regens));
    run.set("submit_p50_ms", percentile(requests, 0.5) * 1e3);
    run.set("submit_p95_ms", percentile(requests, 0.95) * 1e3);
    run.set("setup_s", setup_s);
    run.set("peak_rss_mb", peak_mb);
    return;
  }
  run.set("trace_overhead", traced_wall / untraced_wall);
  const CellLoop loop =
      run_cell_loop(model.net, model.data, regen, {}, run.threads);
  run.check(same_points(loop.points, reference.points),
            "traced cell loop disagrees with run_campaign");
  set_cell_loop_metrics(run, loop);
  trace_set_run(400);
  run_conv_probes(run, model.net);
  run_service_probe(run, model);
}

}  // namespace perfbench
