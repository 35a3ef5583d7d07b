// deep_replay: VGG19 int16, flip@op, 10 images x 3 BERs (1e-9..1e-7) x
// {direct, winograd2} x 100 trials as one in-memory campaign —
// bench_campaign's deep regime — timed as repeated passes.
//
// Untraced run: set-up (model build, median of its repetitions) -> timed
// passes until --seconds -> one stored pass into a journal-only store ->
// regeneration of the grid from that store (median of kRegenReps) -> the
// cell-loop oracle on a seed-chosen image, cell by cell against the
// journal.
// Traced run: one untraced and one traced pass (trace_overhead), the
// stored pass and one regeneration with registry deltas, the full cell
// loop compared point by point with run_campaign, and the conv probes.
#include <cstdio>
#include <filesystem>
#include <unistd.h>

#include "common.h"
#include "core/analysis/network_sweep.h"
#include "core/store/hash.h"
#include "trace.h"

namespace perfbench {

using namespace winofault;

namespace {

constexpr int kRegenReps = 15;

struct Pass {
  double wall_s = 0;
  std::uint64_t digest = 0;
  CampaignStats stats;
};

Pass run_pass(Run& run, const Model& model, CampaignSpec spec,
              const std::string& store_dir = "") {
  if (!store_dir.empty()) {
    spec.store.dir = store_dir;
    spec.store.spill_goldens = false;
  }
  const std::int64_t t0 = now_ns();
  const CampaignResult result = traced_campaign(model.net, model.data, spec);
  Pass pass;
  pass.wall_s = seconds_between(t0, now_ns());
  run.check(result.stats.cells_deferred == 0, "campaign deferred cells");
  pass.digest = digest_points(result.points);
  pass.stats = result.stats;
  return pass;
}

}  // namespace

void run_deep_replay(Run& run) {
  Model model;
  const double setup_s = median_setup_seconds([&] {
    model = build_model("vgg19", DType::kInt16);
  });
  run.set("nn.model_build_us", mean_self_us(span_stats(), "nn.model_build"));
  CampaignSpec spec;
  spec.threads = run.threads;
  for (const double ber : log_ber_grid(1e-9, 1e-7, 3)) {
    for (const ConvPolicy policy :
         {ConvPolicy::kDirect, ConvPolicy::kWinograd2}) {
      CampaignPoint point;
      point.fault.ber = ber;
      point.policy = policy;
      point.seed = run.seed;
      point.trials = 100;
      spec.points.push_back(std::move(point));
    }
  }
  const std::uint64_t env_hash = campaign_env_hash(model.net, model.data);
  const std::string store_dir =
      run.scratch_path("deep_replay-store-" + std::to_string(::getpid()));
  std::filesystem::remove_all(store_dir);

  // Timed passes. Every pass must reproduce the first pass bit for bit.
  std::vector<double> walls;
  std::int64_t pass_inferences = 0;  // identical in every pass
  double timed_s = 0;
  std::uint64_t reference = 0;
  double traced_wall = 0;
  RssPeak rss;
  for (int pass = 0; run.another_pass(timed_s, median(walls), pass); ++pass) {
    // A traced run times one pass without and one with the recorder.
    const bool traced = run.trace && pass == 1;
    trace_enable(traced);
    trace_set_run(pass);
    const Registry before = Registry::read();
    const Pass r = run_pass(run, model, spec);
    if (traced) {
      traced_wall = r.wall_s;
      set_campaign_layer_metrics(run, before, Registry::read(), r.wall_s,
                                 r.stats);
      run.set("campaign.run_us", mean_self_us(span_stats(), "campaign.run"));
    }
    if (pass == 0) reference = r.digest;
    run.check(r.digest == reference,
              "pass " + std::to_string(pass) + " digest differs from pass 0");
    walls.push_back(r.wall_s);
    pass_inferences = r.stats.inferences;
    timed_s += r.wall_s;
  }
  const double peak_mb = rss.stop();
  run.digest = reference;
  trace_enable(run.trace);
  std::string listing;
  for (const double w : walls) listing += " " + std::to_string(w);
  std::fprintf(stderr, "deep_replay: pass walls (s):%s\n", listing.c_str());

  // Stored pass, then regeneration of the grid from its journal.
  trace_set_run(100);
  const Registry before_store = Registry::read();
  const Pass stored = run_pass(run, model, spec, store_dir);
  const Registry after_store = Registry::read();
  run.check(stored.digest == reference, "stored pass digest differs");
  std::vector<double> regens;
  CampaignStats regen_stats;
  for (int r = 0; r < (run.trace ? 1 : kRegenReps); ++r) {
    trace_set_run(200 + r);
    const Pass regen = run_pass(run, model, spec, store_dir);
    run.check(regen.digest == reference && regen.stats.inferences == 0,
              "regeneration from the store differs or executed cells");
    regens.push_back(regen.wall_s);
    regen_stats = regen.stats;
  }
  const Registry after_regen = Registry::read();

  if (!run.trace) {
    // Oracle on a seed-chosen image: the cell loop against the journal.
    const CellLoop loop =
        run_cell_loop(model.net, model.data, spec,
                      {static_cast<std::int64_t>(run.seed % kImages)},
                      run.threads);
    check_cells_against_journal(run, spec, loop, store_dir, env_hash);
    const double wall = median(walls);
    run.set("inferences_per_s", static_cast<double>(pass_inferences) / wall);
    run.set("wall_s", wall);
    run.set("regen_s", median(regens));
    // One campaign per pass, so its latency is the pass's wall time.
    run.set("submit_p50_ms", wall * 1e3);
    run.set("submit_p95_ms", wall * 1e3);
    run.set("setup_s", setup_s);
    run.set("peak_rss_mb", peak_mb);
    std::filesystem::remove_all(store_dir);
    return;
  }

  // Traced drill-down.
  run.set("trace_overhead", traced_wall / walls.front());
  set_store_layer_metrics(run, before_store, after_store, after_regen,
                          regen_stats, store_dir, env_hash);
  trace_set_run(300);
  const CellLoop loop =
      run_cell_loop(model.net, model.data, spec, {}, run.threads);
  run.check(digest_points(loop.points) == reference,
            "traced cell loop disagrees with run_campaign");
  set_cell_loop_metrics(run, loop);
  trace_set_run(400);
  run_conv_probes(run, model.net);
  std::filesystem::remove_all(store_dir);
}

}  // namespace perfbench
