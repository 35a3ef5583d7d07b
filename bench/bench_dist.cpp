// Distributed-campaign scaling benchmark -> BENCH_dist.json.
//
// The binary is its own worker fleet: for each worker count it re-execs
// itself with `--shard i/N` over a cold scratch store, waits, merges the
// segments, and verifies the merged journal replays bit-identically to the
// in-RAM reference (exit 1 on any disagreement). Reported numbers:
//
//   single_process_s  ordinary CampaignRunner over a cold store
//   dist_{1,2,4}w_s   spawn + cooperative execution + merge, cold store
//   speedup_2w/4w     single_process_s / dist_Nw_s
//
// Workers split one machine, so speedups only appear when the host has
// cores to split (hardware_threads is reported for exactly that reason —
// on a 1-core container the dist numbers just measure protocol overhead).
//
// Knobs: WINOFAULT_IMAGES (default 10), WINOFAULT_TRIALS (default 10,
// injection trials per cell), WINOFAULT_SEED.
#include <chrono>
#include <cmath>
#include <filesystem>

#include "bench_util.h"
#include "common/parallel.h"
#include "core/campaign/campaign.h"
#include "core/dist/merge.h"
#include "core/dist/worker_pool.h"

using namespace winofault;
using namespace winofault::bench;

namespace {

CampaignSpec bench_spec(std::uint64_t seed, int trials) {
  // Four configurations with strongly heterogeneous costs (the top BER is
  // orders of magnitude more expensive to replay), so the cost-aware
  // buckets actually matter for balance.
  CampaignSpec spec;
  for (const double ber : {3e-9, 1e-7}) {
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

bool same_results(const CampaignResult& a, const CampaignResult& b) {
  if (a.points.size() != b.points.size()) return false;
  for (std::size_t p = 0; p < a.points.size(); ++p) {
    if (a.points[p].accuracy != b.points[p].accuracy ||
        a.points[p].avg_flips != b.points[p].avg_flips) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli = parse_cli(argc, argv);
  require_builtin_fault_model(cli, argv[0]);
  const BenchEnv env = bench_env(argv[0]);
  const int trials = int_knob(argv[0], "WINOFAULT_TRIALS", 10, 1);
  ModelUnderTest m = make_model("vgg19", DType::kInt16, env);

  if (cli.shard_count >= 1) {
    // Worker mode (ANY --shard, spawned by the coordinator below):
    // cooperate over the shared store and exit — the coordinator assembles
    // and verifies. --shard 0/1 runs the plain store path (DistOptions
    // disables itself at one shard), which is exactly the 1-worker
    // baseline; treating it as a coordinator would recurse into a fork
    // bomb.
    CampaignSpec spec = bench_spec(env.seed, trials);
    spec.store = store_options(cli.store_dir, env);
    spec.store.dist = dist_options(cli, env);
    run_campaign(m.net, m.data, spec);
    return 0;
  }
  if (std::getenv("WINOFAULT_BENCH_DIST_CHILD") != nullptr) {
    // Defense in depth: a spawned child that somehow lost its --shard flag
    // must never coordinate (fork recursion).
    std::fprintf(stderr, "bench_dist: child refuses to coordinate\n");
    return 1;
  }
  if (cli.workers > 0) {
    std::fprintf(stderr,
                 "note: bench_dist sweeps its own worker counts; --workers "
                 "is ignored\n");
  }

  const std::string root = cli.store_dir.empty()
                               ? out_path("bench_dist_store")
                               : cli.store_dir;
  const std::string exe = self_executable_path();
  if (exe.empty()) {
    std::fprintf(stderr, "bench_dist: cannot resolve own executable\n");
    return 1;
  }

  // In-RAM reference + single-process cold-store baseline.
  const CampaignSpec plain = bench_spec(env.seed, trials);
  const CampaignResult reference = run_campaign(m.net, m.data, plain);
  const std::int64_t cells = static_cast<std::int64_t>(
      m.data.size() * plain.points.size() -
      static_cast<std::size_t>(reference.stats.short_circuited_points) *
          m.data.size());

  std::filesystem::remove_all(root + "/single");
  CampaignSpec stored = plain;
  stored.store = store_options(root + "/single", env);
  const auto t_single = std::chrono::steady_clock::now();
  const CampaignResult single = run_campaign(m.net, m.data, stored);
  const double single_s = seconds_since(t_single);
  if (!same_results(reference, single)) {
    std::fprintf(stderr, "bench_dist: stored run diverged from in-RAM\n");
    return 1;
  }

  Json json = Json::object();
  json.set("images", Json::integer(m.data.size()))
      .set("points", Json::integer(plain.points.size()))
      .set("trials", Json::integer(trials))
      .set("cells", Json::integer(cells))
      .set("hardware_threads", Json::integer(default_thread_count()))
      .set("single_process_s", Json::number(single_s));

  ::setenv("WINOFAULT_BENCH_DIST_CHILD", "1", 1);
  ::setenv("WINOFAULT_DIST_SHARE_HOST", "1", 1);  // workers split this host
  double dist_s[3] = {0, 0, 0};
  double merge_s = 0;  // merge-fold wall time summed over the sweep
  const int worker_counts[3] = {1, 2, 4};
  for (int wi = 0; wi < 3; ++wi) {
    const int workers = worker_counts[wi];
    const std::string dir = root + "/w" + std::to_string(workers);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const auto t0 = std::chrono::steady_clock::now();
    int failed = 0;
    for (const WorkerExit& we : spawn_local_workers(
             exe, {"--store-dir", dir}, workers)) {
      if (!we.ok()) ++failed;
    }
    const auto t_merge = std::chrono::steady_clock::now();
    const MergeStats merge = merge_campaign_segments(dir);
    merge_s += seconds_since(t_merge);
    dist_s[wi] = seconds_since(t0);
    if (failed > 0) {
      std::fprintf(stderr, "bench_dist: %d/%d workers failed\n", failed,
                   workers);
      return 1;
    }
    // Bit-identity + completeness: the merged journal must replay the
    // whole grid without executing a single inference.
    CampaignSpec check = plain;
    check.store = store_options(dir, env);
    const CampaignResult replay = run_campaign(m.net, m.data, check);
    if (replay.stats.inferences != 0 || !same_results(reference, replay)) {
      std::fprintf(stderr,
                   "bench_dist: %d-worker merged store diverged "
                   "(inferences=%lld)\n",
                   workers,
                   static_cast<long long>(replay.stats.inferences));
      return 1;
    }
    std::printf("%d worker(s): %.3f s (merged %d segment(s), %lld cells)\n",
                workers, dist_s[wi], merge.segments_merged,
                static_cast<long long>(merge.cells_merged));
    std::fflush(stdout);
  }

  json.set("dist_1w_s", Json::number(dist_s[0]))
      .set("dist_2w_s", Json::number(dist_s[1]))
      .set("dist_4w_s", Json::number(dist_s[2]))
      .set("merge_s", Json::number(merge_s))
      .set("speedup_2w",
           Json::number(dist_s[1] > 0 ? single_s / dist_s[1] : 0.0))
      .set("speedup_4w",
           Json::number(dist_s[2] > 0 ? single_s / dist_s[2] : 0.0));
  write_bench_json("BENCH_dist.json", json);
  std::printf(
      "single %.3f s | 1w %.3f s | 2w %.3f s (%.2fx) | 4w %.3f s (%.2fx) "
      "on %d hardware thread(s)\n",
      single_s, dist_s[0], dist_s[1],
      dist_s[1] > 0 ? single_s / dist_s[1] : 0.0, dist_s[2],
      dist_s[2] > 0 ? single_s / dist_s[2] : 0.0, default_thread_count());
  return 0;
}
