// Persistent-store benchmark (BENCH_store.json): what the campaign store
// costs and what it buys, on a fig1-style operation-level sweep.
//
//   journal     in-RAM campaign vs cold store run (journal append + golden
//               spill overhead) vs warm rerun of the same spec (all cells
//               from the journal, nothing executed) — the resume path.
//   goldens     one golden: build from scratch vs serialize to a shard vs
//               restore from the shard; plus the campaign-level comparison
//               under golden thrash (capacity 1): rebuild-on-evict vs
//               spill/restore through the tier-2 store.
//
// All modes must agree bit-exactly on the accuracy checksum (the binary
// exits 1 if not) — the store may only change where results come from,
// never what they are.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>

#include "bench_util.h"
#include "core/analysis/network_sweep.h"
#include "core/campaign/campaign.h"
#include "core/store/golden_store.h"
#include "core/store/hash.h"

using namespace winofault;
using namespace winofault::bench;

namespace {

double timed(const std::function<void()>& body) {
  const auto start = std::chrono::steady_clock::now();
  body();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

double checksum(const CampaignResult& result) {
  double sum = 0.0;
  for (const EvalResult& point : result.points) sum += point.accuracy;
  return sum;
}

std::vector<CampaignPoint> grid_points(const std::vector<double>& bers,
                                       std::uint64_t seed) {
  std::vector<CampaignPoint> points;
  for (const double ber : bers) {
    for (const ConvPolicy policy :
         {ConvPolicy::kDirect, ConvPolicy::kWinograd2}) {
      CampaignPoint point;
      point.fault.ber = ber;
      point.policy = policy;
      point.seed = seed;
      points.push_back(std::move(point));
    }
  }
  return points;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions cli = parse_cli(argc, argv);
  require_builtin_fault_model(cli, argv[0]);
  note_store_unused(cli, "bench_store times its own scratch store");
  reject_dist_cli(cli, argv[0], "bench_store times its own scratch store");
  const BenchEnv env = bench_env(argv[0]);
  ModelUnderTest m = make_model("vgg19", DType::kInt16, env);
  const std::vector<double> bers = log_ber_grid(1e-9, 1e-7, 3);
  const std::vector<CampaignPoint> points = grid_points(bers, env.seed);
  const std::int64_t cells =
      static_cast<std::int64_t>(m.data.size() * points.size());

  // Scratch state directory, rebuilt from nothing each invocation so the
  // numbers always measure a cold store.
  const std::string scratch = out_path("bench_store_scratch");
  std::filesystem::remove_all(scratch);

  // ---- One-golden microbenchmark: rebuild vs spill save vs restore ----
  const std::uint64_t env_hash = campaign_env_hash(m.net, m.data);
  const int reps = 5;
  GoldenCache golden;
  const double rebuild_s = timed([&] {
    for (int r = 0; r < reps; ++r) {
      golden = m.net.make_golden(m.data.images[0], ConvPolicy::kDirect);
    }
  }) / reps;
  GoldenStore gstore(scratch + "/goldens", env_hash, 1ULL << 30);
  const double save_s =
      timed([&] { gstore.save(0, golden); });
  std::optional<GoldenCache> restored;
  const double restore_s = timed([&] {
    for (int r = 0; r < reps; ++r) {
      restored = gstore.load(0);
    }
  }) / reps;
  if (!restored.has_value() || restored->logits() != golden.logits() ||
      restored->prediction() != golden.prediction()) {
    std::printf("ERROR: restored golden differs from the built one\n");
    return 1;
  }

  // ---- Journal: in-RAM vs cold store vs warm resume ----
  CampaignSpec mem_spec;
  mem_spec.points = points;
  CampaignSpec store_spec = mem_spec;
  store_spec.store.dir = scratch + "/journal";

  CampaignResult mem_result, cold_result, warm_result;
  const double mem_s =
      timed([&] { mem_result = run_campaign(m.net, m.data, mem_spec); });
  const double cold_s = timed(
      [&] { cold_result = run_campaign(m.net, m.data, store_spec); });
  const double warm_s = timed(
      [&] { warm_result = run_campaign(m.net, m.data, store_spec); });

  // ---- Golden thrash (capacity 1): rebuild vs tier-2 spill/restore ----
  CampaignSpec thrash_mem = mem_spec;
  thrash_mem.golden_capacity = 1;
  CampaignSpec thrash_store = thrash_mem;
  thrash_store.store.dir = scratch + "/thrash";
  thrash_store.store.journal = false;  // cells must execute every run

  CampaignResult thrash_mem_result, thrash_cold_result, thrash_warm_result;
  const double thrash_mem_s = timed(
      [&] { thrash_mem_result = run_campaign(m.net, m.data, thrash_mem); });
  const double thrash_cold_s = timed([&] {
    thrash_cold_result = run_campaign(m.net, m.data, thrash_store);
  });
  const double thrash_warm_s = timed([&] {
    thrash_warm_result = run_campaign(m.net, m.data, thrash_store);
  });

  const double sum = checksum(mem_result);
  if (checksum(cold_result) != sum || checksum(warm_result) != sum ||
      checksum(thrash_mem_result) != sum ||
      checksum(thrash_cold_result) != sum ||
      checksum(thrash_warm_result) != sum) {
    std::printf("ERROR: store modes disagree with the in-RAM campaign\n");
    return 1;
  }

  const double journal_overhead_pct = (cold_s - mem_s) / mem_s * 100.0;
  const double resume_speedup = mem_s / warm_s;
  const double restore_speedup = rebuild_s / restore_s;
  const double thrash_speedup = thrash_mem_s / thrash_warm_s;

  Table table({"mode", "wall_s", "note"});
  table.add_row({"golden_rebuild", Table::fmt(rebuild_s, 4), "one image"});
  table.add_row({"golden_spill_save", Table::fmt(save_s, 4), "one shard"});
  table.add_row(
      {"golden_spill_restore", Table::fmt(restore_s, 4), "one shard"});
  table.add_row({"campaign_in_ram", Table::fmt(mem_s, 3), "no store"});
  table.add_row(
      {"campaign_store_cold", Table::fmt(cold_s, 3), "journal writes"});
  table.add_row(
      {"campaign_store_warm", Table::fmt(warm_s, 3), "resume, 0 executed"});
  table.add_row({"thrash_in_ram", Table::fmt(thrash_mem_s, 3),
                 "capacity 1, rebuilds"});
  table.add_row({"thrash_store_cold", Table::fmt(thrash_cold_s, 3),
                 "capacity 1, spills"});
  table.add_row({"thrash_store_warm", Table::fmt(thrash_warm_s, 3),
                 "capacity 1, restores"});
  emit(table,
       "Persistent store: journal resume + golden spill vs rebuild (VGG19 "
       "int16)",
       "bench_store");
  std::printf(
      "journal: cold overhead %+.1f%%, warm resume %.1fx (loaded %lld of "
      "%lld cells)\n",
      journal_overhead_pct, resume_speedup,
      static_cast<long long>(warm_result.stats.journal_cells_loaded),
      static_cast<long long>(cells));
  std::printf(
      "goldens: restore %.1fx vs rebuild per shard; thrash campaign %.2fx "
      "(spills %lld, restores %lld)\n",
      restore_speedup, thrash_speedup,
      static_cast<long long>(thrash_cold_result.stats.golden_spills),
      static_cast<long long>(thrash_warm_result.stats.golden_restores));

  Json json = Json::object();
  json.set("benchmark", Json::str("store_vgg19_int16_oplevel"))
      .set("images", Json::integer(m.data.size()))
      .set("cells", Json::integer(cells))
      .set("golden_rebuild_s", Json::number(rebuild_s))
      .set("golden_spill_save_s", Json::number(save_s))
      .set("golden_spill_restore_s", Json::number(restore_s))
      .set("restore_speedup_vs_rebuild", Json::number(restore_speedup))
      .set("campaign_in_ram_s", Json::number(mem_s))
      .set("campaign_store_cold_s", Json::number(cold_s))
      .set("campaign_store_warm_s", Json::number(warm_s))
      .set("journal_overhead_pct", Json::number(journal_overhead_pct))
      .set("resume_speedup", Json::number(resume_speedup))
      .set("thrash_in_ram_s", Json::number(thrash_mem_s))
      .set("thrash_store_cold_s", Json::number(thrash_cold_s))
      .set("thrash_store_warm_s", Json::number(thrash_warm_s))
      .set("spill_speedup_vs_rebuild", Json::number(thrash_speedup))
      .set("golden_spills",
           Json::integer(thrash_cold_result.stats.golden_spills))
      .set("golden_restores",
           Json::integer(thrash_warm_result.stats.golden_restores))
      .set("journal_cells_loaded",
           Json::integer(warm_result.stats.journal_cells_loaded));
  write_bench_json("BENCH_store.json", json);

  std::filesystem::remove_all(scratch);
  return 0;
}
