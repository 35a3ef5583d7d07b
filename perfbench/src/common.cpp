#include "common.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <malloc.h>
#include <unordered_map>

#include "common/parallel.h"
#include "common/telemetry/telemetry.h"
#include "core/store/hash.h"
#include "core/store/journal.h"
#include "fault/fault_model.h"
#include "nn/fault_session.h"
#include "nn/models/zoo.h"
#include "trace.h"

namespace perfbench {

using namespace winofault;

const std::vector<MetricDef> kEndToEnd = {
    {"inferences_per_s", "1/s"}, {"wall_s", "s"},
    {"regen_s", "s"},            {"submit_p50_ms", "ms"},
    {"submit_p95_ms", "ms"},     {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"conv.forward_us.direct", "us"},
    {"conv.forward_us.winograd2", "us"},
    {"conv.gemm_gmacs.scalar", "GMAC/s"},
    {"conv.gemm_gmacs.avx2", "GMAC/s"},
    {"conv.gemm_gmacs.avx512", "GMAC/s"},
    {"conv.apply_faults_us_per_site.direct", "us"},
    {"conv.apply_faults_us_per_site.winograd2", "us"},
    {"nn.golden_build_us", "us"},
    {"nn.replay_us", "us"},
    {"nn.unfaulted_trial_ratio", "ratio"},
    {"nn.model_build_us", "us"},
    {"fault.plan_us", "us"},
    {"fault.sites_per_trial", "count"},
    {"campaign.run_us", "us"},
    {"campaign.golden_hit_ratio", "ratio"},
    {"campaign.golden_lookups", "count"},
    {"campaign.phase_cpu_s.golden_build", "s"},
    {"campaign.phase_cpu_s.replay", "s"},
    {"campaign.phase_cpu_s.inject", "s"},
    {"common.pool_idle_ratio", "ratio"},
    {"common.pool_steals", "count"},
    {"store.journal_write_bytes", "bytes"},
    {"store.shard_write_bytes", "bytes"},
    {"store.shard_restores", "count"},
    {"store.shard_read_bytes", "bytes"},
    {"store.journal_read_us", "us"},
    {"store.cells_loaded_ratio", "ratio"},
    {"dist.merge_us", "us"},
    {"dist.shard_imbalance", "ratio"},
    {"dist.buckets_claimed", "count"},
    {"dist.cells_recovered", "count"},
    {"dist.cells_healed", "count"},
    {"service.queue_wait_us.p50", "us"},
    {"service.queue_wait_us.p95", "us"},
    {"service.exec_ms", "ms"},
    {"service.session_build_s", "s"},
    {"service.rejected", "count"},
    {"service.deduped", "count"},
    {"trace_overhead", "ratio"},
};

bool Run::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
  }
  return ok;
}

bool Run::another_pass(double elapsed_s, double pass_estimate_s,
                       int passes_done) const {
  if (passes_done < 2) return true;
  if (trace) return false;  // traced runs measure one pass of each kind
  return elapsed_s + pass_estimate_s <= seconds;
}

std::string Run::scratch_path(const std::string& leaf) const {
  return out_dir + "/" + leaf;
}

Model build_model(const std::string& name, DType dtype) {
  Span span("nn.model_build");
  const ZooEntry& entry = zoo_entry(name);
  ZooConfig config;
  config.dtype = dtype;
  config.width = entry.default_width;
  config.seed = kModelSeed;
  Model m{name, dtype, entry.build(config), Dataset{}};
  m.data = make_teacher_dataset(m.net, kImages, entry.num_classes,
                                entry.clean_accuracy, kModelSeed ^ 0xd5);
  return m;
}

double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

namespace {

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

}  // namespace

double median_setup_seconds(const std::function<void()>& body) {
  std::vector<double> samples;
  double total = 0;
  const auto reps = [&] { return static_cast<int>(samples.size()); };
  while (reps() < kSetupReps ||
         (total < kSetupSeconds && reps() < kSetupMaxReps)) {
    const double t0 = cpu_seconds();
    body();
    samples.push_back(cpu_seconds() - t0);
    total += samples.back();
    // Hand what the repetition freed back to the OS, so repeating set-up
    // does not raise the run's peak RSS by allocator fragmentation.
    malloc_trim(0);
  }
  return median(samples);
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

std::uint64_t digest_points(const std::vector<EvalResult>& points) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const EvalResult& p : points) {
    mix(std::bit_cast<std::uint64_t>(p.accuracy));
    mix(std::bit_cast<std::uint64_t>(p.avg_flips));
    mix(static_cast<std::uint64_t>(p.images));
  }
  return h;
}

bool same_points(const std::vector<EvalResult>& a,
                 const std::vector<EvalResult>& b) {
  return a.size() == b.size() && digest_points(a) == digest_points(b);
}

CampaignResult traced_campaign(const Network& net, const Dataset& data,
                               const CampaignSpec& spec) {
  Span span("campaign.run");
  return run_campaign(net, data, spec);
}

namespace {

double resident_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

RssPeak::RssPeak()
    : peak_mb_(resident_mb()), sampler_([this] {
        while (!stop_.load()) {
          const double mb = resident_mb();
          if (mb > peak_mb_.load()) peak_mb_.store(mb);
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      }) {}

RssPeak::~RssPeak() { stop(); }

double RssPeak::stop() {
  stop_.store(true);
  if (sampler_.joinable()) sampler_.join();
  return std::max(peak_mb_.load(), resident_mb());
}

Registry Registry::read() {
  Registry r;
  for (const telemetry::SeriesSample& s : telemetry::snapshot()) {
    const double value = s.type == 'h' ? static_cast<double>(s.sum)
                                       : static_cast<double>(s.value);
    r.values_[s.name] += value;
    if (!s.labels.empty()) {
      r.values_[s.name + "{" + s.labels + "}"] += value;
    }
  }
  return r;
}

double Registry::get(const std::string& key) const {
  const auto it = values_.find(key);
  return it == values_.end() ? 0.0 : it->second;
}

void set_campaign_layer_metrics(Run& run, const Registry& before,
                                const Registry& after, double wall_s,
                                const CampaignStats& stats) {
  const double lookups = static_cast<double>(
      stats.golden_hits + stats.golden_builds + stats.golden_restores);
  run.set("campaign.golden_lookups", lookups);
  run.set("campaign.golden_hit_ratio",
          lookups > 0 ? static_cast<double>(stats.golden_hits) / lookups : 0);
  for (const char* phase : {"golden_build", "replay", "inject"}) {
    run.set(std::string("campaign.phase_cpu_s.") + phase,
            after.delta(before, std::string("winofault_campaign_phase_us{"
                                            "phase=\"") +
                                    phase + "\"}") /
                1e6);
  }
  // Idle time is recorded by the pool's worker threads (all but the
  // calling thread).
  const double workers = std::max(1, default_thread_count() - 1);
  run.set("common.pool_idle_ratio",
          wall_s > 0 ? after.delta(before, "winofault_pool_idle_us") /
                           (workers * wall_s * 1e6)
                     : 0);
  run.set("common.pool_steals",
          after.delta(before, "winofault_pool_steals_total"));
}

void set_store_layer_metrics(Run& run, const Registry& before,
                             const Registry& written, const Registry& read,
                             const CampaignStats& regen,
                             const std::string& dir, std::uint64_t env_hash) {
  run.set("store.journal_write_bytes",
          written.delta(before, "winofault_store_journal_write_bytes_total"));
  run.set("store.shard_write_bytes",
          written.delta(before, "winofault_store_shard_write_bytes_total"));
  run.set("store.shard_restores",
          read.delta(written, "winofault_store_shard_restores_total"));
  run.set("store.shard_read_bytes",
          read.delta(written, "winofault_store_shard_read_bytes_total"));
  const double loaded = static_cast<double>(regen.journal_cells_loaded);
  const double cells = loaded + static_cast<double>(regen.journal_cells_written);
  run.set("store.cells_loaded_ratio", cells > 0 ? loaded / cells : 0);
  std::vector<double> reads;
  for (int r = 0; r < 5; ++r) {
    const std::int64_t t0 = now_ns();
    {
      Span span("store.read_cells");
      std::vector<JournalCell> journal;
      ResultJournal::read_cells(ResultJournal::journal_path(dir, env_hash),
                                env_hash, &journal);
    }
    reads.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  run.set("store.journal_read_us", median(reads));
}

void accumulate_stats(CampaignStats& a, const CampaignStats& b) {
  a.golden_builds += b.golden_builds;
  a.golden_hits += b.golden_hits;
  a.golden_evictions += b.golden_evictions;
  a.short_circuited_points += b.short_circuited_points;
  a.inferences += b.inferences;
  a.journal_cells_loaded += b.journal_cells_loaded;
  a.journal_cells_written += b.journal_cells_written;
  a.cells_deferred += b.cells_deferred;
  a.golden_spills += b.golden_spills;
  a.golden_restores += b.golden_restores;
  a.golden_flushed += b.golden_flushed;
  a.dist_buckets_claimed += b.dist_buckets_claimed;
  a.dist_buckets_stolen += b.dist_buckets_stolen;
  a.dist_cells_executed += b.dist_cells_executed;
  a.dist_cells_recovered += b.dist_cells_recovered;
  a.dist_cells_healed += b.dist_cells_healed;
}

namespace {

// run_campaign's destruction short-circuit, re-derived from the public
// op-space and fault-model functions.
bool short_circuits(const Network& net, const Dataset& data,
                    const winofault::CampaignPoint& point,
                    double* expected) {
  const FaultConfig& f = point.fault;
  if (f.mode != InjectionMode::kOpLevel || !f.model.is_default() ||
      !f.protection.empty() || f.fault_free_layer >= 0 ||
      f.only_kind.has_value() || data.num_classes <= 1) {
    return false;
  }
  *expected = FaultModel{f.ber}.expected_flips(net.total_op_space(point.policy));
  return *expected > point.max_expected_flips;
}

std::int64_t planned_faults(const FaultPlan& plan) {
  std::int64_t n = 0;
  for (const FaultPlan::LayerFaults& layer : plan.layers) {
    n += static_cast<std::int64_t>(layer.sites.size() + layer.neurons.size() +
                                   layer.weights.size() + layer.accums.size());
  }
  return n;
}

}  // namespace

CellLoop run_cell_loop(const Network& net, const Dataset& data,
                       const CampaignSpec& spec,
                       const std::vector<std::int64_t>& images, int threads) {
  Span loop_span("cell_loop");
  const std::int64_t loop_id = trace_current();
  const std::int64_t n_images = static_cast<std::int64_t>(data.size());
  std::vector<std::int64_t> imgs = images;
  if (imgs.empty()) {
    for (std::int64_t i = 0; i < n_images; ++i) imgs.push_back(i);
  }
  const bool all_images = static_cast<std::int64_t>(imgs.size()) == n_images;

  CellLoop out;
  out.points.resize(spec.points.size());
  std::vector<std::size_t> active;
  std::vector<ConvPolicy> policies;
  for (std::size_t p = 0; p < spec.points.size(); ++p) {
    const auto& point = spec.points[p];
    double expected = 0;
    if (short_circuits(net, data, point, &expected)) {
      out.points[p].images = static_cast<int>(n_images);
      out.points[p].accuracy = 1.0 / static_cast<double>(data.num_classes);
      out.points[p].avg_flips = expected;
      continue;
    }
    active.push_back(p);
    if (std::find(policies.begin(), policies.end(), point.policy) ==
        policies.end()) {
      policies.push_back(point.policy);
    }
  }

  // One golden per (image, policy), shared by every point of that policy.
  const std::size_t np = policies.size();
  std::vector<GoldenCache> goldens(imgs.size() * np);
  parallel_for(static_cast<std::int64_t>(goldens.size()), threads,
               [&](std::int64_t k) {
    Span span("nn.golden_build", loop_id);
    const std::size_t slot = static_cast<std::size_t>(k);
    goldens[slot] = net.make_golden(
        data.images[static_cast<std::size_t>(imgs[slot / np])],
        policies[slot % np]);
  });

  struct UnitOut {
    CellTally tally;
    std::int64_t trials = 0, unfaulted = 0, sites = 0;
  };
  const std::size_t units = active.size() * imgs.size();
  std::vector<UnitOut> results(units);
  parallel_for(static_cast<std::int64_t>(units), threads, [&](std::int64_t u) {
    Span cell_span("cell", loop_id);
    const std::size_t a = static_cast<std::size_t>(u) / imgs.size();
    const std::size_t ii = static_cast<std::size_t>(u) % imgs.size();
    const auto& point = spec.points[active[a]];
    const std::int64_t i = imgs[ii];
    const std::size_t pol = static_cast<std::size_t>(
        std::find(policies.begin(), policies.end(), point.policy) -
        policies.begin());
    const GoldenCache& golden = goldens[ii * np + pol];
    const int label = data.labels[static_cast<std::size_t>(i)];
    UnitOut& r = results[static_cast<std::size_t>(u)];
    for (int t = 0; t < point.trials; ++t) {
      const std::uint64_t stream = fault_stream_seed(point.seed, i, t);
      {
        Span span("fault.plan");
        FaultSession twin(point.fault, stream);
        const FaultPlan plan = twin.plan(net, point.policy);
        r.sites += planned_faults(plan);
        r.unfaulted += plan.first_faulted < 0 ? 1 : 0;
      }
      Span span("nn.replay");
      FaultSession session(point.fault, stream);
      r.tally.correct += net.predict_replay(golden, session) == label;
      r.tally.flips += session.total_flips();
      ++r.trials;
    }
  });

  for (std::size_t a = 0; a < active.size(); ++a) {
    CellTally sum;
    for (std::size_t ii = 0; ii < imgs.size(); ++ii) {
      const UnitOut& r = results[a * imgs.size() + ii];
      out.cells[{active[a], imgs[ii]}] = r.tally;
      sum.correct += r.tally.correct;
      sum.flips += r.tally.flips;
      out.trials += r.trials;
      out.unfaulted_trials += r.unfaulted;
      out.sites += r.sites;
    }
    if (all_images) {
      const double inferences =
          static_cast<double>(n_images) *
          static_cast<double>(spec.points[active[a]].trials);
      EvalResult& e = out.points[active[a]];
      e.images = static_cast<int>(n_images);
      e.accuracy = static_cast<double>(sum.correct) / inferences;
      e.avg_flips = static_cast<double>(sum.flips) / inferences;
    }
  }
  return out;
}

void set_cell_loop_metrics(Run& run, const CellLoop& loop) {
  const auto stats = span_stats();
  run.set("nn.golden_build_us", mean_self_us(stats, "nn.golden_build"));
  run.set("nn.replay_us", mean_self_us(stats, "nn.replay"));
  run.set("fault.plan_us", mean_self_us(stats, "fault.plan"));
  const double trials = static_cast<double>(std::max<std::int64_t>(
      loop.trials, 1));
  run.set("nn.unfaulted_trial_ratio",
          static_cast<double>(loop.unfaulted_trials) / trials);
  run.set("fault.sites_per_trial", static_cast<double>(loop.sites) / trials);
}

void check_cells_against_journal(Run& run, const CampaignSpec& spec,
                                 const CellLoop& loop,
                                 const std::string& store_dir,
                                 std::uint64_t env_hash) {
  std::vector<JournalCell> cells;
  const bool read = ResultJournal::read_cells(
      ResultJournal::journal_path(store_dir, env_hash), env_hash, &cells);
  if (!run.check(read, "journal of " + store_dir + " unreadable")) return;
  std::unordered_map<std::uint64_t, JournalCell> by_key;
  for (const JournalCell& c : cells) {
    by_key[journal_cell_key(c.point_hash, c.image)] = c;
  }
  for (const auto& [key, tally] : loop.cells) {
    const std::uint64_t ph = campaign_point_hash(spec.points[key.first]);
    const auto it = by_key.find(journal_cell_key(ph, key.second));
    run.check(it != by_key.end() && it->second.correct == tally.correct &&
                  it->second.flips == tally.flips,
              "cell loop disagrees with the journal at point " +
                  std::to_string(key.first) + ", image " +
                  std::to_string(key.second));
  }
}

}  // namespace perfbench
