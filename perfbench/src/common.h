// Shared pieces of the repository benchmark: the run record every workload
// fills, model construction, output digests, order statistics, telemetry
// registry deltas, and the traced cell loop that re-derives campaign
// results through the per-layer public functions.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign/campaign.h"
#include "nn/dataset.h"
#include "nn/network.h"

namespace perfbench {

using winofault::CampaignResult;
using winofault::CampaignSpec;
using winofault::CampaignStats;
using winofault::Dataset;
using winofault::DType;
using winofault::EvalResult;
using winofault::Network;

// Model weights and datasets come from the figure drivers' master seed, so
// every workload runs the repository's own models; the --seed argument
// drives the fault streams (campaign point seeds) instead.
constexpr std::uint64_t kModelSeed = 2024;
constexpr int kImages = 10;
// Set-up is repeated at least kSetupReps times per run, and while the
// repetitions total under kSetupSeconds (at most kSetupMaxReps); its median
// is reported. Set-up time is process CPU time: what setup_s guards is work
// moved into set-up, and the wall time of a ~0.1 s model build swings 2x
// with the host's CPU availability while its CPU time does not.
constexpr int kSetupReps = 3;
constexpr int kSetupMaxReps = 9;
constexpr double kSetupSeconds = 1.0;

struct MetricDef {
  const char* name;
  const char* unit;
};

// The end-to-end metrics (untraced runs) and per-layer metrics (traced
// runs), in output order. BENCHMARK.json lists the same names.
extern const std::vector<MetricDef> kEndToEnd;
extern const std::vector<MetricDef> kPerLayer;

struct Run {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;
  int threads = 4;  // CampaignSpec::threads of every campaign

  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, double> metrics;
  std::uint64_t digest = 0;  // output digest of the workload's results

  void set(const std::string& name, double value) { metrics[name] = value; }
  // Counts one attempted operation; a false `ok` counts it as failed and
  // reports `what` on stderr. Returns `ok`.
  bool check(bool ok, const std::string& what);
  // Timed loops start another pass only while it is expected to end
  // within --seconds; at least two always run.
  bool another_pass(double elapsed_s, double pass_estimate_s,
                    int passes_done) const;
  std::string scratch_path(const std::string& leaf) const;
};

struct Model {
  std::string name;
  DType dtype = DType::kInt16;
  Network net{"", DType::kInt16};
  Dataset data;
};

// The figure drivers' recipe (zoo entry at its default width, calibrated,
// teacher dataset of kImages images), inside an nn.model_build span.
Model build_model(const std::string& name, DType dtype);

// Median process CPU-seconds of `body` over the set-up repetitions (see
// kSetupReps).
double median_setup_seconds(const std::function<void()>& body);

double seconds_between(std::int64_t start_ns, std::int64_t end_ns);

double median(std::vector<double> values);
// Linear interpolation between closest ranks (q in [0, 1]).
double percentile(std::vector<double> values, double q);

// FNV-1a over every point's accuracy, avg_flips and images.
std::uint64_t digest_points(const std::vector<EvalResult>& points);
bool same_points(const std::vector<EvalResult>& a,
                 const std::vector<EvalResult>& b);

// run_campaign inside a campaign.run span.
CampaignResult traced_campaign(const Network& net, const Dataset& data,
                               const CampaignSpec& spec);

// Peak resident memory of a section: a thread samples VmRSS every 10 ms
// from construction until stop(). Set-up repetitions before it do not
// count, which a process-lifetime high-water mark would include.
class RssPeak {
 public:
  RssPeak();
  ~RssPeak();
  RssPeak(const RssPeak&) = delete;
  RssPeak& operator=(const RssPeak&) = delete;
  // Stops sampling (idempotent) and returns the peak, MiB.
  double stop();

 private:
  std::atomic<bool> stop_{false};
  std::atomic<double> peak_mb_{0};
  std::thread sampler_;  // declared last: it reads the members above
};

// Telemetry registry snapshot, keyed by series name (summed over label
// sets) and by name{labels}; histograms contribute their sum.
class Registry {
 public:
  static Registry read();
  double get(const std::string& key) const;
  double delta(const Registry& before, const std::string& key) const {
    return get(key) - before.get(key);
  }

 private:
  std::map<std::string, double> values_;
};

// Sets the campaign.* and common.* per-layer metrics from registry deltas
// over a traced section of `wall_s` seconds and the summed stats of the
// campaigns it ran.
void set_campaign_layer_metrics(Run& run, const Registry& before,
                                const Registry& after, double wall_s,
                                const CampaignStats& stats);

// Sets the store.* per-layer metrics of a store filled between `before`
// and `written` and read back (run `regen`) between `written` and `read`:
// write bytes, shard restores and read bytes as registry deltas, the
// journal-served share of the regen run's cells, and the median time of
// ResultJournal::read_cells over the journal of `env_hash` in `dir`.
void set_store_layer_metrics(Run& run, const Registry& before,
                             const Registry& written, const Registry& read,
                             const CampaignStats& regen,
                             const std::string& dir, std::uint64_t env_hash);

// Adds `b`'s counters into `a`.
void accumulate_stats(CampaignStats& a, const CampaignStats& b);

struct CellTally {
  std::int64_t correct = 0;
  std::int64_t flips = 0;
};

struct CellLoop {
  // Per point, when every image ran: the EvalResult run_campaign reports.
  std::vector<EvalResult> points;
  // Tallies per (point index, image).
  std::map<std::pair<std::size_t, std::int64_t>, CellTally> cells;
  std::int64_t trials = 0;
  std::int64_t unfaulted_trials = 0;
  std::int64_t sites = 0;  // fault sites + neuron faults planned
};

// Executes the (point, image) cells of `spec` for `images` (empty = all)
// the way run_campaign does, but through the layer calls directly:
// Network::make_golden once per (image, policy), then per trial
// FaultSession::plan (on a twin session, for the site count) and
// Network::predict_replay, each inside its own span. Destruction
// short-circuit points resolve like the campaign's. Only the builtin
// transient fault model is supported (every workload uses it).
CellLoop run_cell_loop(const Network& net, const Dataset& data,
                       const CampaignSpec& spec,
                       const std::vector<std::int64_t>& images, int threads);

// Sets nn.* (except model_build) and fault.* from a cell loop's spans and
// tallies.
void set_cell_loop_metrics(Run& run, const CellLoop& loop);

// Compares `loop`'s per-cell tallies with journal cells of the same spec
// (looked up by campaign_point_hash); counts one check per cell.
void check_cells_against_journal(Run& run, const CampaignSpec& spec,
                                 const CellLoop& loop,
                                 const std::string& store_dir,
                                 std::uint64_t env_hash);

// Runs the conv-layer probes on every conv geometry of `net` and sets the
// conv.* metrics (probes.cpp).
void run_conv_probes(Run& run, const Network& net);

// Workload entry points. Each fills run.metrics (end-to-end names when
// untraced, per-layer names when traced), run.digest and the op counts.
void run_deep_replay(Run& run);
void run_stored_shards(Run& run);

// The service layer's per-layer metrics (service.*), from an in-process
// daemon serving `model` to a closed-loop client (service_probe.cpp).
void run_service_probe(Run& run, const Model& model);

}  // namespace perfbench
