// Campaign engine: every paper figure is a *campaign* — one (network,
// dataset) evaluated across a grid of configurations (BER x policy x
// injection mode x protection set x voltage-derived BER). Running each grid
// point through evaluate() independently rebuilds the fault-free golden
// activations per point and feeds the thread pool one point at a time; the
// campaign engine instead executes the full (image x config x trial)
// cross-product as a single scheduled unit:
//
//   * Golden activations are image-keyed: fault-free execution is
//     bit-identical across BERs, injection modes, protection sets and
//     ConvPolicies, so one GoldenCache per image serves every
//     configuration point. The CampaignRunner owns one LRU (GoldenLru)
//     and keeps it between its own runs, so a consumer that runs many
//     campaigns on one (network, dataset) — a figure, the TMR planner, a
//     daemon session — builds each golden once. A capacity bound lets a
//     dataset whose goldens exceed RAM stream.
//   * Scheduling is campaign-granular: the flattened (image, point) grid is
//     one parallel_for, so small datasets still saturate the pool when the
//     grid is wide (images x points units instead of images per call).
//
// Results are bit-identical to point-by-point evaluate() calls: every
// (point, image, trial) derives its fault stream from (point.seed, image,
// trial) alone, and accuracy/flip tallies are integer sums, so neither the
// schedule nor cache eviction can change any number (proved in
// tests/campaign_test.cpp). evaluate() itself is a single-point campaign.
//
// With CampaignSpec::store set, campaign state persists across processes
// (core/store): finished cells journal to disk for kill-anywhere resume
// and incremental regeneration, and every golden the run uses is saved to
// a checksummed shard that later misses restore — still bit-identical
// (tests/store_test.cpp).
//
// With store.dist.shard_count > 1 the campaign executes distributed
// (core/dist): this process claims cost-weighted buckets of pending cells
// from a shared claim board, appends finished cells to its own journal
// segment, steals stale claims of dead workers, and assembles the full
// result from the union of all workers' segments — bit-identical to a
// single-process run (tests/dist_test.cpp).
#pragma once

#include <atomic>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/store/journal.h"
#include "core/store/store.h"
#include "nn/dataset.h"
#include "nn/fault_session.h"
#include "nn/golden_cache.h"
#include "nn/network.h"

namespace winofault {

class GoldenStore;

// One configuration point: an element of CampaignSpec::points and the
// argument of evaluate(). Thread count is campaign-level
// (CampaignSpec::threads).
// NOTE: a new field that can change results must join campaign_point_hash
// (core/store/hash.cpp), or persisted journals will replay stale cells for
// points that differ only in that field.
struct CampaignPoint {
  FaultConfig fault;
  ConvPolicy policy = ConvPolicy::kDirect;
  std::uint64_t seed = 1;

  // Independent injection trials per image; accuracy and flip statistics
  // average over images * trials. Trial 0 reproduces the single-trial
  // fault stream of earlier revisions.
  int trials = 1;

  // Golden-activation cache + incremental fault replay (identical results,
  // far fewer recomputed layers). Off = recompute every trial from scratch.
  bool reuse_golden = true;

  // Destruction short-circuit: when the expected op-level flips per
  // inference exceed this, the network output is noise and simulating
  // hundreds of thousands of replays per image is pointless — the
  // campaign reports chance accuracy (1/classes) directly. Only applies
  // to unrestricted op-level injection (no protection, no exclusions).
  double max_expected_flips = 20000.0;
};

// One point's measurement over the dataset.
struct EvalResult {
  double accuracy = 0.0;       // top-1 vs dataset labels
  double avg_flips = 0.0;      // injected bit flips per inference
  int images = 0;
};

// Progress snapshot streamed to CampaignSpec::on_progress as cells finish
// (local execution path; distributed workers report through the store).
struct CampaignProgress {
  std::int64_t cells_total = 0;     // cells scheduled this run
  std::int64_t cells_done = 0;      // executed so far (monotonic)
  std::int64_t cells_loaded = 0;    // journal cells reused instead of run
  std::int64_t cells_deferred = 0;  // budget- or cancel-skipped so far
};

struct CampaignSpec {
  std::vector<CampaignPoint> points;
  int threads = 0;  // 0 => hardware concurrency
  // Max live GoldenCache entries — one entry is the full activation set of
  // one image. The run grows its runner's LRU, which never shrinks, to
  // this; 0 => images + the run's resolved thread count, so every golden
  // stays for the runner's later runs. A value > 0 bounds a fresh runner's
  // LRU: that is how a dataset whose goldens exceed RAM streams.
  std::size_t golden_capacity = 0;
  // Persistent campaign store (core/store): result journal for
  // checkpoint/resume + incremental regeneration, and golden shards on
  // disk. Disabled unless `store.dir` is set; results are
  // bit-identical either way (proved in tests/store_test.cpp).
  StoreOptions store;

  // ---- Resident-service hooks (core/service). Neither field can change
  // any result (neither joins a hash): they change what is observed and
  // when a run stops, never what is computed. Both apply to the local
  // execution path only. ----

  // Invoked as cells finish — from worker threads, possibly concurrently;
  // keep it cheap and thread-safe. Also invoked once before scheduling so
  // consumers see totals even for fully journal-served runs.
  std::function<void(const CampaignProgress&)> on_progress;

  // Cooperative cancellation: once it reads true, not-yet-started cells
  // are skipped and counted into stats.cells_deferred. Already-journaled
  // cells keep their tallies, so a later resubmission of the same spec
  // resumes from the journal instead of restarting.
  const std::atomic<bool>* cancel = nullptr;
};

// What THIS run did, counted by the run itself: runs that share a runner
// (and so its goldens) or a store directory never see each other's work.
struct CampaignStats {
  std::int64_t golden_builds = 0;     // make_golden executions
  std::int64_t golden_hits = 0;       // cache hits (incl. waits on in-flight)
  std::int64_t golden_evictions = 0;  // evictions this run's inserts caused
  std::int64_t short_circuited_points = 0;  // destruction short-circuit
  std::int64_t inferences = 0;  // (image, trial) runs simulated
  // Persistent-store activity (all zero when the store is disabled):
  std::int64_t journal_cells_loaded = 0;   // cells reused from the journal
  std::int64_t journal_cells_written = 0;  // cells this run appended
  std::int64_t cells_deferred = 0;         // pending cells past cell_budget
  std::int64_t golden_spills = 0;          // shards this run wrote
  std::int64_t golden_restores = 0;        // disk restores instead of builds
  // Always 0: goldens are saved when first used, never flushed at the end.
  // Kept because perfbench and the result wire read it.
  std::int64_t golden_flushed = 0;
  // Distributed execution (all zero unless store.dist is enabled):
  std::int64_t dist_buckets_claimed = 0;  // buckets this worker claimed
  std::int64_t dist_buckets_stolen = 0;   // stale claims taken over
  std::int64_t dist_cells_executed = 0;   // cells this worker ran
  std::int64_t dist_cells_recovered = 0;  // cells read from rival segments
  std::int64_t dist_cells_healed = 0;     // missing cells re-run locally
};

struct CampaignResult {
  std::vector<EvalResult> points;  // parallel to CampaignSpec::points
  CampaignStats stats;
};

// One run's golden-tier work, filled by the GoldenLru::get_or_build calls
// the run makes (its cells add to it concurrently).
struct GoldenTally {
  std::atomic<std::int64_t> hits{0};
  std::atomic<std::int64_t> builds{0};
  std::atomic<std::int64_t> restores{0};
  std::atomic<std::int64_t> spills{0};     // shards written
  std::atomic<std::int64_t> evictions{0};  // entries the run's inserts evicted
};

// Bounded shared cache of golden activations keyed by image index.
// Concurrent requests for the same key block on the first builder's future
// instead of duplicating the build; eviction only drops the cache's
// reference, so in-flight users keep their entries alive. The cache holds
// no store and no counts: a run passes its tier-2 GoldenStore and its
// GoldenTally to every call, so runs sharing one cache each count only
// their own calls.
class GoldenLru {
 public:
  using Ptr = std::shared_ptr<const GoldenCache>;

  explicit GoldenLru(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  // Returns the cached golden for (image, variant), building it via `build`
  // on a miss, and adds the call's hit, build, restore, shard write and
  // evictions to `tally`. `variant` is the FaultOverlay digest for
  // permanent-fault golden variants (fault/models/overlay.h); 0 — clean
  // silicon — is the historical key space. With a `store` (the calling
  // run's, held by it for the call), a miss tries a disk restore before
  // building, and every golden returned — hit, restore or build — goes to
  // GoldenStore::save, which returns at once when the shard exists. This
  // is the one place a golden reaches disk: a stored run saves each golden
  // as it first uses it. Thread-safe; deterministic because make_golden
  // is a pure function of (image, overlay) and disk restores are
  // byte-exact.
  Ptr get_or_build(std::int64_t image,
                   const std::function<GoldenCache()>& build,
                   GoldenTally& tally, std::uint64_t variant = 0,
                   GoldenStore* store = nullptr);

  // Grows capacity to at least `capacity`; never shrinks. Each run grows
  // its runner's LRU to its own working set (CampaignSpec::golden_capacity).
  void ensure_capacity(std::size_t capacity);

 private:
  // Cache key: the image plus the golden-variant digest
  // (FaultOverlay::digest under permanent-fault models; 0 = clean
  // silicon). Variants are independent entries — a clean-silicon replay
  // can never be served a defective-silicon golden or vice versa.
  struct Key {
    std::uint64_t image = 0;
    std::uint64_t variant = 0;  // overlay digest; 0 = clean
    bool operator==(const Key& o) const {
      return image == o.image && variant == o.variant;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return static_cast<std::size_t>((k.image * 0x9e3779b97f4a7c15ULL) ^
                                      k.variant);
    }
  };
  struct Entry {
    std::shared_future<Ptr> future;
    std::list<Key>::iterator lru_it;
    std::uint64_t owner = 0;  // build id, distinguishes re-inserted entries
  };

  std::size_t capacity_;  // guarded by mu_ (ensure_capacity can raise it)
  std::mutex mu_;
  std::list<Key> lru_;  // front = most recently used
  std::unordered_map<Key, Entry, KeyHash> map_;
  std::uint64_t next_owner_ = 0;
};

// Open handles of one store directory under one campaign environment.
struct StoreHandles {
  std::shared_ptr<ResultJournal> journal;  // null when store.journal is off
  std::shared_ptr<GoldenStore> goldens;    // null when spill_goldens is off
};

// Executes campaign specs against one (network, dataset). The runner
// assumes the network and dataset do not change over its lifetime (it
// holds references anyway), so build it only after the network is
// calibrated or trained. The campaign environment hash is computed on
// first use and reused, so sequential-adaptive consumers that run many
// small campaigns through one runner (the TMR planner's accuracy checks,
// a daemon session's submissions) do not re-hash every image per call.
//
// The runner is the one owner of goldens: every run serves them from the
// runner's GoldenLru and grows it to its own working set, so later runs
// through the runner hit instead of rebuilding, and a figure, a TMR
// planning sweep or a daemon session builds each golden once.
//
// The runner is also the one owner of open store handles. Opening a
// journal re-reads every record and opening a GoldenStore re-indexes every
// shard, so the runner keeps the handles of its store directory open
// between its own runs: a warm resume through one runner costs O(1) per
// run, while every run_campaign() call (a fresh runner) re-reads the
// files. Contract: nothing else mutates the store's files between the
// runner's runs — its open journal would not observe it.
class CampaignRunner {
 public:
  CampaignRunner(const Network& network, const Dataset& dataset)
      : network_(network), dataset_(dataset) {}

  CampaignResult run(const CampaignSpec& spec) const;

  const Network& network() const { return network_; }
  const Dataset& dataset() const { return dataset_; }

  // Cached campaign_env_hash(network, dataset).
  std::uint64_t env_hash() const;

  // Handles of `store.dir` for this runner's environment: the journal
  // opened in `mode` (a dist worker's segment when `segment_tag` is set)
  // and the GoldenStore for `store.golden_disk_budget`. Opened on first
  // use and kept open for later calls under the same directory. A call
  // naming another directory stops keeping the previous one's handles,
  // but a handle some run still holds is handed out again instead of
  // opened twice, so concurrent runs of one directory share one journal.
  // A kept appendable journal whose last write failed is reopened, so one
  // failed append cannot end checkpointing for the runner's later runs.
  // Empty when the store is disabled. Thread-safe.
  StoreHandles store_handles(const StoreOptions& store,
                             ResultJournal::Mode mode,
                             const std::string& segment_tag = {}) const;

 private:
  // One handle store_handles handed out: `open` keeps it alive while its
  // directory is the kept one, `live` finds it while a run still holds it.
  template <typename T>
  struct Slot {
    std::shared_ptr<T> open;
    std::weak_ptr<T> live;
  };

  const Network& network_;
  const Dataset& dataset_;
  mutable GoldenLru lru_{1};  // every run's goldens
  // 0 = not yet computed (a true hash of 0 just recomputes — benign).
  mutable std::atomic<std::uint64_t> env_hash_{0};
  mutable std::mutex store_mu_;  // guards the store handles below
  mutable std::string kept_dir_;
  // By (directory, journal mode, segment tag).
  mutable std::map<std::tuple<std::string, ResultJournal::Mode, std::string>,
                   Slot<ResultJournal>>
      journals_;
  // By (directory, disk budget): two budgets never share one index.
  mutable std::map<std::pair<std::string, std::uint64_t>, Slot<GoldenStore>>
      goldens_;
};

// One-shot convenience: a fresh CampaignRunner per call, so nothing (no
// golden, no store handle) is shared with any other call.
CampaignResult run_campaign(const Network& network, const Dataset& dataset,
                            const CampaignSpec& spec);

// Accuracy under fault injection at one point: a single-point campaign, so
// it is bit-identical to the same point inside any larger spec. `threads`
// as CampaignSpec::threads (0 => hardware concurrency). Like
// run_campaign, a fresh runner per call.
EvalResult evaluate(const Network& network, const Dataset& dataset,
                    const CampaignPoint& point, int threads = 0);

// Process-wide campaign submission hook (installed by service *clients*,
// core/service): when set, CampaignRunner::run offers every spec to the
// hook first; a non-nullopt return is used as the campaign result —
// executed elsewhere, e.g. by a resident winofaultd daemon — and nullopt
// falls through to ordinary local execution (unknown environment, daemon
// unreachable). The daemon itself never installs a hook, so server-side
// campaigns always execute locally. Install before spawning campaigns;
// installation is not synchronized against concurrent run() calls.
using CampaignSubmitHook = std::function<std::optional<CampaignResult>(
    const Network&, const Dataset&, const CampaignSpec&)>;
void set_campaign_submit_hook(CampaignSubmitHook hook);

// Fault-stream seed of trial `trial` on image `image` under a point seeded
// `seed` — the contract shared by scratch evaluation, cached replay, and
// campaign scheduling (trial 0 reproduces the historical per-image stream).
std::uint64_t fault_stream_seed(std::uint64_t seed, std::int64_t image,
                                int trial);

}  // namespace winofault
