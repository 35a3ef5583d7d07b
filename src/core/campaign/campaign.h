// Campaign engine: every paper figure is a *campaign* — one (network,
// dataset) evaluated across a grid of configurations (BER x policy x
// injection mode x protection set x voltage-derived BER). Running each grid
// point through evaluate() independently rebuilds the fault-free golden
// activations per point and feeds the thread pool one point at a time; the
// campaign engine instead executes the full (image x config x trial)
// cross-product as a single scheduled unit:
//
//   * Golden activations are policy-keyed and campaign-scoped: fault-free
//     execution is bit-identical across BERs, injection modes, and
//     protection sets, so one GoldenCache per (image, ConvPolicy) serves
//     every configuration point that uses that policy. A bounded-memory LRU
//     (GoldenLru) lets arbitrarily large datasets stream.
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
#include "nn/evaluator.h"

namespace winofault {

class GoldenStore;

// One configuration point of a campaign: EvalOptions minus the execution
// knobs that are campaign-level (threads) plus an optional tag for builders.
// NOTE: a new field that can change results must join campaign_point_hash
// (core/store/hash.cpp), or persisted journals will replay stale cells for
// points that differ only in that field.
struct CampaignPoint {
  FaultConfig fault;
  ConvPolicy policy = ConvPolicy::kDirect;
  std::uint64_t seed = 1;
  int trials = 1;
  bool reuse_golden = true;
  double max_expected_flips = 20000.0;  // see EvalOptions
  std::string tag;                      // builder label, for debugging

  CampaignPoint() = default;
  // Adopts everything point-scoped from EvalOptions (threads stays with the
  // campaign spec).
  explicit CampaignPoint(const EvalOptions& options)
      : fault(options.fault),
        policy(options.policy),
        seed(options.seed),
        trials(options.trials),
        reuse_golden(options.reuse_golden),
        max_expected_flips(options.max_expected_flips) {}
};

class GoldenLru;

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
  // one (image, policy). 0 => auto: the images the pool works on at once
  // (min(images, threads)) x live policies, plus one-per-worker slack —
  // enough for the image-major schedule to hit while large datasets
  // stream.
  std::size_t golden_capacity = 0;
  // Persistent campaign store (core/store): result journal for
  // checkpoint/resume + incremental regeneration, and golden shards on
  // disk. Disabled unless `store.dir` is set; results are
  // bit-identical either way (proved in tests/store_test.cpp).
  StoreOptions store;

  // ---- Resident-service hooks (core/service). None of these fields can
  // change any result (none joins a hash): they change who executes and
  // what is observed, never what is computed. `on_progress` and `cancel`
  // apply to the local execution path only. ----

  // External cross-campaign golden tier: when set, the runner serves
  // goldens from this shared LRU (growing its capacity to at least this
  // campaign's working set) instead of a campaign-local one, still saving
  // each golden it uses to its own store. (image, policy) keys are only
  // meaningful within ONE campaign environment — an owner serving several
  // environments must keep one LRU per env hash (core/service sessions do).
  GoldenLru* warm_goldens = nullptr;

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

struct CampaignStats {
  std::int64_t golden_builds = 0;     // make_golden executions
  std::int64_t golden_hits = 0;       // cache hits (incl. waits on in-flight)
  std::int64_t golden_evictions = 0;  // capacity evictions
  std::int64_t short_circuited_points = 0;  // destruction short-circuit
  std::int64_t inferences = 0;  // (image, trial) runs simulated THIS run
  // Persistent-store activity (all zero when the store is disabled):
  std::int64_t journal_cells_loaded = 0;   // cells reused from the journal
  std::int64_t journal_cells_written = 0;  // cells appended this run
  std::int64_t cells_deferred = 0;         // pending cells past cell_budget
  std::int64_t golden_spills = 0;          // goldens serialized to disk
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

// Bounded shared cache of golden activations keyed by (image index, policy).
// Concurrent requests for the same key block on the first builder's future
// instead of duplicating the build; eviction only drops the cache's
// reference, so in-flight users keep their entries alive. The cache holds
// no store: a stored run passes its tier-2 GoldenStore to every call.
class GoldenLru {
 public:
  using Ptr = std::shared_ptr<const GoldenCache>;

  explicit GoldenLru(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  // Returns the cached golden for (image, policy, variant), building it via
  // `build` on a miss. `variant` is the FaultOverlay digest for
  // permanent-fault golden variants (fault/models/overlay.h); 0 — clean
  // silicon — is the historical key space. With a `store` (the calling
  // run's, held by it for the call), a miss tries a disk restore before
  // building, and every golden returned — hit, restore or build — goes to
  // GoldenStore::save, which returns at once when the shard exists. This
  // is the one place a golden reaches disk: a stored run saves each golden
  // as it first uses it. Thread-safe; deterministic because make_golden
  // is a pure function of (image, policy, overlay) and disk restores are
  // byte-exact.
  Ptr get_or_build(std::int64_t image, ConvPolicy policy,
                   const std::function<GoldenCache()>& build,
                   std::uint64_t variant = 0, GoldenStore* store = nullptr);

  // Grows capacity to at least `capacity` (never shrinks): a shared
  // cross-campaign tier (CampaignSpec::warm_goldens) must fit the largest
  // working set among the campaigns it serves or it would thrash on the
  // largest one.
  void ensure_capacity(std::size_t capacity);

  std::int64_t builds() const { return builds_.load(); }
  std::int64_t hits() const { return hits_.load(); }
  std::int64_t evictions() const { return evictions_.load(); }

 private:
  // Cache key: (image, policy) packed into `base`, plus the golden-variant
  // digest (FaultOverlay::digest under permanent-fault models; 0 = clean
  // silicon). Variants are independent entries — a clean-silicon replay
  // can never be served a defective-silicon golden or vice versa.
  struct Key {
    std::uint64_t base = 0;     // (image << 8) | policy
    std::uint64_t variant = 0;  // overlay digest; 0 = clean
    bool operator==(const Key& o) const {
      return base == o.base && variant == o.variant;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return static_cast<std::size_t>((k.base * 0x9e3779b97f4a7c15ULL) ^
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
  std::atomic<std::int64_t> builds_{0};
  std::atomic<std::int64_t> hits_{0};
  std::atomic<std::int64_t> evictions_{0};
};

// Open handles of one store directory under one campaign environment.
struct StoreHandles {
  std::shared_ptr<ResultJournal> journal;  // null when store.journal is off
  std::shared_ptr<GoldenStore> goldens;    // null when spill_goldens is off
};

// Executes campaign specs against one (network, dataset). The runner
// assumes the network and dataset do not change over its lifetime (it
// holds references anyway): the campaign environment hash is computed on
// first use and reused, so sequential-adaptive consumers that run many
// small campaigns through one runner (the TMR planner's accuracy checks,
// a daemon session's submissions) do not re-hash every image per call.
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

// Convenience wrapper over CampaignRunner.
CampaignResult run_campaign(const Network& network, const Dataset& dataset,
                            const CampaignSpec& spec);

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
