#include "core/campaign/campaign.h"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <csignal>
#include <optional>
#include <random>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/telemetry/events.h"
#include "common/telemetry/telemetry.h"
#include "core/dist/buckets.h"
#include "core/dist/claim_board.h"
#include "core/store/golden_store.h"
#include "core/store/hash.h"
#include "core/store/journal.h"
#include "fault/fault_model.h"
#include "fault/models/overlay.h"

namespace winofault {

// Trial 0 keeps the historical per-image derivation (odd, distinct per
// image) so single-trial runs are bit-compatible with earlier revisions;
// later trials re-mix through SplitMix64-style constants so streams never
// collide across images.
std::uint64_t fault_stream_seed(std::uint64_t seed, std::int64_t image,
                                int trial) {
  std::uint64_t base = seed * 0x9e3779b97f4a7c15ULL +
                       static_cast<std::uint64_t>(image) * 2 + 1;
  if (trial > 0) {
    base ^= (static_cast<std::uint64_t>(trial) + 1) * 0xbf58476d1ce4e5b9ULL;
    base *= 0x94d049bb133111ebULL;
    base |= 1;  // keep the stream odd like the trial-0 derivation
  }
  return base;
}

namespace {

// Installed by service clients (core/service); empty by default. Heap
// allocation keeps the hook alive for campaigns running past main's end.
CampaignSubmitHook& submit_hook_ref() {
  static CampaignSubmitHook* hook = new CampaignSubmitHook;
  return *hook;
}

// When the expected op-level flips per inference would reduce the output to
// noise, the point reports chance accuracy directly instead of simulating
// hundreds of thousands of replays (see CampaignPoint::max_expected_flips).
// Only applies to unrestricted op-level injection.
std::optional<EvalResult> destruction_short_circuit(
    const Network& network, const Dataset& dataset,
    const CampaignPoint& point) {
  if (point.fault.mode != InjectionMode::kOpLevel ||
      !point.fault.model.is_default() || !point.fault.protection.empty() ||
      point.fault.fault_free_layer >= 0 ||
      point.fault.only_kind.has_value() || dataset.num_classes <= 1) {
    return std::nullopt;
  }
  const FaultModel model{point.fault.ber};
  const double expected =
      model.expected_flips(network.total_op_space(point.policy));
  if (expected <= point.max_expected_flips) return std::nullopt;
  EvalResult result;
  result.images = static_cast<int>(dataset.images.size());
  result.accuracy = 1.0 / static_cast<double>(dataset.num_classes);
  result.avg_flips = expected;
  return result;
}

// Campaign-tier telemetry. Observation-only: every series is an atomic
// side-counter or a duration; none feeds back into scheduling or results.
// The phase histogram carries the golden-build / replay / inject split the
// benches surface as golden_build_s / exec_s.
telemetry::Histogram& phase_metric(const char* phase) {
  return telemetry::histogram(
      "winofault_campaign_phase_us",
      "microseconds per campaign phase unit (golden build, per-cell replay "
      "or scratch inject)",
      std::string("phase=\"") + phase + "\"");
}
telemetry::Histogram& phase_golden_build_metric() {
  static telemetry::Histogram& h = phase_metric("golden_build");
  return h;
}
telemetry::Histogram& phase_replay_metric() {
  static telemetry::Histogram& h = phase_metric("replay");
  return h;
}
telemetry::Histogram& phase_inject_metric() {
  static telemetry::Histogram& h = phase_metric("inject");
  return h;
}
telemetry::Counter& cells_metric() {
  static telemetry::Counter& c = telemetry::counter(
      "winofault_campaign_cells_total", "campaign cells executed");
  return c;
}
telemetry::Counter& trials_metric() {
  static telemetry::Counter& c = telemetry::counter(
      "winofault_campaign_trials_total",
      "fault-injection trials (inferences) simulated");
  return c;
}

// Golden-tier series are split per golden variant: "clean" is the
// clean-silicon key space, permanent-fault overlays appear under their
// digest, so a scraper can see a defective-silicon campaign thrash its
// variant goldens separately from the shared clean tier.
std::string golden_variant_labels(std::uint64_t variant) {
  if (variant == 0) return "variant=\"clean\"";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "variant=\"%016llx\"",
                static_cast<unsigned long long>(variant));
  return buf;
}
telemetry::Counter& golden_metric(const char* which, const char* help,
                                  std::uint64_t variant) {
  return telemetry::counter(std::string("winofault_golden_") + which, help,
                            golden_variant_labels(variant));
}

// Integer tallies of one (point, image) cell over the point's trials —
// the unit both execution paths schedule and journal. The golden is built
// under kDirect and replayed under point.policy: fault-free outputs are
// engine-independent. A non-null `overlay` (permanent-fault model, pure
// function of the point) keys the golden into its faulted-weights variant
// and counts its defective cells as the trial's flips; transient models
// leave it null.
JournalCell execute_cell(const Network& network, const Dataset& dataset,
                         const CampaignPoint& point,
                         std::uint64_t point_hash, std::int64_t i,
                         GoldenLru& lru, GoldenTally& tally,
                         GoldenStore* store, const FaultOverlay* overlay) {
  const TensorF& image = dataset.images[static_cast<std::size_t>(i)];
  const int label = dataset.labels[static_cast<std::size_t>(i)];
  // Every (point, image, trial) derives its own fault stream, so the
  // result is independent of the thread schedule, of reuse_golden, and of
  // cache eviction/rebuild.
  JournalCell cell;
  cell.point_hash = point_hash;
  cell.image = i;
  const std::int64_t overlay_flips =
      overlay != nullptr ? overlay->site_count : 0;
  if (point.reuse_golden) {
    const GoldenLru::Ptr golden = lru.get_or_build(
        i,
        [&] {
          return network.make_golden(image, ConvPolicy::kDirect, overlay);
        },
        tally, overlay != nullptr ? overlay->digest : 0, store);
    telemetry::TraceSpan span("cell_replay", "campaign");
    const std::int64_t t0 = telemetry::now_us();
    for (int t = 0; t < point.trials; ++t) {
      FaultSession session(point.fault, fault_stream_seed(point.seed, i, t));
      cell.correct +=
          network.predict_replay(*golden, point.policy, session) == label;
      cell.flips += session.total_flips() + overlay_flips;
    }
    phase_replay_metric().observe(telemetry::now_us() - t0);
  } else {
    telemetry::TraceSpan span("cell_inject", "campaign");
    const std::int64_t t0 = telemetry::now_us();
    for (int t = 0; t < point.trials; ++t) {
      FaultSession session(point.fault, fault_stream_seed(point.seed, i, t));
      ExecContext ctx;
      ctx.policy = point.policy;
      ctx.session = &session;
      ctx.overlay = overlay;
      cell.correct += network.predict(image, ctx) == label;
      cell.flips += session.total_flips() + overlay_flips;
    }
    phase_inject_metric().observe(telemetry::now_us() - t0);
  }
  cells_metric().add(1);
  trials_metric().add(point.trials);
  return cell;
}

// Per-point permanent-fault overlays, parallel to spec.points (null for
// transient/default models and for overlays that sampled zero defects — an
// empty overlay IS clean silicon, so those points share the variant-0
// goldens). Each overlay is a pure function of (model, ber, point.seed,
// network geometry), so every worker, resume, and daemon session derives
// the identical defect set without communicating.
std::vector<std::unique_ptr<FaultOverlay>> build_point_overlays(
    const Network& network, const CampaignSpec& spec,
    const std::vector<std::size_t>& active) {
  std::vector<std::unique_ptr<FaultOverlay>> overlays(spec.points.size());
  for (const std::size_t p : active) {
    const CampaignPoint& point = spec.points[p];
    if (!point.fault.model.uses_overlay()) continue;
    auto overlay = std::make_unique<FaultOverlay>(
        build_fault_overlay(network, point.fault, point.seed));
    if (!overlay->empty()) overlays[p] = std::move(overlay);
  }
  return overlays;
}

// Relative execution cost of one (point, image) cell, for bucket balance
// in distributed runs. Replay cost scales with injected fault sites (each
// fault's dirty cone is recomputed), so expected flips per inference —
// capped at the destruction threshold, past which points short-circuit —
// is the dominant term; trials multiply. A heuristic: protection and
// injection-mode details shift the constant, not the orders of magnitude
// between a near-clean and a destruction-adjacent point.
double cell_cost_weight(const Network& network, const CampaignPoint& point) {
  const FaultModel model{point.fault.ber};
  const double expected =
      model.expected_flips(network.total_op_space(point.policy));
  return (1.0 + std::min(expected, point.max_expected_flips)) *
         static_cast<double>(std::max(point.trials, 1));
}

std::string sanitize_worker_tag(const std::string& tag) {
  std::string out;
  out.reserve(tag.size());
  for (const char c : tag) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-') {
      out += c;
    }
  }
  // Stripping must not collapse distinct tags onto one segment file ("w.1"
  // and "w:1" both sanitizing to "w1" would give two live workers the
  // same exclusive-writer segment): mark a changed tag with a hash of the
  // original so distinct inputs stay distinct.
  if (!tag.empty() && out != tag) {
    char suffix[16];
    std::snprintf(suffix, sizeof(suffix), "-x%08x",
                  static_cast<unsigned>(Fnv64().bytes(tag.data(),
                                                      tag.size())
                                            .digest() &
                                        0xffffffffu));
    out += suffix;
  }
  return out;
}

// Default worker tag: pid alone is NOT unique across hosts sharing one
// store directory (the hand-started --shard multi-host mode), and two
// live workers sharing a tag would clobber each other's segment — so mix
// in entropy once per process.
std::string default_worker_tag() {
  static const std::string tag = [] {
    std::random_device rd;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "w%ld-%08x",
                  static_cast<long>(::getpid()),
                  static_cast<unsigned>(rd()));
    return std::string(buf);
  }();
  return tag;
}

// Short-circuit resolution shared by both execution paths: resolves
// destruction points into `result` directly and returns the indices of
// the points that actually schedule.
std::vector<std::size_t> resolve_active_points(const Network& network,
                                               const Dataset& dataset,
                                               const CampaignSpec& spec,
                                               CampaignResult* result) {
  std::vector<std::size_t> active;
  active.reserve(spec.points.size());
  for (std::size_t p = 0; p < spec.points.size(); ++p) {
    if (const auto sc =
            destruction_short_circuit(network, dataset, spec.points[p])) {
      result->points[p] = *sc;
      ++result->stats.short_circuited_points;
    } else {
      active.push_back(p);
    }
  }
  return active;
}

}  // namespace

void GoldenLru::ensure_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = std::max(capacity_, std::max<std::size_t>(capacity, 1));
}

GoldenLru::Ptr GoldenLru::get_or_build(
    std::int64_t image, const std::function<GoldenCache()>& build,
    GoldenTally& tally, std::uint64_t variant, GoldenStore* store) {
  const Key key{static_cast<std::uint64_t>(image), variant};
  std::promise<Ptr> promise;
  std::shared_future<Ptr> future;
  std::uint64_t owner = 0;
  bool builder = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (const auto it = map_.find(key); it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      future = it->second.future;
      tally.hits.fetch_add(1, std::memory_order_relaxed);
      golden_metric("hits_total", "GoldenLru cache hits", variant).add(1);
    } else {
      golden_metric("misses_total", "GoldenLru cache misses", variant).add(1);
      builder = true;
      owner = ++next_owner_;
      future = promise.get_future().share();
      lru_.push_front(key);
      map_.emplace(key, Entry{future, lru_.begin(), owner});
      // Evict least-recently-used entries over capacity. In-flight users of
      // an evicted entry hold their own future/shared_ptr, so eviction only
      // costs a potential rebuild (or a disk restore), never correctness.
      while (map_.size() > capacity_) {
        const Key victim = lru_.back();
        map_.erase(victim);
        lru_.pop_back();
        tally.evictions.fetch_add(1, std::memory_order_relaxed);
        golden_metric("evictions_total", "GoldenLru capacity evictions",
                      victim.variant)
            .add(1);
      }
    }
  }
  Ptr ptr;
  if (!builder) {
    ptr = future.get();
  } else {
    // The try block ends BEFORE promise.set_value: the catch below calls
    // promise.set_exception, which would itself throw (and escape into the
    // worker pool) if the promise were already satisfied.
    try {
      if (store != nullptr) {
        if (std::optional<GoldenCache> restored =
                store->load(image, variant)) {
          ptr = std::make_shared<const GoldenCache>(std::move(*restored));
          tally.restores.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (ptr == nullptr) {
        tally.builds.fetch_add(1, std::memory_order_relaxed);
        golden_metric("builds_total", "golden activation builds", variant)
            .add(1);
        telemetry::TraceSpan span("golden_build", "campaign");
        const std::int64_t t0 = telemetry::now_us();
        ptr = std::make_shared<const GoldenCache>(build());
        phase_golden_build_metric().observe(telemetry::now_us() - t0);
      }
    } catch (...) {
      // Propagate the real error to concurrent waiters and drop the entry
      // so later lookups retry instead of replaying a broken promise. The
      // owner check keeps a healthy entry alive if this one was already
      // evicted and the key re-inserted by another builder.
      promise.set_exception(std::current_exception());
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (const auto it = map_.find(key);
            it != map_.end() && it->second.owner == owner) {
          lru_.erase(it->second.lru_it);
          map_.erase(it);
        }
      }
      throw;
    }
    promise.set_value(ptr);
  }
  // The one write point of the golden tier: whichever run, cache or
  // eviction order served this golden, the calling run finds it on disk
  // from here on. save never throws and returns at once when the shard
  // exists or another caller is writing it.
  if (store != nullptr && store->save(image, *ptr, variant)) {
    tally.spills.fetch_add(1, std::memory_order_relaxed);
  }
  return ptr;
}

std::uint64_t CampaignRunner::env_hash() const {
  std::uint64_t h = env_hash_.load(std::memory_order_acquire);
  if (h == 0) {
    h = campaign_env_hash(network_, dataset_);
    env_hash_.store(h, std::memory_order_release);
  }
  return h;
}

namespace {

// One (image, point) cell to execute; `a` indexes CellPlan::active.
struct Unit {
  std::int64_t image;
  std::uint32_t a;
};

// What a campaign derives before it executes a cell, the same for a local
// run and a dist worker: the points left after the destruction
// short-circuit, their hashes and overlays, the store handles, the
// runner's golden LRU grown to this run's capacity, and the pending units.
// Cells the journal already holds seed the tallies instead of becoming
// pending: every cell is a pure function of (point, image) within this
// environment, so resumed totals are bit-identical to an uninterrupted run
// (proved in store_test).
struct CellPlan {
  CellPlan(const CampaignRunner& runner, GoldenLru& lru,
           const CampaignSpec& spec, bool distributed, CampaignResult& result);

  // The one cell loop: runs pending[begin, end) through parallel_for. Each
  // unit this process has not tallied yet executes, appends to `sink` (a
  // no-op once the sink refuses appends) and joins its point's tallies, so
  // a unit counts once however often a dist worker re-runs its bucket.
  // `before()` runs ahead of each cell and returns false to skip it;
  // `after(n)` follows each cell, n counting the cells executed so far.
  template <typename Before, typename After>
  void execute(std::size_t begin, std::size_t end, Before&& before,
               After&& after) {
    parallel_for(static_cast<std::int64_t>(end - begin), threads,
                 [&](std::int64_t k) {
      const std::size_t u = begin + static_cast<std::size_t>(k);
      if (tallied[u] || !before()) return;
      const std::size_t p = active[pending[u].a];
      const JournalCell cell =
          execute_cell(network, dataset, spec.points[p], point_hashes[p],
                       pending[u].image, lru, goldens, golden_store.get(),
                       overlays[p].get());
      if (sink != nullptr && sink->append(cell)) {
        journaled.fetch_add(1, std::memory_order_relaxed);
      }
      tally(u, cell);
      inferences.fetch_add(spec.points[p].trials, std::memory_order_relaxed);
      after(executed.fetch_add(1, std::memory_order_relaxed) + 1);
    });
  }

  void tally(std::size_t u, const JournalCell& cell) {
    tallied[u] = 1;
    correct[pending[u].a].fetch_add(cell.correct, std::memory_order_relaxed);
    flips[pending[u].a].fetch_add(cell.flips, std::memory_order_relaxed);
  }

  // Writes the per-point results and this run's stats into `result`.
  void finalize();

  const CampaignRunner& runner;  // owns the store handles and `lru`
  const Network& network;
  const Dataset& dataset;
  const CampaignSpec& spec;
  CampaignResult& result;
  const std::uint64_t env;
  const std::int64_t images;
  const int threads;
  std::vector<std::uint64_t> point_hashes;  // parallel to spec.points
  std::vector<std::size_t> active;          // the points that schedule
  std::vector<std::unique_ptr<FaultOverlay>> overlays;  // parallel to points
  // Seeds the pending set. A local run appends to it; a dist worker opens
  // it read-only and appends to its own segment instead.
  std::shared_ptr<ResultJournal> journal;
  // Every golden a cell uses is restored from and saved to this store, so
  // the plan holds it for the whole run (null without a golden tier).
  std::shared_ptr<GoldenStore> golden_store;
  std::shared_ptr<ResultJournal> sink;  // where executed cells append
  GoldenLru& lru;
  // Pending units, image-major: a contiguous slice (a pool worker's range,
  // a dist bucket) covers a few images across all their points, so one
  // golden per image serves the whole slice.
  std::vector<Unit> pending;
  std::vector<char> tallied;                       // parallel to pending
  std::vector<std::atomic<std::int64_t>> correct;  // parallel to active
  std::vector<std::atomic<std::int64_t>> flips;    // parallel to active
  // This run's own counts: the runner's LRU, journal and GoldenStore may
  // serve other runs at the same time.
  std::atomic<std::int64_t> executed{0};
  std::atomic<std::int64_t> inferences{0};
  std::atomic<std::int64_t> journaled{0};  // cells appended to `sink`
  GoldenTally goldens;
};

CellPlan::CellPlan(const CampaignRunner& runner, GoldenLru& lru,
                   const CampaignSpec& spec, bool distributed,
                   CampaignResult& result)
    : runner(runner),
      network(runner.network()),
      dataset(runner.dataset()),
      spec(spec),
      result(result),
      env(spec.store.enabled() ? runner.env_hash() : 0),
      images(static_cast<std::int64_t>(dataset.images.size())),
      // Workers of a local coordinator run side by side on one machine and
      // split it evenly; a hand-started shard on its own host uses all of
      // it.
      threads(spec.threads > 0 ? spec.threads
              : distributed && spec.store.dist.share_host
                  ? std::max(1, default_thread_count() /
                                    spec.store.dist.shard_count)
                  : default_thread_count()),
      lru(lru) {
  result.points.resize(spec.points.size());
  point_hashes.reserve(spec.points.size());
  for (const CampaignPoint& point : spec.points) {
    point_hashes.push_back(campaign_point_hash(point));
  }

  // Persistent store (core/store): both tiers are keyed by content hashes
  // of the (network, dataset) environment and of each point, so recovered
  // journal cells and restored goldens can never come from different
  // state than this campaign would compute. Dist workers never write the
  // canonical journal (the merge step owns it), so N workers can recover
  // it concurrently without racing on its repair path.
  const StoreHandles handles = runner.store_handles(
      spec.store, distributed ? ResultJournal::Mode::kReadOnly
                              : ResultJournal::Mode::kAppend);
  journal = handles.journal;
  golden_store = handles.goldens;
  if (!distributed) sink = journal;

  active = resolve_active_points(network, dataset, spec, &result);
  if (active.empty()) return;
  overlays = build_point_overlays(network, spec, active);

  // The runner's LRU serves this run and the runner's later ones, so by
  // default it keeps every image's golden, plus one-per-worker slack for a
  // thief that starts on a fresh image. Every run visits the images in the
  // same order: an LRU smaller than the dataset would evict each golden
  // just before the next run needs it.
  lru.ensure_capacity(spec.golden_capacity > 0
                          ? spec.golden_capacity
                          : static_cast<std::size_t>(images + threads));

  correct = std::vector<std::atomic<std::int64_t>>(active.size());
  flips = std::vector<std::atomic<std::int64_t>>(active.size());
  for (std::int64_t i = 0; i < images; ++i) {
    for (std::size_t a = 0; a < active.size(); ++a) {
      JournalCell cell;
      if (journal != nullptr &&
          journal->lookup(point_hashes[active[a]], i, &cell)) {
        correct[a] += cell.correct;
        flips[a] += cell.flips;
        ++result.stats.journal_cells_loaded;
      } else {
        pending.push_back(Unit{i, static_cast<std::uint32_t>(a)});
      }
    }
  }

  // The budget only applies when an appendable journal exists to pick up
  // the deferred cells: without one (store disabled, or the journal file
  // unwritable) a truncated run could never be resumed, so the budget
  // would silently lose cells instead of checkpointing them.
  const std::int64_t budget = spec.store.cell_budget;
  if (budget > 0 && distributed) {
    WF_WARN << "campaign: cell_budget is ignored under distributed "
               "execution (workers cooperate to finish every cell)";
  } else if (budget > 0 && journal != nullptr && journal->can_append() &&
             static_cast<std::int64_t>(pending.size()) > budget) {
    result.stats.cells_deferred =
        static_cast<std::int64_t>(pending.size()) - budget;
    pending.resize(static_cast<std::size_t>(budget));
    // Partial tallies flow into the returned accuracies, so no consumer
    // may mistake a budgeted checkpoint run for finished results.
    WF_WARN << "campaign: cell budget deferred "
            << result.stats.cells_deferred << " of "
            << result.stats.cells_deferred + budget
            << " pending cells; reported point results are PARTIAL until a "
               "resume finishes them";
  }
  tallied.assign(pending.size(), 0);
}

void CellPlan::finalize() {
  for (std::size_t a = 0; a < active.size(); ++a) {
    const double runs = static_cast<double>(images) *
                        static_cast<double>(spec.points[active[a]].trials);
    EvalResult& r = result.points[active[a]];
    r.images = static_cast<int>(images);
    r.accuracy = static_cast<double>(correct[a].load()) / runs;
    r.avg_flips = static_cast<double>(flips[a].load()) / runs;
  }
  result.stats.inferences = inferences.load();
  result.stats.journal_cells_written = journaled.load();
  result.stats.golden_builds = goldens.builds.load();
  result.stats.golden_hits = goldens.hits.load();
  result.stats.golden_evictions = goldens.evictions.load();
  result.stats.golden_spills = goldens.spills.load();
  result.stats.golden_restores = goldens.restores.load();
}

// Local execution: this process runs every pending unit. `cancelled`
// counts cells skipped after the cancel flag flipped — they join
// cells_deferred, so a cancelled stored job is exactly a budget-truncated
// one (resubmitting resumes from the journal).
void run_local(CellPlan& plan) {
  const CampaignSpec& spec = plan.spec;
  CampaignResult& result = plan.result;
  const std::int64_t cells_total =
      static_cast<std::int64_t>(plan.pending.size());
  std::atomic<std::int64_t> cancelled{0};
  const auto emit_progress = [&] {
    if (!spec.on_progress) return;
    CampaignProgress progress;
    progress.cells_total = cells_total;
    progress.cells_done = plan.executed.load(std::memory_order_relaxed);
    progress.cells_loaded = result.stats.journal_cells_loaded;
    progress.cells_deferred = result.stats.cells_deferred +
                              cancelled.load(std::memory_order_relaxed);
    spec.on_progress(progress);
  };
  emit_progress();  // totals up front, even for fully journal-served runs
  plan.execute(
      0, plan.pending.size(),
      [&] {
        if (spec.cancel == nullptr ||
            !spec.cancel->load(std::memory_order_relaxed)) {
          return true;
        }
        cancelled.fetch_add(1, std::memory_order_relaxed);
        return false;
      },
      [&](std::int64_t) { emit_progress(); });
  result.stats.cells_deferred += cancelled.load();
}

// Distributed execution (core/dist). This process is worker shard_index of
// shard_count sharing spec.store.dir. Protocol per campaign:
//
//   1. Pending cells are derived from the *canonical* journal alone
//      (opened read-only — only the coordinator's merge writes it), so
//      every worker computes the identical pending set, bucket partition,
//      and claim-board key without communicating.
//   2. Buckets are claimed through the board (atomic link), executed with
//      this worker's thread share, and every finished cell is appended to
//      this worker's own segment — no cross-process contention on the hot
//      path. Claims are heartbeaten as cells finish; stale claims of dead
//      workers are stolen and their buckets re-executed (duplicate cells
//      are identical by determinism).
//   3. When every bucket is done, the worker assembles the full result
//      from canonical cells + the union of all segments. The totals are
//      integer sums of deterministic cells, so the assembled result is
//      bit-identical to a single-process run (tests/dist_test.cpp).
void run_distributed(CellPlan& plan) {
  static telemetry::Counter& claims_metric = telemetry::counter(
      "winofault_dist_buckets_claimed_total",
      "cost buckets this process claimed from the board");
  static telemetry::Counter& steals_metric = telemetry::counter(
      "winofault_dist_buckets_stolen_total",
      "stale claims of dead workers taken over");
  static telemetry::Counter& recovered_metric = telemetry::counter(
      "winofault_dist_cells_recovered_total",
      "cells folded in from rival worker segments at assembly");
  static telemetry::Counter& healed_metric = telemetry::counter(
      "winofault_dist_cells_healed_total",
      "cells missing from every segment and re-executed locally");
  const CampaignSpec& spec = plan.spec;
  const DistOptions& dist = spec.store.dist;
  CampaignResult& result = plan.result;
  const std::vector<Unit>& pending = plan.pending;
  const std::vector<std::size_t>& active = plan.active;
  if (pending.empty()) return;
  std::string tag = sanitize_worker_tag(dist.worker_tag);
  if (tag.empty()) tag = default_worker_tag();

  // Cost-aware buckets + claim board: identical in every worker because
  // both derive from the canonical pending set and the static per-point
  // estimate alone.
  std::vector<double> point_weight(active.size());
  for (std::size_t a = 0; a < active.size(); ++a) {
    point_weight[a] = cell_cost_weight(plan.network, spec.points[active[a]]);
  }
  std::vector<double> weights(pending.size());
  std::vector<std::uint64_t> pending_keys(pending.size());
  for (std::size_t u = 0; u < pending.size(); ++u) {
    weights[u] = point_weight[pending[u].a];
    pending_keys[u] = journal_cell_key(
        plan.point_hashes[active[pending[u].a]], pending[u].image);
  }
  // About four cost-weighted buckets per worker: enough stealable pieces
  // that a dead worker's share redistributes evenly.
  constexpr std::size_t kBucketsPerWorker = 4;
  const std::size_t target_buckets =
      std::min(pending.size(), static_cast<std::size_t>(dist.shard_count) *
                                   kBucketsPerWorker);
  const std::vector<CostBucket> buckets =
      make_cost_buckets(weights, target_buckets);
  const int bucket_count = static_cast<int>(buckets.size());
  ClaimBoard board(spec.store.dir,
                   dist_board_key(plan.env, pending_keys, buckets.size()),
                   tag, dist.claim_stale_ms);

  // This worker's own journal segment, kept open by the runner so a
  // sequential-adaptive consumer (TMR planner checks) does not re-read its
  // own growing segment per campaign.
  const std::shared_ptr<ResultJournal> segment =
      plan.runner
          .store_handles(spec.store, ResultJournal::Mode::kAppend, tag)
          .journal;
  plan.sink = segment;

  std::atomic<std::int64_t> last_heartbeat_ms{0};
  const auto now_ms = [] {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  };
  const auto die_switch = [&](std::int64_t executed) {
    if (dist.die_after_cells > 0 && executed >= dist.die_after_cells) {
      // Deterministic crash simulation for tests/CI: die exactly like a
      // kill -9 — no cleanup, claims left to go stale and be stolen.
      WF_WARN << "campaign: worker " << tag << " self-SIGKILL after "
              << dist.die_after_cells << " cells (die_after_cells)";
      std::raise(SIGKILL);
    }
  };
  const auto execute_bucket = [&](int b) {
    const CostBucket& bucket = buckets[static_cast<std::size_t>(b)];
    last_heartbeat_ms.store(now_ms(), std::memory_order_relaxed);
    plan.execute(
        bucket.begin, bucket.end,
        [&] {
          // Freshen the claim BEFORE the (possibly long) cell so the mtime
          // is at worst one cell old; rate-limited to a fraction of the
          // staleness window. A single cell longer than claim_stale_ms can
          // still be presumed abandoned and stolen — wasted duplicate
          // work, never divergence — so size the window above the
          // heaviest cell.
          const std::int64_t now = now_ms();
          std::int64_t last =
              last_heartbeat_ms.load(std::memory_order_relaxed);
          if (now - last >=
                  std::max<std::int64_t>(dist.claim_stale_ms / 4, 1) &&
              last_heartbeat_ms.compare_exchange_strong(last, now)) {
            board.heartbeat(b);
          }
          return true;
        },
        die_switch);
  };

  if (!segment->can_append()) {
    // Claimed work would be lost to every other worker: degrade to running
    // every pending cell here, off the board (correct, just not
    // cooperative). The executor tallies them, so assembly finds nothing
    // left to resolve.
    WF_WARN << "campaign: worker segment " << segment->path()
            << " is unwritable; executing all pending cells locally "
               "(results stay correct but are not shared)";
    plan.execute(0, pending.size(), [] { return true; }, die_switch);
  } else {
    // Claim / steal / wait until every bucket is done. `order` rotates the
    // heaviest-first preference per shard so workers fan out instead of
    // racing on the same bucket.
    const std::vector<int> order =
        bucket_claim_order(buckets, dist.shard_index, dist.shard_count);
    int fruitless_rounds = 0;  // no progress AND no live claim anywhere
    while (true) {
      int done = 0;
      bool progressed = false;
      for (const int b : order) {
        if (board.is_done(b)) {
          ++done;
          continue;
        }
        if (board.try_claim(b)) {
          execute_bucket(b);
          board.mark_done(b);
          ++result.stats.dist_buckets_claimed;
          claims_metric.add(1);
          ++done;
          progressed = true;
        }
      }
      if (done >= bucket_count) break;
      if (!progressed) {
        // Every unfinished bucket is claimed by a rival: steal the stale
        // ones (dead workers), otherwise wait for the live ones.
        for (const int b : order) {
          if (!board.is_done(b) && board.try_steal(b)) {
            if (telemetry::events_enabled()) {
              telemetry::emit_event("dist_steal", {{"worker", tag}},
                                    {{"bucket", b}});
            }
            execute_bucket(b);
            board.mark_done(b);
            ++result.stats.dist_buckets_claimed;
            ++result.stats.dist_buckets_stolen;
            claims_metric.add(1);
            steals_metric.add(1);
            progressed = true;
          }
        }
      }
      if (!progressed) {
        // Liveness guard: if our claims fail while NO unfinished bucket
        // has a claim either, nobody can be making progress — the board is
        // unusable (directory uncreatable, or deleted out from under live
        // workers by a premature merge). Waiting would hang forever;
        // execute the remainder non-cooperatively instead (duplicate work
        // at worst, never divergence).
        bool any_claim = false;
        for (const int b : order) {
          if (!board.is_done(b) && board.has_claim(b)) {
            any_claim = true;
            break;
          }
        }
        fruitless_rounds = any_claim ? 0 : fruitless_rounds + 1;
        if (!board.usable() || fruitless_rounds >= 3) {
          WF_WARN << "campaign: claim board " << board.dir()
                  << " is unusable; executing remaining buckets without "
                     "coordination";
          for (const int b : order) {
            if (board.is_done(b)) continue;
            execute_bucket(b);
            board.mark_done(b);  // best-effort
            ++result.stats.dist_buckets_claimed;
            claims_metric.add(1);
          }
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(
            std::max<std::int64_t>(dist.poll_ms, 1)));
      }
    }
  }

  // Assembly: every pending cell is durable in some segment (done markers
  // imply flushed appends). Cells this worker executed are tallied
  // already. Its own segment comes next — cells an earlier campaign or
  // process with this tag left there are in the handle's in-memory map, no
  // disk — then rival segments (and leftovers of crashed workers of
  // earlier generations), each read whole, only for the cells still
  // unaccounted for. A worker that executed everything, and a
  // sequential-adaptive consumer re-entering with the segment its runner
  // kept open, never re-read the directory.
  std::vector<std::size_t> unresolved;
  for (std::size_t u = 0; u < pending.size(); ++u) {
    if (plan.tallied[u]) continue;
    JournalCell cell;
    if (segment->lookup(plan.point_hashes[active[pending[u].a]],
                        pending[u].image, &cell)) {
      plan.tally(u, cell);
    } else {
      unresolved.push_back(u);
    }
  }
  std::int64_t recovered = 0;
  if (!unresolved.empty()) {
    std::unordered_map<std::uint64_t, JournalCell> durable;
    for (const ResultJournal::SegmentRef& seg :
         ResultJournal::list_segments(spec.store.dir)) {
      if (seg.env_hash != plan.env || seg.path == segment->path()) continue;
      // Torn tails are tolerated: the intact prefix counts, and a cell
      // lost with the tail is healed below.
      std::vector<JournalCell> cells;
      if (!ResultJournal::read_cells(seg.path, plan.env, &cells)) continue;
      for (const JournalCell& cell : cells) {
        durable.emplace(journal_cell_key(cell.point_hash, cell.image), cell);
      }
    }
    for (const std::size_t u : unresolved) {
      const auto it = durable.find(pending_keys[u]);
      // journal_cell_key is a lossy 64-bit hash: verify the full identity
      // (as ResultJournal::lookup does) so a key collision counts as
      // missing and self-heals instead of tallying the wrong cell.
      if (it != durable.end() &&
          it->second.point_hash == plan.point_hashes[active[pending[u].a]] &&
          it->second.image == pending[u].image) {
        plan.tally(u, it->second);
        ++recovered;
      }
    }
  }
  result.stats.dist_cells_recovered = recovered;
  recovered_metric.add(recovered);
  result.stats.dist_cells_executed = plan.executed.load();
  const std::int64_t missing =
      static_cast<std::int64_t>(unresolved.size()) - recovered;
  if (missing > 0) {
    // Self-heal: a done marker without durable cells (e.g. a segment hit
    // disk-full after its bucket was marked) — execute the gap locally.
    // The executor skips every unit already tallied, so only the gap runs.
    WF_WARN << "campaign: " << missing
            << " cell(s) missing from every segment; re-executing locally";
    if (telemetry::events_enabled()) {
      telemetry::emit_event("dist_heal", {{"worker", tag}},
                            {{"cells", missing}});
    }
    plan.execute(0, pending.size(), [] { return true; },
                 [](std::int64_t) {});
    result.stats.dist_cells_healed = missing;
    healed_metric.add(missing);
  }
}

}  // namespace

CampaignResult CampaignRunner::run(const CampaignSpec& spec) const {
  WF_CHECK(network_.calibrated());
  WF_CHECK(!dataset_.images.empty());
  for (const CampaignPoint& point : spec.points) WF_CHECK(point.trials >= 1);

  // Service clients route campaigns to a resident daemon here; the daemon
  // side never installs a hook, so its own runs fall through. Results are
  // bit-identical either way (the daemon executes this same function
  // against an identically-built environment — tests/service_test.cpp).
  if (const CampaignSubmitHook& hook = submit_hook_ref()) {
    if (std::optional<CampaignResult> remote = hook(network_, dataset_, spec)) {
      return *std::move(remote);
    }
  }

  bool distributed = spec.store.enabled() && spec.store.dist.enabled();
  if (distributed && !spec.store.journal) {
    WF_WARN << "campaign: distributed execution requires the result "
               "journal; falling back to a local run";
    distributed = false;
  }
  WF_CHECK(!distributed ||
           (spec.store.dist.shard_index >= 0 &&
            spec.store.dist.shard_index < spec.store.dist.shard_count));
  telemetry::TraceSpan run_span(
      distributed ? "campaign_run_distributed" : "campaign_run",
      distributed ? "dist" : "campaign");
  CampaignResult result;
  CellPlan plan(*this, lru_, spec, distributed, result);
  if (plan.active.empty()) return result;
  if (distributed) {
    run_distributed(plan);
  } else {
    run_local(plan);
  }
  plan.finalize();
  return result;
}

StoreHandles CampaignRunner::store_handles(
    const StoreOptions& store, ResultJournal::Mode mode,
    const std::string& segment_tag) const {
  StoreHandles handles;
  if (!store.enabled()) return handles;
  const std::uint64_t env = env_hash();
  std::lock_guard<std::mutex> lock(store_mu_);
  if (kept_dir_ != store.dir) {
    // Stop keeping the last directory open; forget what no run holds.
    kept_dir_ = store.dir;
    for (auto& [key, slot] : journals_) slot.open.reset();
    for (auto& [key, slot] : goldens_) slot.open.reset();
    const auto unheld = [](const auto& entry) {
      return entry.second.live.expired();
    };
    std::erase_if(journals_, unheld);
    std::erase_if(goldens_, unheld);
  }
  if (store.journal) {
    Slot<ResultJournal>& slot = journals_[{store.dir, mode, segment_tag}];
    handles.journal = slot.live.lock();
    // A failed write closes an appendable journal for good; reopening it
    // recovers its intact records and resumes checkpointing once the disk
    // does. A read-only journal never appends, so it is never reopened.
    if (handles.journal == nullptr ||
        (mode == ResultJournal::Mode::kAppend &&
         !handles.journal->can_append())) {
      handles.journal =
          std::make_shared<ResultJournal>(store.dir, env, mode, segment_tag);
      slot.live = handles.journal;
    }
    slot.open = handles.journal;
  }
  if (store.spill_goldens) {
    Slot<GoldenStore>& slot =
        goldens_[{store.dir, store.golden_disk_budget}];
    handles.goldens = slot.live.lock();
    if (handles.goldens == nullptr) {
      handles.goldens = std::make_shared<GoldenStore>(
          store.dir, env, store.golden_disk_budget);
      slot.live = handles.goldens;
    }
    slot.open = handles.goldens;
  }
  return handles;
}

CampaignResult run_campaign(const Network& network, const Dataset& dataset,
                            const CampaignSpec& spec) {
  return CampaignRunner(network, dataset).run(spec);
}

EvalResult evaluate(const Network& network, const Dataset& dataset,
                    const CampaignPoint& point, int threads) {
  CampaignSpec spec;
  spec.points = {point};
  spec.threads = threads;
  return run_campaign(network, dataset, spec).points.front();
}

void set_campaign_submit_hook(CampaignSubmitHook hook) {
  submit_hook_ref() = std::move(hook);
}

}  // namespace winofault
