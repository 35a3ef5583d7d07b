// Persistent-store guarantees (core/store):
//   (a) a campaign killed at any point (simulated with cell_budget and with
//       a torn journal tail) resumes to totals bit-identical to an
//       uninterrupted in-RAM run;
//   (b) an unchanged spec regenerates its results from the journal without
//       executing anything; a changed grid re-runs only new/changed points;
//   (c) changing the environment (network/dataset) or a point's
//       result-determining fields invalidates exactly the affected state;
//   (d) goldens restored from disk shards are byte-exact, and corrupt
//       shards / garbage journals are rejected, never served.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>

#include "common/iofault/iofault.h"
#include "common/logging.h"
#include "core/analysis/network_sweep.h"
#include "core/campaign/campaign.h"
#include "core/store/golden_store.h"
#include "core/store/hash.h"
#include "core/store/journal.h"
#include "nn/dataset.h"
#include "test_util.h"

namespace winofault {
namespace {

namespace fs = std::filesystem;

struct Fixture {
  Network net;
  Dataset data;
};

Fixture make_fixture(int images = 8, std::uint64_t weight_seed = 83) {
  Network net("store", DType::kInt16);
  Rng rng(weight_seed);
  int x = net.add_input(Shape{1, 3, 12, 12});
  x = net.add_conv(x, 8, 3, 1, 1, rng);
  x = net.add_maxpool(x, 2, 2);
  x = net.add_conv(x, 12, 3, 1, 1, rng);
  x = net.add_global_avgpool(x);
  x = net.add_flatten(x);
  x = net.add_linear(x, 5, rng);
  net.set_output(x);
  net.calibrate(make_images(net.input_shape(), 3, 19));
  Dataset data = make_teacher_dataset(net, images, 5, 0.9, 27);
  return Fixture{std::move(net), std::move(data)};
}

// Fresh store directory per test, under the gtest temp root.
std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "winofault_store_" + name;
  fs::remove_all(dir);
  return dir;
}

std::vector<CampaignPoint> small_grid() {
  std::vector<CampaignPoint> points;
  for (const double ber : {1e-7, 3e-6}) {
    for (const ConvPolicy policy :
         {ConvPolicy::kDirect, ConvPolicy::kWinograd2}) {
      CampaignPoint point;
      point.fault.ber = ber;
      point.policy = policy;
      point.seed = 7;
      point.trials = 2;
      points.push_back(std::move(point));
    }
  }
  return points;
}

void expect_same_results(const CampaignResult& a, const CampaignResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t p = 0; p < a.points.size(); ++p) {
    EXPECT_DOUBLE_EQ(a.points[p].accuracy, b.points[p].accuracy)
        << "point " << p;
    EXPECT_DOUBLE_EQ(a.points[p].avg_flips, b.points[p].avg_flips)
        << "point " << p;
    EXPECT_EQ(a.points[p].images, b.points[p].images) << "point " << p;
  }
}

// ---- (a) kill-mid-campaign resume ----

TEST(Store, BudgetedResumeIsBitIdenticalToCleanRun) {
  const Fixture f = make_fixture();
  CampaignSpec clean;
  clean.points = small_grid();
  const CampaignResult reference = run_campaign(f.net, f.data, clean);

  CampaignSpec stored = clean;
  stored.store.dir = fresh_dir("budget_resume");
  const std::int64_t cells =
      static_cast<std::int64_t>(f.data.size() * stored.points.size());

  // "Kill" the campaign twice by bounding executed cells, then finish.
  stored.store.cell_budget = cells / 3;
  const CampaignResult first = run_campaign(f.net, f.data, stored);
  EXPECT_EQ(first.stats.journal_cells_written, cells / 3);
  EXPECT_EQ(first.stats.cells_deferred, cells - cells / 3);

  const CampaignResult second = run_campaign(f.net, f.data, stored);
  EXPECT_EQ(second.stats.journal_cells_loaded, cells / 3);

  stored.store.cell_budget = 0;
  const CampaignResult finished = run_campaign(f.net, f.data, stored);
  EXPECT_EQ(finished.stats.cells_deferred, 0);
  EXPECT_EQ(finished.stats.journal_cells_loaded +
                finished.stats.journal_cells_written,
            cells);
  expect_same_results(reference, finished);
}

TEST(Store, TornJournalTailIsTruncatedAndReExecuted) {
  const Fixture f = make_fixture(6);
  CampaignSpec clean;
  clean.points = small_grid();
  const CampaignResult reference = run_campaign(f.net, f.data, clean);

  CampaignSpec stored = clean;
  stored.store.dir = fresh_dir("torn_tail");
  stored.store.spill_goldens = false;
  const CampaignResult full = run_campaign(f.net, f.data, stored);
  const std::int64_t cells =
      static_cast<std::int64_t>(f.data.size() * stored.points.size());
  EXPECT_EQ(full.stats.journal_cells_written, cells);

  // Simulate a process killed mid-append: half a record of garbage at the
  // end of the journal.
  const std::string path = ResultJournal::journal_path(
      stored.store.dir, campaign_env_hash(f.net, f.data));
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write("TORNWRITE0123456789", 19);
  }
  const CampaignResult resumed = run_campaign(f.net, f.data, stored);
  // Every intact record survives; only the torn tail is discarded.
  EXPECT_EQ(resumed.stats.journal_cells_loaded, cells);
  EXPECT_EQ(resumed.stats.journal_cells_written, 0);
  expect_same_results(reference, resumed);
}

// ---- (b) incremental regeneration ----

TEST(Store, UnchangedSpecRegeneratesWithoutExecuting) {
  const Fixture f = make_fixture();
  CampaignSpec stored;
  stored.points = small_grid();
  stored.store.dir = fresh_dir("regen");
  const CampaignResult first = run_campaign(f.net, f.data, stored);
  const std::int64_t cells =
      static_cast<std::int64_t>(f.data.size() * stored.points.size());
  EXPECT_EQ(first.stats.journal_cells_written, cells);
  EXPECT_GT(first.stats.inferences, 0);

  const CampaignResult regen = run_campaign(f.net, f.data, stored);
  EXPECT_EQ(regen.stats.journal_cells_loaded, cells);
  EXPECT_EQ(regen.stats.journal_cells_written, 0);
  EXPECT_EQ(regen.stats.inferences, 0);     // nothing executed
  EXPECT_EQ(regen.stats.golden_builds, 0);  // not even a golden
  expect_same_results(first, regen);
}

TEST(Store, ChangedGridReRunsOnlyNewPoints) {
  const Fixture f = make_fixture(6);
  CampaignSpec stored;
  stored.points = small_grid();
  stored.store.dir = fresh_dir("changed_grid");
  run_campaign(f.net, f.data, stored);
  const std::int64_t images = static_cast<std::int64_t>(f.data.size());

  // Grow the grid by one point and change one existing point's seed: only
  // those two points' cells execute.
  CampaignSpec grown = stored;
  grown.points[1].seed = 99;
  CampaignPoint extra;
  extra.fault.ber = 5e-7;
  extra.seed = 7;
  extra.trials = 2;
  grown.points.push_back(extra);

  const CampaignResult result = run_campaign(f.net, f.data, grown);
  EXPECT_EQ(result.stats.journal_cells_loaded,
            images * static_cast<std::int64_t>(small_grid().size() - 1));
  EXPECT_EQ(result.stats.journal_cells_written, images * 2);

  // The re-keyed and new points match fresh point-by-point evaluation.
  const EvalResult expect_changed = evaluate(f.net, f.data, grown.points[1]);
  EXPECT_DOUBLE_EQ(result.points[1].accuracy, expect_changed.accuracy);

  const EvalResult expect_added = evaluate(f.net, f.data, extra);
  EXPECT_DOUBLE_EQ(result.points.back().accuracy, expect_added.accuracy);
}

// ---- (c) environment / spec-hash invalidation ----

TEST(Store, DifferentNetworkNeverReusesJournalCells) {
  const Fixture a = make_fixture(6, /*weight_seed=*/83);
  const Fixture b = make_fixture(6, /*weight_seed=*/84);
  ASSERT_NE(campaign_env_hash(a.net, a.data),
            campaign_env_hash(b.net, b.data));

  CampaignSpec spec;
  spec.points = small_grid();
  spec.store.dir = fresh_dir("env_invalidation");
  run_campaign(a.net, a.data, spec);

  const CampaignResult other = run_campaign(b.net, b.data, spec);
  EXPECT_EQ(other.stats.journal_cells_loaded, 0);
  // And b's results are exactly what b computes without any store.
  CampaignSpec plain;
  plain.points = spec.points;
  expect_same_results(run_campaign(b.net, b.data, plain), other);
}

TEST(Store, PointHashCoversResultDeterminingFieldsOnly) {
  CampaignPoint point;
  point.fault.ber = 1e-6;
  point.seed = 5;
  const std::uint64_t base = campaign_point_hash(point);

  CampaignPoint reseeded = point;
  reseeded.seed = 6;
  EXPECT_NE(campaign_point_hash(reseeded), base);
  CampaignPoint retried = point;
  retried.trials = 3;
  EXPECT_NE(campaign_point_hash(retried), base);
  CampaignPoint protectd = point;
  protectd.fault.protection[0] = ProtectionSet(1.0, 0.5);
  EXPECT_NE(campaign_point_hash(protectd), base);

  // Fields that provably cannot change a cell's tallies do not invalidate
  // finished work.
  CampaignPoint unhashed = point;
  unhashed.reuse_golden = false;
  unhashed.max_expected_flips = 1.0;
  EXPECT_EQ(campaign_point_hash(unhashed), base);
}

TEST(Store, GarbageJournalFileIsDiscarded) {
  const Fixture f = make_fixture(4);
  CampaignSpec stored;
  stored.points = small_grid();
  stored.store.dir = fresh_dir("garbage_journal");
  stored.store.spill_goldens = false;
  fs::create_directories(stored.store.dir);
  const std::string path = ResultJournal::journal_path(
      stored.store.dir, campaign_env_hash(f.net, f.data));
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a journal";
  }
  const CampaignResult result = run_campaign(f.net, f.data, stored);
  EXPECT_EQ(result.stats.journal_cells_loaded, 0);
  CampaignSpec plain;
  plain.points = stored.points;
  expect_same_results(run_campaign(f.net, f.data, plain), result);
  // The rewritten journal is valid again: a rerun loads every cell.
  const CampaignResult regen = run_campaign(f.net, f.data, stored);
  EXPECT_EQ(regen.stats.journal_cells_loaded,
            static_cast<std::int64_t>(f.data.size() * stored.points.size()));
}

// ---- (d) golden tier-2: byte-exact restore, corrupt-shard rejection ----

TEST(Store, GoldenCodecRoundTripsByteExactly) {
  const Fixture f = make_fixture(2);
  for (const ConvPolicy policy :
       {ConvPolicy::kDirect, ConvPolicy::kWinograd2}) {
    const GoldenCache golden = f.net.make_golden(f.data.images[0], policy);
    const std::optional<GoldenCache> back =
        GoldenCodec::decode(GoldenCodec::encode(golden));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->policy(), golden.policy());
    EXPECT_EQ(back->prediction(), golden.prediction());
    EXPECT_EQ(back->logits(), golden.logits());
    for (int node = 0; node < f.net.num_nodes(); ++node) {
      EXPECT_EQ(back->node_output(node).tensor,
                golden.node_output(node).tensor);
      EXPECT_EQ(back->node_output(node).quant,
                golden.node_output(node).quant);
    }
  }
}

TEST(Store, DiskRestoredGoldensKeepCampaignBitIdentical) {
  const Fixture f = make_fixture();
  CampaignSpec plain;
  plain.points = small_grid();
  // A permanent-fault point after the first clean one: each image's
  // goldens alternate between the clean and the variant key, so a
  // capacity of one thrashes.
  CampaignPoint variant = plain.points[0];
  variant.fault.model = *FaultModelSpec::parse("stuck0(0.01)@weight#perm");
  plain.points.insert(plain.points.begin() + 1, variant);
  plain.golden_capacity = 1;  // constant golden thrash
  plain.threads = 1;
  const CampaignResult reference = run_campaign(f.net, f.data, plain);

  CampaignSpec stored = plain;
  stored.store.dir = fresh_dir("disk_goldens");
  stored.store.journal = false;  // force re-execution: isolate the tier-2
  const CampaignResult cold = run_campaign(f.net, f.data, stored);
  EXPECT_GT(cold.stats.golden_spills, 0);
  EXPECT_GT(cold.stats.golden_restores, 0);  // within-run evict + restore
  expect_same_results(reference, cold);

  // A second run restores from the first run's shards instead of building.
  const CampaignResult warm = run_campaign(f.net, f.data, stored);
  EXPECT_LT(warm.stats.golden_builds, reference.stats.golden_builds);
  EXPECT_GT(warm.stats.golden_restores, 0);
  expect_same_results(reference, warm);
}

TEST(Store, CorruptShardIsRejectedAndRebuilt) {
  const Fixture f = make_fixture(3);
  const std::string dir = fresh_dir("corrupt_shard");
  const std::uint64_t env = campaign_env_hash(f.net, f.data);
  const GoldenCache golden =
      f.net.make_golden(f.data.images[0], ConvPolicy::kDirect);
  {
    GoldenStore store(dir, env, 1ULL << 30);
    store.save(0, golden);
    ASSERT_TRUE(store.load(0).has_value());
  }

  // Flip one payload byte: the CRC must reject the shard and delete it.
  GoldenStore store(dir, env, 1ULL << 30);
  const std::string shard = store.shard_path(0);
  {
    std::fstream file(shard, std::ios::binary | std::ios::in | std::ios::out);
    char byte = 0;
    file.seekg(100);
    file.get(byte);
    file.seekp(100);
    file.put(static_cast<char>(byte ^ 0x40));
  }
  EXPECT_FALSE(store.load(0).has_value());
  EXPECT_EQ(store.quarantines(), 1);
  EXPECT_FALSE(fs::exists(shard));  // deleted so the rebuild respills

  // A truncated shard is rejected the same way.
  store.save(0, golden);
  fs::resize_file(shard, fs::file_size(shard) / 2);
  EXPECT_FALSE(store.load(0).has_value());

  // A corrupted payload_size in the (un-CRC'd) header must reject, never
  // allocate: the size is bounded against the real file size.
  store.save(0, golden);
  {
    std::fstream file(shard, std::ios::binary | std::ios::in | std::ios::out);
    const std::uint64_t huge = ~0ULL;
    file.seekp(32);  // ShardHeader::payload_size
    file.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
  }
  EXPECT_FALSE(store.load(0).has_value());

  // A shard from a different environment is unreachable (different name),
  // and a wrong-env header under the right name is rejected.
  GoldenStore other(dir, env ^ 1, 1ULL << 30);
  other.save(0, golden);
  fs::copy_file(other.shard_path(0), shard,
                fs::copy_options::overwrite_existing);
  EXPECT_FALSE(store.load(0).has_value());
}

// ---- runner-held store handles (sequential-adaptive consumers) ----

TEST(Store, RunnerKeepsOneOpenHandlePerJournalMode) {
  const Fixture f = make_fixture(2);
  const CampaignRunner runner(f.net, f.data);
  StoreOptions options;
  options.dir = fresh_dir("handles");
  constexpr ResultJournal::Mode kAppend = ResultJournal::Mode::kAppend;

  const StoreHandles a = runner.store_handles(options, kAppend);
  const StoreHandles b = runner.store_handles(options, kAppend);
  ASSERT_NE(a.journal, nullptr);
  ASSERT_NE(a.goldens, nullptr);
  EXPECT_EQ(a.journal.get(), b.journal.get()) << "one open handle per mode";
  EXPECT_EQ(a.goldens.get(), b.goldens.get());
  EXPECT_NE(runner.store_handles(options, ResultJournal::Mode::kReadOnly)
                .journal.get(),
            a.journal.get());

  // Appends through the kept handle are visible to later lookups without
  // any re-read — the O(1) warm-resume property plan_tmr relies on.
  a.journal->append(JournalCell{21, 3, 1, 6});
  JournalCell cell;
  EXPECT_TRUE(
      runner.store_handles(options, kAppend).journal->lookup(21, 3, &cell));
  EXPECT_EQ(cell.flips, 6);

  // A fresh runner opens its own handle and reads the cell from disk.
  const CampaignRunner fresh(f.net, f.data);
  const StoreHandles c =
      fresh.store_handles(options, ResultJournal::Mode::kReadOnly);
  EXPECT_NE(c.journal.get(), a.journal.get());
  EXPECT_TRUE(c.journal->lookup(21, 3, &cell));
}

TEST(Store, RunUnderAnotherDirectoryClosesTheFirstDirectorysHandles) {
  const Fixture f = make_fixture(4);
  CampaignSpec spec;
  spec.points = small_grid();
  const CampaignResult reference = run_campaign(f.net, f.data, spec);

  const CampaignRunner runner(f.net, f.data);
  spec.store.dir = fresh_dir("switch_a");
  const CampaignResult first = runner.run(spec);
  std::weak_ptr<ResultJournal> journal;
  std::weak_ptr<GoldenStore> goldens;
  {
    const StoreHandles kept =
        runner.store_handles(spec.store, ResultJournal::Mode::kAppend);
    journal = kept.journal;
    goldens = kept.goldens;
  }
  ASSERT_FALSE(journal.expired()) << "the runner keeps its handles open";

  CampaignSpec other = spec;
  other.store.dir = fresh_dir("switch_b");
  runner.run(other);
  EXPECT_TRUE(journal.expired());
  EXPECT_TRUE(goldens.expired());

  // Going back reopens the first directory: its cells come from disk.
  const CampaignResult back = runner.run(spec);
  expect_same_results(reference, back);
  EXPECT_EQ(back.stats.inferences, 0);
  EXPECT_EQ(back.stats.journal_cells_loaded,
            first.stats.journal_cells_written);
  EXPECT_EQ(runner.store_handles(spec.store, ResultJournal::Mode::kAppend)
                .journal->recovered_cells(),
            first.stats.journal_cells_written);
}

TEST(Store, HandleARunStillHoldsIsSharedAcrossADirectorySwitch) {
  // A daemon session's runner serves concurrent jobs: while one still
  // runs under directory A, another switches the runner to B. A third job
  // under A must get the running job's handles, not a second journal
  // open on the same file.
  const Fixture f = make_fixture(2);
  const CampaignRunner runner(f.net, f.data);
  StoreOptions a;
  a.dir = fresh_dir("held_a");
  StoreOptions b;
  b.dir = fresh_dir("held_b");
  constexpr ResultJournal::Mode kAppend = ResultJournal::Mode::kAppend;
  std::weak_ptr<ResultJournal> journal;
  std::weak_ptr<GoldenStore> goldens;
  {
    const StoreHandles held = runner.store_handles(a, kAppend);
    runner.store_handles(b, kAppend);
    const StoreHandles again = runner.store_handles(a, kAppend);
    EXPECT_EQ(again.journal.get(), held.journal.get());
    EXPECT_EQ(again.goldens.get(), held.goldens.get());
    runner.store_handles(b, kAppend);
    journal = held.journal;
    goldens = held.goldens;
  }
  // Once no run holds them, the runner does not keep them either.
  EXPECT_TRUE(journal.expired());
  EXPECT_TRUE(goldens.expired());
}

TEST(Store, PlannerStyleReuseIsBitIdenticalToFreshHandles) {
  const Fixture f = make_fixture(4);
  CampaignSpec spec;
  spec.points = small_grid();
  const CampaignResult reference = run_campaign(f.net, f.data, spec);

  // Same campaign twice through one runner (as plan_tmr's checks do): the
  // first run executes and journals, the second replays from the kept
  // in-memory handle without executing — even though the journal file is
  // deleted in between. A kept handle does not observe outside changes,
  // which is why the runner's contract is that nothing else mutates its
  // store between its runs.
  spec.store.dir = fresh_dir("handle_reuse");
  const CampaignRunner runner(f.net, f.data);
  const CampaignResult first = runner.run(spec);
  expect_same_results(reference, first);
  ASSERT_TRUE(fs::remove(
      ResultJournal::journal_path(spec.store.dir, runner.env_hash())));
  const CampaignResult second = runner.run(spec);
  expect_same_results(reference, second);
  EXPECT_EQ(second.stats.inferences, 0);
  EXPECT_EQ(second.stats.journal_cells_loaded,
            first.stats.journal_cells_written);

  // A fresh runner sees the deletion and re-executes bit-identically.
  const CampaignResult fresh = run_campaign(f.net, f.data, spec);
  expect_same_results(reference, fresh);
  EXPECT_EQ(fresh.stats.journal_cells_loaded, 0);
  EXPECT_EQ(fresh.stats.inferences, reference.stats.inferences);
}

// ---- one golden write point ----

TEST(Store, EveryGoldenARunUsesIsOnDisk) {
  const Fixture f = make_fixture(4);
  CampaignSpec spec;
  spec.points = small_grid();
  const CampaignResult reference = run_campaign(f.net, f.data, spec);

  spec.store.dir = fresh_dir("first_use");
  spec.golden_capacity = 64;  // nothing evicts: every shard is written
                              // when the run first uses its golden
  const CampaignResult first = run_campaign(f.net, f.data, spec);
  expect_same_results(reference, first);
  EXPECT_EQ(first.stats.golden_evictions, 0);
  EXPECT_GT(first.stats.golden_builds, 0);
  EXPECT_EQ(first.stats.golden_spills, first.stats.golden_builds);
  EXPECT_EQ(first.stats.golden_flushed, 0);

  // Re-execute everything (journal off) in a fresh runner: every golden
  // restores from the shards instead of rebuilding.
  CampaignSpec rerun = spec;
  rerun.store.journal = false;
  const CampaignResult warm = run_campaign(f.net, f.data, rerun);
  expect_same_results(reference, warm);
  EXPECT_GT(warm.stats.golden_restores, 0);
  EXPECT_EQ(warm.stats.golden_builds, 0);
}

// ---- PARTIAL propagation through spec builders ----

TEST(Store, SweepReportsDeferredCellsFromBudgetedRuns) {
  const Fixture f = make_fixture(4);
  SweepOptions options;
  options.bers = {1e-7, 3e-6};
  options.seed = 7;
  options.store.dir = fresh_dir("sweep_partial");
  options.store.cell_budget = 3;
  const CampaignRunner runner(f.net, f.data);
  const SweepResult partial = accuracy_sweeps(runner, std::span(&options, 1));
  EXPECT_GT(partial.stats.cells_deferred, 0)
      << "budgeted sweep must flag its curves as PARTIAL";

  options.store.cell_budget = 0;
  const SweepResult finished = accuracy_sweeps(runner, std::span(&options, 1));
  EXPECT_EQ(finished.stats.cells_deferred, 0);
}

TEST(Store, ReuseHandlesResumeMatchesReopenResume) {
  const Fixture f = make_fixture(4);
  CampaignSpec spec;
  spec.points = small_grid();
  const CampaignResult reference = run_campaign(f.net, f.data, spec);

  // Resume path A: a fresh runner per campaign (re-open + re-read).
  spec.store.dir = fresh_dir("reopen_equiv_a");
  run_campaign(f.net, f.data, spec);
  const CampaignResult reopened = run_campaign(f.net, f.data, spec);

  // Resume path B: one runner's kept handles over an identical store.
  spec.store.dir = fresh_dir("reopen_equiv_b");
  const CampaignRunner runner(f.net, f.data);
  runner.run(spec);
  const CampaignResult reused = runner.run(spec);

  // Both resumes replay every cell without executing, with identical
  // numbers — handle reuse is a latency optimization, never a semantic.
  expect_same_results(reference, reopened);
  expect_same_results(reference, reused);
  EXPECT_EQ(reopened.stats.inferences, 0);
  EXPECT_EQ(reused.stats.inferences, 0);
  EXPECT_EQ(reused.stats.journal_cells_loaded,
            reopened.stats.journal_cells_loaded);
}

// ---- chaos (common/iofault): self-healing responses to injected faults --

// Installs a fault schedule for one scope and always clears it afterwards.
class ScopedChaos {
 public:
  explicit ScopedChaos(const std::string& spec) {
    std::string error;
    auto parsed = iofault::FaultSchedule::parse(spec, &error);
    EXPECT_TRUE(parsed.has_value()) << error;
    iofault::set_schedule(std::move(parsed));
  }
  ~ScopedChaos() { iofault::set_schedule(std::nullopt); }
};

TEST(Store, CorruptShardIsQuarantinedForPostMortem) {
  const Fixture f = make_fixture(2);
  const std::string dir = fresh_dir("quarantine");
  const std::uint64_t env = campaign_env_hash(f.net, f.data);
  const GoldenCache golden =
      f.net.make_golden(f.data.images[0], ConvPolicy::kDirect);
  GoldenStore store(dir, env, 1ULL << 30);
  store.save(0, golden);
  const std::string shard = store.shard_path(0);
  {
    std::fstream file(shard, std::ios::binary | std::ios::in | std::ios::out);
    char byte = 0;
    file.seekg(100);
    file.get(byte);
    file.seekp(100);
    file.put(static_cast<char>(byte ^ 0x40));
  }
  EXPECT_FALSE(store.load(0).has_value());
  EXPECT_EQ(store.quarantines(), 1);
  EXPECT_FALSE(fs::exists(shard));  // out of the way of the rebuild
  EXPECT_TRUE(fs::exists(shard + ".quarantine"));  // kept for post-mortem

  // Startup indexing skips quarantined files, and the slot respills
  // cleanly over the vacated path.
  GoldenStore reopened(dir, env, 1ULL << 30);
  reopened.save(0, golden);
  EXPECT_TRUE(reopened.load(0).has_value());
  EXPECT_EQ(reopened.quarantines(), 0);
  EXPECT_TRUE(fs::exists(shard + ".quarantine"));
}

TEST(Store, EnospcDisablesSpillTierButStoreStaysUsable) {
  const Fixture f = make_fixture(2);
  const std::string dir = fresh_dir("enospc");
  const std::uint64_t env = campaign_env_hash(f.net, f.data);
  const GoldenCache golden =
      f.net.make_golden(f.data.images[0], ConvPolicy::kDirect);
  ScopedChaos chaos("1:enospc@write:*.tmp#1+");  // every spill hits ENOSPC
  GoldenStore store(dir, env, 1ULL << 30);
  store.save(0, golden);
  EXPECT_TRUE(store.spill_disabled());
  EXPECT_FALSE(store.load(0).has_value());
  EXPECT_EQ(store.bytes_on_disk(), 0u);
  // Later saves are skipped outright — no temp files accumulate and no
  // further ENOSPC is even provoked (the tier is off, not limping).
  ASSERT_NE(iofault::schedule(), nullptr);
  const std::int64_t before = iofault::schedule()->injections();
  store.save(1, golden);
  EXPECT_EQ(iofault::schedule()->injections(), before);
  EXPECT_TRUE(fs::is_empty(dir));
}

TEST(Store, ChaosTornJournalAppendIsDroppedOnRecovery) {
  const std::string dir = fresh_dir("chaos_journal");
  const std::uint64_t env = 0x123;
  {
    ScopedChaos chaos("3:torn(12)@write:*.journal#2");
    ResultJournal journal(dir, env, ResultJournal::Mode::kAppend);
    EXPECT_TRUE(journal.append(JournalCell{1, 0, 1, 1}));
    EXPECT_FALSE(journal.append(JournalCell{2, 1, 0, 2}));  // torn 12 bytes in
    EXPECT_FALSE(journal.can_append());  // durability honestly renounced
    EXPECT_FALSE(journal.append(JournalCell{3, 2, 1, 3}));  // dropped, no crash
  }
  // Recovery truncates the torn record and reopens for appending.
  ResultJournal recovered(dir, env, ResultJournal::Mode::kAppend);
  EXPECT_EQ(recovered.recovered_cells(), 1);
  EXPECT_TRUE(recovered.lookup(1, 0, nullptr));
  EXPECT_FALSE(recovered.lookup(2, 1, nullptr));
  EXPECT_TRUE(recovered.can_append());
}

TEST(Store, FailedJournalAppendDoesNotEndTheRunnersCheckpointing) {
  const Fixture f = make_fixture(4);
  CampaignSpec spec;
  spec.points = {small_grid().front()};  // 1 point x 4 images
  const CampaignResult reference = run_campaign(f.net, f.data, spec);
  const std::int64_t cells = static_cast<std::int64_t>(f.data.size());

  spec.store.dir = fresh_dir("append_reopen");
  const CampaignRunner runner(f.net, f.data);
  {
    ScopedChaos chaos("1:eio@write:*.journal#1");  // the first append fails
    const CampaignResult failed = runner.run(spec);
    expect_same_results(reference, failed);
    EXPECT_EQ(failed.stats.journal_cells_written, 0);
  }
  // The disk is back: the runner reopens the journal the failed write
  // closed, so its next run checkpoints every cell again...
  const CampaignResult second = runner.run(spec);
  expect_same_results(reference, second);
  EXPECT_EQ(second.stats.journal_cells_written, cells);
  // ...and a fresh run is served entirely from the journal.
  const CampaignResult fresh = run_campaign(f.net, f.data, spec);
  expect_same_results(reference, fresh);
  EXPECT_EQ(fresh.stats.journal_cells_loaded, cells);
  EXPECT_EQ(fresh.stats.inferences, 0);
}

TEST(Store, CampaignUnderChaosCompletesBitIdenticalAndReplaysExactly) {
  // The acceptance oracle for the whole chaos subsystem: a campaign under
  // a mixed fault schedule (torn journal append, shard-read EIO, spill
  // ENOSPC) must still complete with results bit-identical to a clean
  // run, and re-running the same spec over a fresh store must reproduce
  // the exact injection sequence.
  const Fixture f = make_fixture();
  CampaignSpec plain;
  plain.points = small_grid();
  plain.golden_capacity = 1;  // constant spill/restore traffic to fault
  plain.threads = 1;          // deterministic op stream for the log replay
  const CampaignResult reference = run_campaign(f.net, f.data, plain);

  const std::string spec =
      "11:torn(20)@write:*.journal#2;eio@read:*.shard#1;enospc@write:*.tmp#5";
  CampaignSpec stored = plain;
  stored.store.dir = fresh_dir("chaos_campaign");
  std::string first_log;
  {
    ScopedChaos chaos(spec);
    const CampaignResult under_chaos = run_campaign(f.net, f.data, stored);
    expect_same_results(reference, under_chaos);
    ASSERT_NE(iofault::schedule(), nullptr);
    EXPECT_GT(iofault::schedule()->injections(), 0);
    first_log = iofault::schedule()->log_text(/*with_paths=*/false);
  }
  {
    CampaignSpec again = plain;
    again.store.dir = fresh_dir("chaos_campaign_replay");
    ScopedChaos chaos(spec);
    const CampaignResult replay = run_campaign(f.net, f.data, again);
    expect_same_results(reference, replay);
    EXPECT_EQ(iofault::schedule()->log_text(/*with_paths=*/false), first_log);
  }
  // A clean rerun over the chaos-damaged store self-heals: the torn
  // journal tail truncates, missing cells re-execute, totals unchanged.
  const CampaignResult healed = run_campaign(f.net, f.data, stored);
  expect_same_results(reference, healed);
}

TEST(Store, GoldenDiskBudgetEvictsOldestShards) {
  const Fixture f = make_fixture(4);
  const std::string dir = fresh_dir("budget");
  const std::uint64_t env = campaign_env_hash(f.net, f.data);
  const GoldenCache golden =
      f.net.make_golden(f.data.images[0], ConvPolicy::kDirect);
  const std::uint64_t one_shard =
      GoldenCodec::encode(golden).size() + 64;  // payload + header slack

  GoldenStore store(dir, env, 2 * one_shard);
  store.save(0, golden);
  store.save(1, golden);
  store.save(2, golden);  // evicts shard 0
  EXPECT_GT(store.budget_evictions(), 0);
  EXPECT_FALSE(store.load(0).has_value());
  EXPECT_TRUE(store.load(2).has_value());
  EXPECT_LE(store.bytes_on_disk(), 2 * one_shard);
}

// ---- (e) cost ledger ----

// Record framing shared with journal.cpp (header 16 bytes, record 40).
constexpr std::uintmax_t kHeaderBytes = 16;
constexpr std::uintmax_t kRecordBytes = 40;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST(Store, FreshStoredRunWritesOneRecordPerCell) {
  const Fixture f = make_fixture(6);
  CampaignSpec clean;
  clean.points = small_grid();
  const CampaignResult reference = run_campaign(f.net, f.data, clean);

  CampaignSpec stored = clean;
  stored.store.dir = fresh_dir("one_record_per_cell");
  const CampaignResult written = run_campaign(f.net, f.data, stored);
  const std::int64_t cells =
      static_cast<std::int64_t>(f.data.size() * stored.points.size());
  EXPECT_EQ(written.stats.journal_cells_written, cells);
  const std::uint64_t env = campaign_env_hash(f.net, f.data);
  const std::string path =
      ResultJournal::journal_path(stored.store.dir, env);
  EXPECT_EQ(fs::file_size(path), kHeaderBytes + kRecordBytes *
                                     static_cast<std::uintmax_t>(cells));

  // Replay loads every cell, executes nothing and leaves the file as it
  // was.
  const std::string before = read_file(path);
  const CampaignResult regen = run_campaign(f.net, f.data, stored);
  EXPECT_EQ(regen.stats.journal_cells_loaded, cells);
  EXPECT_EQ(regen.stats.inferences, 0);
  expect_same_results(reference, regen);
  EXPECT_EQ(read_file(path), before);
}

// Writes the journal of `spec`'s store in the older ledgered format, with
// the cells a fresh run of `spec` journals. Returns the cell count.
std::int64_t write_ledgered_journal(const Fixture& f, const CampaignSpec& spec,
                                    const std::string& path) {
  run_campaign(f.net, f.data, spec);
  const std::uint64_t env = campaign_env_hash(f.net, f.data);
  std::vector<JournalCell> cells;
  EXPECT_TRUE(ResultJournal::read_cells(path, env, &cells));
  write_file(path, testing::ledgered_journal(env, cells));
  return static_cast<std::int64_t>(cells.size());
}

TEST(Store, LedgeredJournalReplaysEveryCellWithoutRewrite) {
  const Fixture f = make_fixture(6);
  CampaignSpec stored;
  stored.points = small_grid();
  stored.store.dir = fresh_dir("ledgered_replay");
  const std::uint64_t env = campaign_env_hash(f.net, f.data);
  const std::string path =
      ResultJournal::journal_path(stored.store.dir, env);
  const std::int64_t cells = write_ledgered_journal(f, stored, path);
  ASSERT_EQ(cells,
            static_cast<std::int64_t>(f.data.size() * stored.points.size()));
  const std::string ledgered = read_file(path);
  const auto records = static_cast<std::uintmax_t>(2 * cells);
  ASSERT_EQ(ledgered.size(), kHeaderBytes + kRecordBytes * records);

  CampaignSpec clean;
  clean.points = stored.points;
  const CampaignResult reference = run_campaign(f.net, f.data, clean);
  const CampaignResult replay = run_campaign(f.net, f.data, stored);
  EXPECT_EQ(replay.stats.journal_cells_loaded, cells);
  EXPECT_EQ(replay.stats.inferences, 0);
  expect_same_results(reference, replay);
  // The cost records are skipped, not a torn tail: nothing was rewritten.
  EXPECT_EQ(read_file(path), ledgered);
}

TEST(Store, TornCostRecordTailLosesNoCell) {
  const Fixture f = make_fixture(6);
  CampaignSpec stored;
  stored.points = small_grid();
  stored.store.dir = fresh_dir("torn_cost");
  const std::uint64_t env = campaign_env_hash(f.net, f.data);
  const std::string path =
      ResultJournal::journal_path(stored.store.dir, env);
  const std::int64_t cells = write_ledgered_journal(f, stored, path);

  // Chop the trailing cost record in half: a kill mid-append, after the
  // cell's own record was durable.
  fs::resize_file(path, fs::file_size(path) - kRecordBytes / 2);
  {
    const ResultJournal journal(stored.store.dir, env,
                                ResultJournal::Mode::kReadOnly);
    EXPECT_EQ(journal.recovered_cells(), cells);
  }

  // Resume replays every cell, and recovery rewrites the file as one
  // record per cell.
  CampaignSpec clean;
  clean.points = stored.points;
  const CampaignResult reference = run_campaign(f.net, f.data, clean);
  const CampaignResult resumed = run_campaign(f.net, f.data, stored);
  EXPECT_EQ(resumed.stats.journal_cells_loaded, cells);
  EXPECT_EQ(resumed.stats.inferences, 0);
  expect_same_results(reference, resumed);
  EXPECT_EQ(fs::file_size(path), kHeaderBytes + kRecordBytes *
                                     static_cast<std::uintmax_t>(cells));
}

// ---- store-reader mutation passes: seeded mutants of real store bytes ----

// A cell read back from a mutant must equal one that was written, field
// for field.
using CellFields =
    std::tuple<std::uint64_t, std::int64_t, std::int64_t, std::int64_t>;
CellFields fields(const JournalCell& c) {
  return {c.point_hash, c.image, c.correct, c.flips};
}

TEST(Store, JournalMutantsReadBackOnlyWrittenRecords) {
  const std::string dir = fresh_dir("journal_mutants");
  const std::uint64_t env = 0x5eed0f5;
  std::set<CellFields> written;
  std::set<std::pair<std::uint64_t, std::int64_t>> keys;
  // Two journals of one environment holding the same cell keys with other
  // tallies: the seed in the older ledgered format (a cost record after
  // every cell), the donor as the journal writes it now.
  const auto make_cells = [&](std::int64_t salt) {
    std::vector<JournalCell> cells;
    for (std::int64_t i = 0; i < 12; ++i) {
      cells.push_back(JournalCell{0x1000 + static_cast<std::uint64_t>(i % 4),
                                  i, salt + i, salt * i + 3});
      written.insert(fields(cells.back()));
      keys.emplace(cells.back().point_hash, cells.back().image);
    }
    return cells;
  };
  const std::string seed = testing::ledgered_journal(env, make_cells(1));
  std::string donor;
  {
    ResultJournal journal(dir + "/donor", env, ResultJournal::Mode::kAppend);
    for (const JournalCell& cell : make_cells(2)) journal.append(cell);
    donor = read_file(journal.path());
  }
  const std::vector<std::string> donors = {seed, donor};

  const std::string mutant_dir = dir + "/mutant";
  fs::create_directories(mutant_dir);
  const std::string path = ResultJournal::journal_path(mutant_dir, env);
  constexpr int kMutants = 4000;
  Rng rng(20261017);
  int served = 0;  // mutants that still served a cell
  int failures = 0;
  for (int m = 0; m < kMutants && failures < 10; ++m) {
    const std::string mutant =
        testing::mutate_bytes(seed, rng.next_below(3), donors, rng);
    write_file(path, mutant);
    bool ok = true;
    std::vector<JournalCell> read_cells;
    if (ResultJournal::read_cells(path, env, &read_cells)) {
      for (const JournalCell& c : read_cells) {
        ok &= written.count(fields(c)) > 0;
      }
    }
    const ResultJournal journal(mutant_dir, env,
                                ResultJournal::Mode::kReadOnly);
    std::int64_t found = 0;
    for (const auto& [point_hash, image] : keys) {
      JournalCell cell;
      if (journal.lookup(point_hash, image, &cell)) {
        ++found;
        ok &= written.count(fields(cell)) > 0;
      }
    }
    // Nothing was recovered under a key that was never written.
    ok &= found == journal.recovered_cells();
    served += found > 0;
    if (!ok) {
      ++failures;
      ADD_FAILURE() << "mutant " << m << " (" << mutant.size()
                    << " bytes) read back a record that was never written";
    }
  }
  EXPECT_EQ(failures, 0);
  // The budget is only meaningful if mutants reach both outcomes.
  EXPECT_GT(served, kMutants / 10);
  EXPECT_LT(served, kMutants);
}

TEST(Store, GoldenCodecMutantsThatDecodeReencodeToThemselves) {
  const Fixture f = make_fixture(2);
  const std::vector<std::string> seeds = {
      GoldenCodec::encode(
          f.net.make_golden(f.data.images[0], ConvPolicy::kDirect)),
      GoldenCodec::encode(
          f.net.make_golden(f.data.images[1], ConvPolicy::kWinograd2))};
  constexpr int kMutantsPerSeed = 2000;
  Rng rng(20261018);
  int decoded = 0;
  int failures = 0;
  for (const std::string& seed : seeds) {
    for (int m = 0; m < kMutantsPerSeed && failures < 10; ++m) {
      const std::string mutant =
          testing::mutate_bytes(seed, rng.next_below(3), seeds, rng);
      const std::optional<GoldenCache> golden = GoldenCodec::decode(mutant);
      if (!golden.has_value()) continue;
      ++decoded;
      if (GoldenCodec::encode(*golden) != mutant) {
        ++failures;
        ADD_FAILURE() << "decoded mutant " << m << " (" << mutant.size()
                      << " bytes) does not re-encode to its own bytes";
      }
    }
  }
  EXPECT_EQ(failures, 0);
  // The budget is only meaningful if mutants reach both outcomes.
  EXPECT_GT(decoded, 100);
  EXPECT_LT(decoded, static_cast<int>(seeds.size()) * kMutantsPerSeed);
}

TEST(Store, ShardMutantsLoadTheSeedGoldenOrQuarantine) {
  const Fixture f = make_fixture(2);
  const std::string dir = fresh_dir("shard_mutants");
  GoldenStore store(dir, campaign_env_hash(f.net, f.data), 1ULL << 30);
  const GoldenCache golden =
      f.net.make_golden(f.data.images[0], ConvPolicy::kDirect);
  store.save(0, golden);
  store.save(1, f.net.make_golden(f.data.images[1], ConvPolicy::kDirect));
  const std::string path = store.shard_path(0);
  const std::string quarantine = path + ".quarantine";
  const std::string seed = read_file(path);
  const std::vector<std::string> donors = {
      read_file(store.shard_path(1))};
  const std::string expected = GoldenCodec::encode(golden);

  constexpr int kMutants = 4000;
  Rng rng(20261019);
  int loaded = 0;
  int failures = 0;
  const LogLevel threshold = log_threshold();
  set_log_threshold(LogLevel::kError);  // one quarantine warning per reject
  for (int m = 0; m < kMutants && failures < 10; ++m) {
    const std::string mutant =
        testing::mutate_bytes(seed, rng.next_below(3), donors, rng);
    write_file(path, mutant);
    bool ok = true;
    if (const std::optional<GoldenCache> restored =
            store.load(0)) {
      ++loaded;
      ok = GoldenCodec::encode(*restored) == expected;
    } else {
      // Rejected: the shard left its name, and the quarantined copy (when
      // the rename worked) is the mutant as written.
      ok = !fs::exists(path) &&
           (!fs::exists(quarantine) || read_file(quarantine) == mutant);
      fs::remove(quarantine);
    }
    if (!ok) {
      ++failures;
      ADD_FAILURE() << "mutant " << m << " (" << mutant.size()
                    << " bytes) restored another golden or left its shard";
    }
  }
  set_log_threshold(threshold);
  EXPECT_EQ(failures, 0);
  // Only a mutant that rewrote its bytes to their own values can load (the
  // header is compared word by word and the payload CRC'd); the budget is
  // only meaningful if mutants reach both outcomes.
  EXPECT_GT(loaded, 0);
  EXPECT_LT(loaded, kMutants);
}

}  // namespace
}  // namespace winofault
