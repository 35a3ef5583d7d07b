// Distributed-campaign guarantees (core/dist):
//   (a) workers cooperating over one store — sequential, concurrent, or
//       with one killed mid-run — assemble results bit-identical to a
//       single-process campaign;
//   (b) stale claims of dead workers are stolen and their buckets
//       re-executed by survivors;
//   (c) merging folds overlapping/duplicate segments into the canonical
//       journal exactly once per cell, and rejects corrupt segments;
//   (d) the cost-bucket partition covers every pending unit exactly once
//       and isolates over-heavy units.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/iofault/iofault.h"
#include "common/telemetry/telemetry.h"
#include "core/campaign/campaign.h"
#include "core/dist/buckets.h"
#include "core/dist/claim_board.h"
#include "core/dist/merge.h"
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
  Network net("dist", DType::kInt16);
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

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "winofault_dist_" + name;
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

// threads = 1 everywhere in this binary keeps the campaign-level
// parallel_for inline. It does not keep a process off the thread pool:
// golden builds run the conv GEMM on it. So the kill test runs its dying
// worker in a re-executed process, never in a bare fork of this one.
CampaignSpec worker_spec(const std::string& dir, int shard, int shards,
                         const std::string& tag, std::int64_t stale_ms,
                         std::int64_t die_after = 0) {
  CampaignSpec spec;
  spec.points = small_grid();
  spec.threads = 1;
  spec.store.dir = dir;
  spec.store.dist.shard_index = shard;
  spec.store.dist.shard_count = shards;
  spec.store.dist.worker_tag = tag;
  spec.store.dist.claim_stale_ms = stale_ms;
  spec.store.dist.poll_ms = 5;
  spec.store.dist.die_after_cells = die_after;
  return spec;
}

void expect_same_results(const CampaignResult& a, const CampaignResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t p = 0; p < a.points.size(); ++p) {
    EXPECT_DOUBLE_EQ(a.points[p].accuracy, b.points[p].accuracy)
        << "point " << p;
    EXPECT_DOUBLE_EQ(a.points[p].avg_flips, b.points[p].avg_flips)
        << "point " << p;
  }
}

int count_segments(const std::string& dir) {
  return static_cast<int>(ResultJournal::list_segments(dir).size());
}

// ---- (a) worker-vs-single-process bit-identity ----

TEST(Dist, SequentialTwoWorkersMatchSingleProcessAndMerge) {
  const Fixture f = make_fixture();
  CampaignSpec plain;
  plain.points = small_grid();
  plain.threads = 1;
  const CampaignResult reference = run_campaign(f.net, f.data, plain);
  const std::int64_t cells =
      static_cast<std::int64_t>(f.data.images.size() * plain.points.size());

  const std::string dir = fresh_dir("seq");
  // Worker 0 runs alone: it claims every bucket and executes everything.
  const CampaignResult r0 =
      run_campaign(f.net, f.data, worker_spec(dir, 0, 2, "wA", 0));
  expect_same_results(reference, r0);
  EXPECT_EQ(r0.stats.dist_cells_executed, cells);
  EXPECT_EQ(r0.stats.journal_cells_written, cells);
  EXPECT_GT(r0.stats.dist_buckets_claimed, 1);
  EXPECT_EQ(r0.stats.dist_cells_healed, 0);

  // Worker 1 arrives late: every bucket is done, so it executes nothing
  // and assembles the full result from worker 0's segment.
  const CampaignResult r1 =
      run_campaign(f.net, f.data, worker_spec(dir, 1, 2, "wB", 60000));
  expect_same_results(reference, r1);
  EXPECT_EQ(r1.stats.dist_cells_executed, 0);
  EXPECT_EQ(r1.stats.dist_cells_recovered, cells);

  // Coordinator merge: segments fold into the canonical journal, claim
  // boards are retired, and a plain store run replays without executing.
  EXPECT_GT(count_segments(dir), 0);
  const MergeStats merge = merge_campaign_segments(dir);
  EXPECT_EQ(merge.cells_merged, cells);
  EXPECT_EQ(merge.segments_rejected, 0);
  EXPECT_EQ(count_segments(dir), 0);

  CampaignSpec stored = plain;
  stored.store.dir = dir;
  const CampaignResult replay = run_campaign(f.net, f.data, stored);
  expect_same_results(reference, replay);
  EXPECT_EQ(replay.stats.inferences, 0);
  EXPECT_EQ(replay.stats.journal_cells_loaded, cells);
}

TEST(Dist, ConcurrentWorkersSplitTheGridAndAgree) {
  const Fixture f = make_fixture();
  CampaignSpec plain;
  plain.points = small_grid();
  plain.threads = 1;
  const CampaignResult reference = run_campaign(f.net, f.data, plain);
  const std::int64_t cells =
      static_cast<std::int64_t>(f.data.images.size() * plain.points.size());

  const std::string dir = fresh_dir("conc");
  CampaignResult r0, r1;
  // Claims never go stale within the test, so every cell executes exactly
  // once across the two workers.
  std::thread t0([&] {
    r0 = run_campaign(f.net, f.data, worker_spec(dir, 0, 2, "wA", 60000));
  });
  std::thread t1([&] {
    r1 = run_campaign(f.net, f.data, worker_spec(dir, 1, 2, "wB", 60000));
  });
  t0.join();
  t1.join();
  expect_same_results(reference, r0);
  expect_same_results(reference, r1);
  EXPECT_EQ(r0.stats.dist_cells_executed + r1.stats.dist_cells_executed,
            cells);
  EXPECT_EQ(r0.stats.dist_buckets_stolen + r1.stats.dist_buckets_stolen, 0);
  EXPECT_EQ(merge_campaign_segments(dir).cells_merged, cells);
}

// ---- (b) mid-run worker death + claim stealing ----

TEST(Dist, DeadWorkerClaimsAreStolenBySurvivor) {
  const Fixture f = make_fixture();
  const std::string dir = fresh_dir("steal");
  // Dying worker: SIGKILLs itself after 2 cells — claims left behind,
  // segment left with a partial bucket. The threadsafe style re-executes
  // this binary up to here, so the worker starts with a fresh thread pool
  // instead of a fork of this process's live one.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ASSERT_EXIT(
      run_campaign(f.net, f.data, worker_spec(dir, 0, 2, "dead", 400, 2)),
      ::testing::KilledBySignal(SIGKILL), "");

  CampaignSpec plain;
  plain.points = small_grid();
  plain.threads = 1;
  const CampaignResult reference = run_campaign(f.net, f.data, plain);

  // Survivor: claims the untouched buckets, then steals the dead worker's
  // stale claim and re-executes its bucket.
  const CampaignResult r1 =
      run_campaign(f.net, f.data, worker_spec(dir, 1, 2, "live", 400));
  expect_same_results(reference, r1);
  EXPECT_GE(r1.stats.dist_buckets_stolen, 1);

  // The dead worker's cells in its unfinished (stolen) bucket exist in two
  // segments — merge keeps exactly one copy of every cell. (Cells of a
  // bucket the dead worker *finished* are not re-executed, so the
  // duplicate count is 1 or 2 depending on where its first bucket
  // boundary fell.)
  const MergeStats merge = merge_campaign_segments(dir);
  EXPECT_EQ(merge.cells_merged,
            static_cast<std::int64_t>(f.data.images.size() *
                                      plain.points.size()));
  EXPECT_GE(merge.cells_duplicate, 1);
  EXPECT_LE(merge.cells_duplicate, 2);
}

TEST(Dist, ClaimBoardProtocol) {
  const std::string dir = fresh_dir("board");
  fs::create_directories(dir);
  ClaimBoard a(dir, 42, "wA", 60000);
  ClaimBoard b(dir, 42, "wB", 60000);

  // Exclusive claims.
  EXPECT_TRUE(a.try_claim(0));
  EXPECT_FALSE(b.try_claim(0));
  EXPECT_TRUE(b.try_claim(1));

  // Fresh claims cannot be stolen.
  EXPECT_FALSE(b.try_steal(0));

  // Stale claims can — by exactly the stealer that wins the rename.
  const std::string claim0 = a.dir() + "/b0.claim";
  fs::last_write_time(claim0, fs::file_time_type::clock::now() -
                                  std::chrono::hours(1));
  EXPECT_TRUE(b.try_steal(0));
  EXPECT_TRUE(b.has_claim(0));

  // Done retires the claim; done buckets are neither claimable nor
  // stealable.
  b.mark_done(0);
  EXPECT_TRUE(a.is_done(0));
  EXPECT_FALSE(a.try_claim(0));
  EXPECT_FALSE(a.try_steal(0));

  // mark_done is safe for an owner whose claim was stolen meanwhile: the
  // marker still lands.
  const std::string claim1 = b.dir() + "/b1.claim";
  fs::last_write_time(claim1, fs::file_time_type::clock::now() -
                                  std::chrono::hours(1));
  EXPECT_TRUE(a.try_steal(1));
  b.mark_done(1);  // b's claim file is now a's — rename still retires it
  EXPECT_TRUE(b.is_done(1));
  a.mark_done(1);  // no claim left: ensures the marker, no crash
  EXPECT_TRUE(a.is_done(1));
}

TEST(Dist, RacingWorkersClaimEveryBucketOnce) {
  // mark_done's rename frees the claim name, so a rival whose done check
  // ran just before it must not win the finished bucket a second time.
  const std::string dir = fresh_dir("board_race");
  constexpr int kBuckets = 400;
  std::vector<std::atomic<int>> wins(kBuckets);
  const auto work = [&](const char* tag) {
    ClaimBoard board(dir, 42, tag, 60000);
    for (int k = 0; k < kBuckets; ++k) {
      if (!board.try_claim(k)) continue;
      wins[static_cast<std::size_t>(k)].fetch_add(1);
      board.mark_done(k);
    }
  };
  std::thread a(work, "wA");
  std::thread b(work, "wB");
  a.join();
  b.join();
  for (int k = 0; k < kBuckets; ++k) {
    EXPECT_EQ(wins[static_cast<std::size_t>(k)].load(), 1) << "bucket " << k;
  }
}

// ---- (c) segment merge ----

TEST(Dist, MergeDedupsOverlappingSegments) {
  const std::string dir = fresh_dir("merge");
  const std::uint64_t env = 0xabcdef12345678ULL;
  {
    ResultJournal canonical(dir, env);
    canonical.append(JournalCell{11, 0, 1, 5});
  }
  {
    ResultJournal seg(dir, env, ResultJournal::Mode::kAppend, "wA");
    // Overlaps the canonical cell (image 0) and a rival's cell (image 2):
    // duplicates are identical by determinism.
    seg.append(JournalCell{11, 0, 1, 5});
    seg.append(JournalCell{11, 1, 0, 7});
    seg.append(JournalCell{11, 2, 1, 3});
  }
  {
    ResultJournal seg(dir, env, ResultJournal::Mode::kAppend, "wB");
    seg.append(JournalCell{11, 2, 1, 3});
    seg.append(JournalCell{11, 3, 1, 9});
  }

  const MergeStats stats = merge_campaign_segments(dir);
  EXPECT_EQ(stats.segments_merged, 2);
  EXPECT_EQ(stats.cells_merged, 3);      // images 1, 2, 3
  EXPECT_EQ(stats.cells_duplicate, 2);   // image 0 (canonical) + image 2
  EXPECT_EQ(count_segments(dir), 0);

  ResultJournal canonical(dir, env, ResultJournal::Mode::kReadOnly);
  EXPECT_EQ(canonical.recovered_cells(), 4);
  JournalCell cell;
  ASSERT_TRUE(canonical.lookup(11, 2, &cell));
  EXPECT_EQ(cell.correct, 1);
  EXPECT_EQ(cell.flips, 3);
}

TEST(Dist, MergeRejectsCorruptAndTruncatesTornSegments) {
  const std::string dir = fresh_dir("corrupt");
  const std::uint64_t env = 0x1122334455667788ULL;
  fs::create_directories(dir);

  // Garbage bytes under a segment name: rejected and deleted.
  const std::string bad =
      ResultJournal::segment_path(dir, env, "bad");
  std::ofstream(bad, std::ios::binary) << "not a journal at all";

  // A valid segment with a torn trailing record: intact cells merge, the
  // tail is dropped.
  {
    ResultJournal seg(dir, env, ResultJournal::Mode::kAppend, "torn");
    seg.append(JournalCell{5, 0, 1, 2});
    seg.append(JournalCell{5, 1, 1, 4});
  }
  {
    std::ofstream torn(ResultJournal::segment_path(dir, env, "torn"),
                       std::ios::binary | std::ios::app);
    torn << "XYZ";  // half-written record
  }

  const MergeStats stats = merge_campaign_segments(dir);
  EXPECT_EQ(stats.segments_rejected, 1);
  EXPECT_EQ(stats.segments_merged, 1);
  EXPECT_EQ(stats.segments_torn, 1);
  EXPECT_EQ(stats.cells_merged, 2);
  EXPECT_FALSE(fs::exists(bad));

  ResultJournal canonical(dir, env, ResultJournal::Mode::kReadOnly);
  EXPECT_EQ(canonical.recovered_cells(), 2);
  EXPECT_TRUE(canonical.lookup(5, 1));
}

// ---- (c') chaos (common/iofault): merge keeps cells durable under faults

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

TEST(Dist, MergeUnderTornCanonicalAppendKeepsSegmentAndSelfHeals) {
  const std::string dir = fresh_dir("chaos_merge_torn");
  const std::uint64_t env = 0x5150;
  {
    ResultJournal seg(dir, env, ResultJournal::Mode::kAppend, "wA");
    seg.append(JournalCell{21, 0, 1, 1});
    seg.append(JournalCell{21, 1, 0, 2});
    seg.append(JournalCell{21, 2, 1, 3});
  }
  {
    // The second canonical append (cell for image 1) tears mid-record:
    // the fold must stop counting, keep the segment — it is the only
    // durable copy of the unfolded cells — and report the journal
    // unwritable rather than pretend the merge finished.
    ScopedChaos chaos("5:torn(20)@write:*.journal#2");
    const MergeStats stats = merge_campaign_segments(dir);
    EXPECT_EQ(stats.journals_unwritable, 1);
    EXPECT_EQ(stats.segments_merged, 0);
    EXPECT_EQ(stats.cells_merged, 1);  // only the append that reached disk
    EXPECT_EQ(count_segments(dir), 1);
  }
  // A later clean merge self-heals: canonical recovery truncates the torn
  // record, the kept segment re-folds, duplicates dedup away.
  const MergeStats clean = merge_campaign_segments(dir);
  EXPECT_EQ(clean.segments_merged, 1);
  EXPECT_EQ(clean.cells_merged, 2);
  EXPECT_EQ(clean.cells_duplicate, 1);
  EXPECT_EQ(count_segments(dir), 0);
  ResultJournal canonical(dir, env, ResultJournal::Mode::kReadOnly);
  EXPECT_EQ(canonical.recovered_cells(), 3);
  EXPECT_TRUE(canonical.lookup(21, 1));
}

TEST(Dist, MergeUnderFsyncEioRetiresNoSegmentUntilDurable) {
  const std::string dir = fresh_dir("chaos_merge_fsync");
  const std::uint64_t env = 0x6001;
  {
    ResultJournal seg(dir, env, ResultJournal::Mode::kAppend, "wB");
    seg.append(JournalCell{31, 0, 1, 4});
    seg.append(JournalCell{31, 1, 1, 6});
  }
  {
    // Every append lands, but the durability barrier before segment
    // retirement fails: the segment must survive (a power cut now would
    // otherwise lose both cells).
    ScopedChaos chaos("5:eio@fsync:*.journal#1");
    const MergeStats stats = merge_campaign_segments(dir);
    EXPECT_EQ(stats.cells_merged, 2);
    EXPECT_EQ(stats.segments_merged, 0);
    EXPECT_EQ(stats.journals_unwritable, 1);
    EXPECT_EQ(count_segments(dir), 1);
  }
  const MergeStats clean = merge_campaign_segments(dir);
  EXPECT_EQ(clean.segments_merged, 1);
  EXPECT_EQ(clean.cells_duplicate, 2);  // both already durable
  EXPECT_EQ(clean.cells_merged, 0);
  EXPECT_EQ(count_segments(dir), 0);
}

TEST(Dist, InjectedClaimLinkFailureReadsAsLosingTheRace) {
  const std::string dir = fresh_dir("chaos_claim");
  fs::create_directories(dir);
  ClaimBoard a(dir, 42, "wA", 60000);
  {
    ScopedChaos chaos("5:eio@link:*.claim#1");
    EXPECT_FALSE(a.try_claim(0));  // injected EIO == someone else won
  }
  // The worker just moves on; the bucket stays claimable and the next
  // attempt (fault passed) succeeds.
  EXPECT_TRUE(a.try_claim(0));
  EXPECT_TRUE(a.has_claim(0));
}

// ---- (c'') degraded execution paths ----

// Every claim link fails, so no claim is ever held anywhere: after its
// fruitless rounds the worker runs every bucket without coordination.
TEST(Dist, UnusableClaimBoardRunsEveryBucketUncoordinated) {
  const Fixture f = make_fixture();
  CampaignSpec plain;
  plain.points = small_grid();
  plain.threads = 1;
  const CampaignResult reference = run_campaign(f.net, f.data, plain);
  const std::int64_t cells =
      static_cast<std::int64_t>(f.data.images.size() * plain.points.size());

  const std::string dir = fresh_dir("chaos_board_unusable");
  CampaignResult r;
  {
    ScopedChaos chaos("5:eio@link:*.claim#1+");
    r = run_campaign(f.net, f.data, worker_spec(dir, 0, 2, "wA", 60000));
  }
  expect_same_results(reference, r);
  EXPECT_EQ(r.stats.dist_cells_executed, cells);
  EXPECT_EQ(r.stats.journal_cells_written, cells);
  EXPECT_EQ(r.stats.dist_cells_healed, 0);
}

// The worker's own segment refuses every write, so claimed work could never
// be shared: the worker runs every pending cell itself, off the board.
TEST(Dist, UnwritableSegmentRunsEveryCellLocally) {
  const Fixture f = make_fixture();
  CampaignSpec plain;
  plain.points = small_grid();
  plain.threads = 1;
  const CampaignResult reference = run_campaign(f.net, f.data, plain);
  const std::int64_t cells =
      static_cast<std::int64_t>(f.data.images.size() * plain.points.size());

  const std::string dir = fresh_dir("chaos_segment_unwritable");
  CampaignResult r;
  {
    ScopedChaos chaos("5:eio@write:*.seg*#1+");
    r = run_campaign(f.net, f.data, worker_spec(dir, 0, 2, "wA", 60000));
  }
  expect_same_results(reference, r);
  EXPECT_EQ(r.stats.dist_cells_executed, cells);
  EXPECT_EQ(r.stats.journal_cells_written, 0);
  EXPECT_EQ(r.stats.dist_buckets_claimed, 0);
}

// ---- (d) cost buckets ----

TEST(Dist, CostBucketsCoverEveryUnitOnceAndBalanceWeight) {
  std::vector<double> weights(40);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 1.0 + static_cast<double>(i % 5);
  }
  const auto buckets = make_cost_buckets(weights, 8);
  ASSERT_EQ(buckets.size(), 8u);
  std::size_t covered = 0;
  double total = 0.0, max_w = 0.0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    EXPECT_EQ(buckets[b].begin, covered) << "contiguous, in order";
    EXPECT_GT(buckets[b].end, buckets[b].begin);
    covered = buckets[b].end;
    total += buckets[b].weight;
    max_w = std::max(max_w, buckets[b].weight);
  }
  EXPECT_EQ(covered, weights.size());
  EXPECT_DOUBLE_EQ(total, 120.0);  // sum of 40 weights, nothing lost
  EXPECT_LE(max_w, 2.5 * total / 8.0) << "roughly balanced";
}

TEST(Dist, CostBucketsIsolateDestructionAdjacentUnits) {
  // One unit worth ~100x the rest (a destruction-adjacent point) must not
  // drag dozens of cheap units into its bucket.
  std::vector<double> weights(30, 1.0);
  weights[10] = 100.0;
  const auto buckets = make_cost_buckets(weights, 6);
  for (const CostBucket& b : buckets) {
    if (b.begin <= 10 && 10 < b.end) {
      EXPECT_LE(b.end - b.begin, 2u)
          << "heavy unit shares a bucket with at most one neighbour";
    }
  }
  // Degenerate inputs.
  EXPECT_TRUE(make_cost_buckets({}, 4).empty());
  const auto zero = make_cost_buckets(std::vector<double>(12, 0.0), 4);
  ASSERT_EQ(zero.size(), 4u);
  EXPECT_EQ(zero.back().end, 12u);
}

TEST(Dist, BoardKeyTracksPendingSetAndEnvironment) {
  const std::vector<std::uint64_t> cells = {1, 2, 3};
  std::vector<std::uint64_t> reordered = {3, 1, 2};
  const std::uint64_t key = dist_board_key(9, cells, 4);
  EXPECT_EQ(key, dist_board_key(9, reordered, 4)) << "set, not order";
  EXPECT_NE(key, dist_board_key(10, cells, 4)) << "environment";
  EXPECT_NE(key, dist_board_key(9, {1, 2}, 4)) << "pending set";
  EXPECT_NE(key, dist_board_key(9, cells, 5)) << "bucket granularity";
}

// ---- (e) merged journals against single-process ones ----

// Sorting by key makes journals comparable across layouts.
std::vector<JournalCell> sorted_cells(const std::string& path,
                                      std::uint64_t env) {
  std::vector<JournalCell> cells;
  EXPECT_TRUE(ResultJournal::read_cells(path, env, &cells));
  std::sort(cells.begin(), cells.end(),
            [](const JournalCell& a, const JournalCell& b) {
              return journal_cell_key(a.point_hash, a.image) <
                     journal_cell_key(b.point_hash, b.image);
            });
  return cells;
}

TEST(Dist, MergedJournalMatchesSingleProcessAndGrowsByNewCellsOnly) {
  const Fixture f = make_fixture();
  CampaignSpec plain;
  plain.points = small_grid();
  plain.threads = 1;
  const CampaignResult reference = run_campaign(f.net, f.data, plain);
  const std::int64_t cells =
      static_cast<std::int64_t>(f.data.images.size() * plain.points.size());
  const std::uint64_t env = campaign_env_hash(f.net, f.data);

  // Single-process store run: the canonical journal the dist-merged one
  // must match cell-for-cell.
  CampaignSpec single = plain;
  single.store.dir = fresh_dir("merged_single");
  run_campaign(f.net, f.data, single);

  // Two sequential workers (as in the first test) + merge.
  const std::string dir = fresh_dir("merged_dist");
  const CampaignResult r0 =
      run_campaign(f.net, f.data, worker_spec(dir, 0, 2, "wA", 0));
  expect_same_results(reference, r0);
  const CampaignResult r1 =
      run_campaign(f.net, f.data, worker_spec(dir, 1, 2, "wB", 60000));
  expect_same_results(reference, r1);
  const MergeStats merge = merge_campaign_segments(dir);
  EXPECT_EQ(merge.cells_merged, cells);

  // The merged canonical journal is bit-identical to the single-process
  // one in every field.
  const std::vector<JournalCell> merged =
      sorted_cells(ResultJournal::journal_path(dir, env), env);
  const std::vector<JournalCell> direct = sorted_cells(
      ResultJournal::journal_path(single.store.dir, env), env);
  ASSERT_EQ(merged.size(), direct.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].point_hash, direct[i].point_hash) << "cell " << i;
    EXPECT_EQ(merged[i].image, direct[i].image) << "cell " << i;
    EXPECT_EQ(merged[i].correct, direct[i].correct) << "cell " << i;
    EXPECT_EQ(merged[i].flips, direct[i].flips) << "cell " << i;
  }

  // Grow the grid: the next dist run executes only the new cells.
  CampaignSpec grown_plain = plain;
  CampaignPoint extra = plain.points.back();
  extra.seed = 31;
  grown_plain.points.push_back(extra);
  const CampaignResult grown_reference =
      run_campaign(f.net, f.data, grown_plain);

  CampaignSpec grown_worker = worker_spec(dir, 0, 2, "wC", 0);
  grown_worker.points = grown_plain.points;
  const std::int64_t new_cells =
      static_cast<std::int64_t>(f.data.images.size());
  const CampaignResult g0 = run_campaign(f.net, f.data, grown_worker);
  expect_same_results(grown_reference, g0);
  EXPECT_EQ(g0.stats.dist_cells_executed, new_cells);

  // A second worker over the same grown grid derives the identical bucket
  // plan (same canonical journal): everything is already claimed/done, so
  // it executes nothing.
  CampaignSpec grown_late = worker_spec(dir, 1, 2, "wD", 60000);
  grown_late.points = grown_plain.points;
  const CampaignResult g1 = run_campaign(f.net, f.data, grown_late);
  expect_same_results(grown_reference, g1);
  EXPECT_EQ(g1.stats.dist_cells_executed, 0);

  // Merging the grown segments adds exactly the new cells.
  const MergeStats grown_merge = merge_campaign_segments(dir);
  EXPECT_EQ(grown_merge.cells_merged, new_cells);
  ResultJournal canonical(dir, env, ResultJournal::Mode::kReadOnly);
  EXPECT_EQ(canonical.recovered_cells(), cells + new_cells);
}

TEST(Dist, NewSegmentMergesIntoLedgeredCanonical) {
  const Fixture f = make_fixture();
  const std::uint64_t env = campaign_env_hash(f.net, f.data);
  const std::string dir = fresh_dir("ledgered_canonical");
  const std::string path = ResultJournal::journal_path(dir, env);

  // Phase 1: worker A, sole live worker of a 2-shard layout, executes the
  // whole grid; its merged canonical journal is then rewritten in the
  // older ledgered format (a cost record after every cell).
  CampaignSpec first = worker_spec(dir, 0, 2, "wA", 0);
  const CampaignResult r0 = run_campaign(f.net, f.data, first);
  const std::int64_t cells =
      static_cast<std::int64_t>(f.data.images.size() * first.points.size());
  EXPECT_EQ(r0.stats.dist_cells_executed, cells);
  EXPECT_EQ(merge_campaign_segments(dir).cells_merged, cells);
  const std::vector<JournalCell> old_cells = sorted_cells(path, env);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << testing::ledgered_journal(env, old_cells);
  }

  // Phase 2: worker B grows the grid by one point. Its pending set comes
  // from the ledgered canonical journal, so only the new cells execute.
  CampaignSpec grown = worker_spec(dir, 0, 2, "wB", 0);
  CampaignPoint extra = grown.points.back();
  extra.seed = 57;
  grown.points.push_back(extra);
  const CampaignResult r1 = run_campaign(f.net, f.data, grown);
  const std::int64_t extra_cells =
      static_cast<std::int64_t>(f.data.images.size());
  EXPECT_EQ(r1.stats.dist_cells_executed, extra_cells);
  CampaignSpec grown_plain;
  grown_plain.points = grown.points;
  expect_same_results(run_campaign(f.net, f.data, grown_plain), r1);

  // The merge appends the new cells after the ledgered records: no cell
  // lost, none duplicated (every record read back has its own key), and
  // the old ones unchanged.
  const MergeStats merge = merge_campaign_segments(dir);
  EXPECT_EQ(merge.cells_merged, extra_cells);
  EXPECT_EQ(merge.cells_duplicate, 0);
  EXPECT_EQ(merge.segments_rejected, 0);
  std::vector<JournalCell> records;
  ASSERT_TRUE(ResultJournal::read_cells(path, env, &records));
  EXPECT_EQ(static_cast<std::int64_t>(records.size()), cells + extra_cells);
  const ResultJournal canonical(dir, env, ResultJournal::Mode::kReadOnly);
  EXPECT_EQ(canonical.recovered_cells(), cells + extra_cells);
  for (const JournalCell& old : old_cells) {
    JournalCell cell;
    ASSERT_TRUE(canonical.lookup(old.point_hash, old.image, &cell));
    EXPECT_EQ(cell.correct, old.correct);
    EXPECT_EQ(cell.flips, old.flips);
  }
}

// ---- (f) golden-build timing on both execution paths ----

std::int64_t golden_build_timings() {
  for (const telemetry::SeriesSample& s : telemetry::snapshot()) {
    if (s.name == "winofault_campaign_phase_us" &&
        s.labels == "phase=\"golden_build\"") {
      return s.value;
    }
  }
  return 0;
}

// GoldenLru::get_or_build is the one place goldens are built, so the
// golden_build phase series gains one observation per reported build, on a
// local run and on dist workers alike.
TEST(Dist, GoldenBuildPhaseTimesEveryBuildLocalAndDistributed) {
  const Fixture f = make_fixture();
  const auto expect_timed = [&](const CampaignSpec& spec) {
    const std::int64_t before = golden_build_timings();
    const CampaignResult r = run_campaign(f.net, f.data, spec);
    EXPECT_GT(r.stats.golden_builds, 0);
    EXPECT_EQ(golden_build_timings() - before, r.stats.golden_builds);
  };
  CampaignSpec plain;
  plain.points = small_grid();
  plain.threads = 1;
  expect_timed(plain);

  // Two sequential workers. Spill is off, so the second cannot restore the
  // first one's goldens; its extra point changes the pending set, so it
  // claims a fresh board and runs every cell again.
  const std::string dir = fresh_dir("phase");
  CampaignSpec first = worker_spec(dir, 0, 2, "wA", 0);
  first.store.spill_goldens = false;
  expect_timed(first);
  CampaignSpec second = worker_spec(dir, 1, 2, "wB", 60000);
  second.store.spill_goldens = false;
  CampaignPoint extra = second.points.back();
  extra.seed = 41;
  second.points.push_back(extra);
  expect_timed(second);
}

}  // namespace
}  // namespace winofault
