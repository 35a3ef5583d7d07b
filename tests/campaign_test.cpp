// Campaign-engine guarantees:
//   (a) a multi-point campaign (shared goldens, one schedule) is
//       bit-identical to point-by-point evaluate() calls, for op-level,
//       neuron-level, protected, and scratch points;
//   (b) the golden LRU shares exactly one build per image across every
//       policy and stays bit-exact at any capacity, including one;
//   (c) results are independent of the thread count;
//   (d) the destruction short-circuit triggers strictly above
//       max_expected_flips and simulates at or below it;
//   (e) `trials` plumbs through the sweep/layerwise/explorer spec builders,
//       and the figure builders journal exactly their hand-built points;
//   (f) telemetry is observation-only: tracing on, off, or toggled
//       mid-grid never changes a single result bit;
//   (g) runs through one runner share its goldens, and a run's stats
//       count its own work, also while another run shares its runner
//       (and so its goldens) and store.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <future>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <cstdlib>

#include "common/telemetry/telemetry.h"
#include "core/analysis/layer_vulnerability.h"
#include "core/analysis/network_sweep.h"
#include "core/analysis/op_type.h"
#include "core/campaign/campaign.h"
#include "core/energy/voltage_explorer.h"
#include "core/protect/tmr_planner.h"
#include "core/service/protocol.h"
#include "core/store/hash.h"
#include "fault/fault_model.h"
#include "nn/models/zoo.h"

namespace winofault {
namespace {

// This suite asserts the numeric semantics of the built-in flip@op
// injector (expected flip counts, degradation curves). Pin the built-in
// model so the registry-model CI leg (WINOFAULT_FAULT_MODEL) can run the
// full suite without changing what this file tests.
const bool kBuiltinModelPinned = [] {
  unsetenv("WINOFAULT_FAULT_MODEL");
  return true;
}();

struct Fixture {
  Network net;
  Dataset data;
};

Fixture make_fixture(int images = 12) {
  Network net("campaign", DType::kInt16);
  Rng rng(83);
  int x = net.add_input(Shape{1, 3, 12, 12});
  x = net.add_conv(x, 8, 3, 1, 1, rng);
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

// A Fig-2-style grid plus protected / neuron-level / scratch points, so the
// campaign crosses every execution path evaluate() has.
std::vector<CampaignPoint> mixed_grid() {
  std::vector<CampaignPoint> points;
  for (const double ber : {1e-7, 3e-6}) {
    for (const ConvPolicy policy :
         {ConvPolicy::kDirect, ConvPolicy::kWinograd2}) {
      CampaignPoint point;
      point.fault.ber = ber;
      point.policy = policy;
      point.seed = 7;
      point.trials = 3;
      points.push_back(std::move(point));
    }
  }
  CampaignPoint neuron;
  neuron.fault.ber = 1e-5;
  neuron.fault.mode = InjectionMode::kNeuronLevel;
  neuron.seed = 7;
  neuron.trials = 2;
  points.push_back(std::move(neuron));

  CampaignPoint protect;
  protect.fault.ber = 3e-6;
  protect.fault.protection[0] = ProtectionSet(1.0, 0.5);
  protect.seed = 9;
  protect.trials = 2;
  points.push_back(std::move(protect));

  CampaignPoint excl;
  excl.fault.ber = 3e-6;
  excl.fault.fault_free_layer = 1;
  excl.seed = 9;
  points.push_back(std::move(excl));

  CampaignPoint scratch;
  scratch.fault.ber = 1e-6;
  scratch.reuse_golden = false;
  scratch.seed = 11;
  scratch.trials = 2;
  points.push_back(std::move(scratch));
  return points;
}

TEST(Campaign, MultiPointGridMatchesPointByPointEvaluate) {
  const Fixture f = make_fixture();
  CampaignSpec spec;
  spec.points = mixed_grid();
  const CampaignResult campaign = run_campaign(f.net, f.data, spec);
  ASSERT_EQ(campaign.points.size(), spec.points.size());
  for (std::size_t p = 0; p < spec.points.size(); ++p) {
    const EvalResult single = evaluate(f.net, f.data, spec.points[p]);
    EXPECT_DOUBLE_EQ(campaign.points[p].accuracy, single.accuracy)
        << "point " << p;
    EXPECT_DOUBLE_EQ(campaign.points[p].avg_flips, single.avg_flips)
        << "point " << p;
    EXPECT_EQ(campaign.points[p].images, single.images) << "point " << p;
  }
}

TEST(Campaign, GoldenBuildsSharedPerImage) {
  const Fixture f = make_fixture(6);
  CampaignSpec spec;
  spec.points = mixed_grid();
  spec.threads = 1;  // deterministic hit/miss accounting
  spec.golden_capacity = 64;
  const CampaignResult campaign = run_campaign(f.net, f.data, spec);
  // 7 reuse_golden points over 2 policies: one build per image serves
  // both policies, and the other 6 lookups per image hit it.
  EXPECT_EQ(campaign.stats.golden_builds,
            static_cast<std::int64_t>(f.data.size()));
  EXPECT_EQ(campaign.stats.golden_hits,
            static_cast<std::int64_t>(f.data.size()) * 6);
  EXPECT_EQ(campaign.stats.golden_evictions, 0);
  EXPECT_EQ(campaign.stats.short_circuited_points, 0);
}

TEST(Campaign, TinyLruCapacityStaysBitExact) {
  const Fixture f = make_fixture(8);
  CampaignSpec big;
  big.points = mixed_grid();
  big.golden_capacity = 64;
  CampaignSpec tiny = big;
  tiny.golden_capacity = 1;  // worst case: every other lookup rebuilds
  const CampaignResult a = run_campaign(f.net, f.data, big);
  const CampaignResult b = run_campaign(f.net, f.data, tiny);
  EXPECT_GT(b.stats.golden_evictions, 0);
  for (std::size_t p = 0; p < a.points.size(); ++p) {
    EXPECT_DOUBLE_EQ(a.points[p].accuracy, b.points[p].accuracy);
    EXPECT_DOUBLE_EQ(a.points[p].avg_flips, b.points[p].avg_flips);
  }
}

TEST(Campaign, DeterministicAcrossThreadCounts) {
  const Fixture f = make_fixture();
  CampaignSpec spec;
  spec.points = mixed_grid();
  spec.threads = 1;
  const CampaignResult serial = run_campaign(f.net, f.data, spec);
  spec.threads = 5;
  const CampaignResult parallel = run_campaign(f.net, f.data, spec);
  for (std::size_t p = 0; p < serial.points.size(); ++p) {
    EXPECT_DOUBLE_EQ(serial.points[p].accuracy, parallel.points[p].accuracy);
    EXPECT_DOUBLE_EQ(serial.points[p].avg_flips,
                     parallel.points[p].avg_flips);
  }
}

// ---- (b') build-future dedup survives eviction mid-build ----

// Two threads request an entry that a third evicts while its build is
// still in flight: both waiters must resolve to the single build's pointer
// (no duplicate build, no deadlock), and the eviction must only cost a
// rebuild on the NEXT request.
TEST(GoldenLru, ConcurrentWaitersSurviveEvictionMidBuild) {
  GoldenLru lru(1);
  GoldenTally tally;
  std::atomic<int> x_builds{0};
  std::promise<void> x_started;
  std::promise<void> release_x;
  std::shared_future<void> release = release_x.get_future().share();

  const auto slow_build_x = [&] {
    x_builds.fetch_add(1);
    x_started.set_value();
    release.wait();  // park the build until the evictor has run
    return GoldenCache{};
  };

  GoldenLru::Ptr a_ptr, b_ptr, c_ptr;
  std::thread a([&] {
    a_ptr = lru.get_or_build(0, slow_build_x, tally);
  });
  x_started.get_future().wait();

  // B and C attach to the in-flight build; each registers as a hit before
  // blocking, so waiting on 2 tallied hits guarantees they hold the future
  // BEFORE the eviction below.
  const auto must_not_build = [&]() -> GoldenCache {
    ADD_FAILURE() << "dedup violated: waiter rebuilt an in-flight entry";
    return GoldenCache{};
  };
  std::thread b([&] {
    b_ptr = lru.get_or_build(0, must_not_build, tally);
  });
  std::thread c([&] {
    c_ptr = lru.get_or_build(0, must_not_build, tally);
  });
  while (tally.hits.load() < 2) std::this_thread::yield();

  // D inserts a different key into the capacity-1 cache, evicting X while
  // its build is parked.
  const GoldenLru::Ptr d_ptr =
      lru.get_or_build(1, [] { return GoldenCache{}; }, tally);
  ASSERT_NE(d_ptr, nullptr);
  EXPECT_EQ(tally.evictions.load(), 1);

  release_x.set_value();
  a.join();
  b.join();
  c.join();
  EXPECT_EQ(x_builds.load(), 1);  // one build served all three
  ASSERT_NE(a_ptr, nullptr);
  EXPECT_EQ(a_ptr, b_ptr);
  EXPECT_EQ(a_ptr, c_ptr);

  // X was evicted mid-build, so the next request rebuilds it — eviction
  // cost a rebuild, never a wrong pointer.
  lru.get_or_build(
      0,
      [&] {
        x_builds.fetch_add(1);
        return GoldenCache{};
      },
      tally);
  EXPECT_EQ(x_builds.load(), 2);
  EXPECT_EQ(tally.builds.load(), 3);  // X twice, Y once
}

// ---- (g) one runner shares its goldens; a run's stats are its own ----

TEST(Campaign, RunsThroughOneRunnerShareItsGoldens) {
  const Fixture f = make_fixture(6);
  CampaignSpec first;
  for (const ConvPolicy policy :
       {ConvPolicy::kDirect, ConvPolicy::kWinograd2}) {
    for (const double ber : {1e-7, 3e-6}) {
      CampaignPoint point;
      point.fault.ber = ber;
      point.policy = policy;
      point.seed = 7;
      point.trials = 2;
      first.points.push_back(point);
    }
  }
  first.threads = 2;
  CampaignSpec second = first;
  for (CampaignPoint& point : second.points) point.seed = 8;
  const std::int64_t images = static_cast<std::int64_t>(f.data.size());
  const std::int64_t cells =
      images * static_cast<std::int64_t>(second.points.size());

  const CampaignRunner runner(f.net, f.data);
  const CampaignResult a = runner.run(first);
  EXPECT_EQ(a.stats.golden_builds, images);
  EXPECT_EQ(a.stats.golden_hits, cells - images);
  // The runner kept every golden: the second run builds none, and each
  // of its cells is a hit of its own.
  const CampaignResult b = runner.run(second);
  EXPECT_EQ(b.stats.golden_builds, 0);
  EXPECT_EQ(b.stats.golden_hits, cells);
  EXPECT_EQ(b.stats.golden_evictions, 0);

  // Nothing is shared across runners: a one-shot run builds again, and
  // its results equal the shared-golden run's.
  const CampaignResult fresh = run_campaign(f.net, f.data, second);
  EXPECT_EQ(fresh.stats.golden_builds, images);
  for (std::size_t p = 0; p < second.points.size(); ++p) {
    EXPECT_DOUBLE_EQ(b.points[p].accuracy, fresh.points[p].accuracy);
    EXPECT_DOUBLE_EQ(b.points[p].avg_flips, fresh.points[p].avg_flips);
  }
}

struct NestedRuns {
  CampaignResult outer;
  CampaignResult inner;
};

// Two runs of 6 images x {direct, winograd2} x 2 trials on one runner and
// so on its goldens, under different seeds and, with a `store_dir`, in one
// store directory. The inner run starts from the outer run's progress
// callback after its first cell, on a pool participant, so it runs inline
// and wholly inside the outer run.
NestedRuns run_nested(const Fixture& f, const std::string& store_dir) {
  const CampaignRunner runner(f.net, f.data);
  CampaignSpec outer;
  for (const ConvPolicy policy :
       {ConvPolicy::kDirect, ConvPolicy::kWinograd2}) {
    CampaignPoint point;
    point.fault.ber = 3e-6;
    point.policy = policy;
    point.seed = 7;
    point.trials = 2;
    outer.points.push_back(point);
  }
  outer.threads = 2;
  outer.store.dir = store_dir;
  CampaignSpec inner = outer;
  for (CampaignPoint& point : inner.points) point.seed = 8;

  NestedRuns runs;
  std::once_flag started;
  outer.on_progress = [&](const CampaignProgress& progress) {
    if (progress.cells_done == 0) return;
    std::call_once(started, [&] { runs.inner = runner.run(inner); });
  };
  runs.outer = runner.run(outer);
  return runs;
}

TEST(Campaign, RunsSharingAWarmTierReportOnlyTheirOwnWork) {
  const Fixture f = make_fixture(6);
  const NestedRuns runs = run_nested(f, "");
  for (const CampaignStats& stats : {runs.outer.stats, runs.inner.stats}) {
    EXPECT_EQ(stats.golden_hits + stats.golden_builds, 12);  // 6 x 2 cells
    EXPECT_EQ(stats.golden_evictions, 0);
  }
  // One build per image between them: the second run to ask hits.
  EXPECT_EQ(runs.outer.stats.golden_builds + runs.inner.stats.golden_builds,
            6);
}

TEST(Campaign, RunsSharingAStoreReportOnlyTheirOwnWrites) {
  const Fixture f = make_fixture(6);
  const std::string dir = ::testing::TempDir() + "winofault_nested_store";
  std::filesystem::remove_all(dir);
  const NestedRuns runs = run_nested(f, dir);
  for (const CampaignStats& stats : {runs.outer.stats, runs.inner.stats}) {
    EXPECT_EQ(stats.journal_cells_written, 12);
    EXPECT_EQ(stats.golden_hits + stats.golden_builds + stats.golden_restores,
              12);
  }
  // One shard per image between them: the second run to save finds it.
  EXPECT_EQ(runs.outer.stats.golden_spills + runs.inner.stats.golden_spills,
            6);
  std::filesystem::remove_all(dir);
}

// ---- (d) destruction short-circuit boundary ----

TEST(Campaign, DestructionShortCircuitBoundary) {
  const Fixture f = make_fixture(6);
  const double ber = 1e-4;
  const double expected =
      FaultModel{ber}.expected_flips(f.net.total_op_space(ConvPolicy::kDirect));
  ASSERT_GT(expected, 0.0);

  CampaignPoint point;
  point.fault.ber = ber;
  point.seed = 3;

  // Threshold just below the expected flips: evaluate() must report
  // chance accuracy and the analytic flip expectation without simulating.
  point.max_expected_flips = expected * (1.0 - 1e-9);
  const EvalResult shorted = evaluate(f.net, f.data, point);
  EXPECT_DOUBLE_EQ(shorted.accuracy, 1.0 / f.data.num_classes);
  EXPECT_DOUBLE_EQ(shorted.avg_flips, expected);

  // Threshold exactly at the expected flips: expected <= threshold, so the
  // run is simulated (avg_flips is a sampled value, almost surely not the
  // analytic expectation; accuracy comes from real replays).
  point.max_expected_flips = expected;
  const EvalResult at = evaluate(f.net, f.data, point);
  // Threshold just above: also simulated, and identical to the
  // effectively-unbounded run.
  point.max_expected_flips = expected * (1.0 + 1e-9);
  const EvalResult above = evaluate(f.net, f.data, point);
  point.max_expected_flips = 1e300;
  const EvalResult unbounded = evaluate(f.net, f.data, point);
  EXPECT_DOUBLE_EQ(at.accuracy, unbounded.accuracy);
  EXPECT_DOUBLE_EQ(at.avg_flips, unbounded.avg_flips);
  EXPECT_DOUBLE_EQ(above.accuracy, unbounded.accuracy);
  EXPECT_DOUBLE_EQ(above.avg_flips, unbounded.avg_flips);

  // A campaign mixing a short-circuited and a simulated point resolves
  // each independently.
  CampaignPoint hot;
  hot.fault.ber = ber;
  hot.seed = 3;
  hot.max_expected_flips = expected / 2;
  CampaignPoint sim = hot;
  sim.max_expected_flips = expected * 2;
  CampaignSpec spec;
  spec.points = {hot, sim};
  const CampaignResult campaign = run_campaign(f.net, f.data, spec);
  EXPECT_EQ(campaign.stats.short_circuited_points, 1);
  EXPECT_DOUBLE_EQ(campaign.points[0].accuracy, shorted.accuracy);
  EXPECT_DOUBLE_EQ(campaign.points[0].avg_flips, shorted.avg_flips);
  EXPECT_DOUBLE_EQ(campaign.points[1].accuracy, unbounded.accuracy);
  EXPECT_DOUBLE_EQ(campaign.points[1].avg_flips, unbounded.avg_flips);
}

// ---- (e) trials plumb through the spec builders ----

TEST(Campaign, TrialsPlumbThroughSweepBuilder) {
  const Fixture f = make_fixture(8);
  SweepOptions options;
  options.bers = {1e-6, 1e-5};
  options.seed = 17;
  options.trials = 3;
  const auto curve = accuracy_sweep(CampaignRunner(f.net, f.data), options);

  CampaignPoint eval;
  eval.seed = 17;
  eval.trials = 3;
  for (std::size_t i = 0; i < options.bers.size(); ++i) {
    eval.fault.ber = options.bers[i];
    const EvalResult expected = evaluate(f.net, f.data, eval);
    EXPECT_DOUBLE_EQ(curve[i].accuracy, expected.accuracy);
    EXPECT_DOUBLE_EQ(curve[i].avg_flips, expected.avg_flips);
  }
}

TEST(Campaign, TrialsPlumbThroughLayerwiseAndExplorerBuilders) {
  const Fixture f = make_fixture(6);
  CampaignPoint base;
  base.fault.ber = 3e-6;
  base.seed = 29;
  base.trials = 2;
  const CampaignRunner runner(f.net, f.data);
  const LayerwiseResult layerwise = layer_vulnerability(runner, base);

  EXPECT_DOUBLE_EQ(layerwise.base_accuracy,
                   evaluate(f.net, f.data, base).accuracy);
  CampaignPoint one = base;
  one.fault.fault_free_layer = 0;
  EXPECT_DOUBLE_EQ(layerwise.layers[0].accuracy_fault_free,
                   evaluate(f.net, f.data, one).accuracy);

  // The explorer's curve at `trials` matches direct evaluation of the
  // model's BER at that voltage.
  VoltageModel volt;
  volt.log10_ber_anchor = -7.0;
  const std::vector<double> grid = {0.80, 0.78};
  const ConvPolicy direct[] = {ConvPolicy::kDirect};
  CampaignPoint curve_base;
  curve_base.seed = 31;
  curve_base.trials = 2;
  const auto curve =
      measure_voltage_curves(runner, volt, curve_base, direct, grid)
          .curves.front()
          .points;
  CampaignPoint at_v;
  at_v.fault.ber = volt.ber_at(grid[1]);
  at_v.seed = 31;
  at_v.trials = 2;
  EXPECT_DOUBLE_EQ(curve[1].accuracy, evaluate(f.net, f.data, at_v).accuracy);
}

// Each figure builder runs copies of the caller's point that differ only
// in the builder's own axis field, so it journals exactly the cells of the
// points hand-built field by field below, and no others. Existing journals
// are keyed by these points' hashes, so the builders must not move them.
TEST(Campaign, FigureBuildersJournalExactlyTheirPoints) {
  const Fixture f = make_fixture(3);
  const std::string dir = ::testing::TempDir() + "winofault_builder_points";
  std::filesystem::remove_all(dir);
  StoreOptions store;
  store.dir = dir;
  const CampaignRunner runner(f.net, f.data);

  CampaignPoint base;
  base.fault.ber = 3e-6;
  base.policy = ConvPolicy::kWinograd2;
  base.seed = 41;
  layer_vulnerability(runner, base, store);
  op_type_sensitivity(runner, base, store);

  // Three checks: no protection, then layer 1's muls at 0.5 and at 1.0.
  TmrPlanOptions tmr;
  tmr.check = base;
  tmr.accuracy_goal = 1.01;  // unreachable
  tmr.step_fraction = 0.5;
  tmr.max_iterations = 2;
  const std::vector<int> order = {1, 0, 2, 3};
  tmr.layer_order = &order;
  tmr.store = store;
  plan_tmr(runner, tmr);

  VoltageModel volt;
  volt.log10_ber_anchor = -7.0;
  const std::vector<double> grid = {0.80, 0.78};
  const ConvPolicy policies[] = {ConvPolicy::kDirect, ConvPolicy::kWinograd2};
  CampaignPoint curve_base;
  curve_base.seed = 43;
  curve_base.trials = 2;
  measure_voltage_curves(runner, volt, curve_base, policies, grid, store);

  const auto point = [](double ber, ConvPolicy policy, std::uint64_t seed,
                        int trials) {
    CampaignPoint p;
    p.fault.ber = ber;
    p.policy = policy;
    p.seed = seed;
    p.trials = trials;
    return p;
  };
  // The all-faulty point is also the first TMR check.
  const CampaignPoint faulty = point(3e-6, ConvPolicy::kWinograd2, 41, 1);
  std::vector<CampaignPoint> expected = {faulty};
  for (int layer = 0; layer < f.net.num_protectable(); ++layer) {
    CampaignPoint p = faulty;
    p.fault.fault_free_layer = layer;
    expected.push_back(p);
  }
  for (const OpKind kind : {OpKind::kAdd, OpKind::kMul}) {
    CampaignPoint p = faulty;
    p.fault.only_kind = kind;
    expected.push_back(p);
  }
  for (const double fraction : {0.5, 1.0}) {
    CampaignPoint p = faulty;
    p.fault.protection[1].set_mul_fraction(fraction);
    expected.push_back(p);
  }
  for (const ConvPolicy policy : policies) {
    expected.push_back(point(0.0, policy, 43, 1));  // the clean reference
    for (const double v : grid) {
      expected.push_back(point(volt.ber_at(v), policy, 43, 2));
    }
  }

  std::set<std::pair<std::uint64_t, std::int64_t>> want, got;
  for (const CampaignPoint& p : expected) {
    for (std::size_t image = 0; image < f.data.images.size(); ++image) {
      want.emplace(campaign_point_hash(p), image);
    }
  }
  std::vector<JournalCell> cells;
  ASSERT_TRUE(ResultJournal::read_cells(
      ResultJournal::journal_path(dir, runner.env_hash()), runner.env_hash(),
      &cells));
  for (const JournalCell& cell : cells) {
    got.emplace(cell.point_hash, cell.image);
  }
  EXPECT_EQ(cells.size(), got.size());  // no cell journaled twice
  EXPECT_EQ(got, want);
  std::filesystem::remove_all(dir);
}

// The fault model is a campaign axis: the same (ber, policy, seed, trials)
// grid point hashes differently under every distinct model, so journaled
// results never cross-contaminate. The explicit "flip@op" spec hashes
// identically to a pre-registry point — old journals keep replaying.
TEST(Campaign, FaultModelJoinsCampaignPointHash) {
  CampaignPoint point;
  point.fault.ber = 1e-6;
  point.seed = 7;
  point.trials = 3;
  const std::uint64_t base_hash = campaign_point_hash(point);

  const char* specs[] = {"stuck0@weight", "stuck0@weight#perm",
                         "stuck1@weight", "toggle@accum",
                         "stuck0(0.01)@weight#perm"};
  std::vector<std::uint64_t> hashes = {base_hash};
  for (const char* spec : specs) {
    CampaignPoint modeled = point;
    modeled.fault.model = *FaultModelSpec::parse(spec);
    hashes.push_back(campaign_point_hash(modeled));
  }
  for (std::size_t i = 0; i < hashes.size(); ++i) {
    for (std::size_t j = i + 1; j < hashes.size(); ++j) {
      EXPECT_NE(hashes[i], hashes[j]) << "i=" << i << " j=" << j;
    }
  }

  CampaignPoint explicit_default = point;
  explicit_default.fault.model = *FaultModelSpec::parse("flip@op");
  EXPECT_EQ(campaign_point_hash(explicit_default), base_hash);
}

// ---- (f) telemetry is observation-only ----

// The determinism contract of common/telemetry: the same grid run with
// tracing off, tracing on, and tracing toggled between runs produces
// bit-identical results, and the trace file is well-formed JSON.
TEST(Campaign, TelemetryTracingPreservesBitIdentity) {
  const Fixture f = make_fixture(8);
  CampaignSpec spec;
  spec.points = mixed_grid();

  telemetry::set_trace_path("");  // ensure a clean off baseline
  const CampaignResult untraced = run_campaign(f.net, f.data, spec);

  const std::string trace_path =
      ::testing::TempDir() + "winofault_campaign_trace.json";
  std::filesystem::remove(trace_path);
  telemetry::set_trace_path(trace_path);
  const CampaignResult traced = run_campaign(f.net, f.data, spec);
  telemetry::flush_trace();
  telemetry::set_trace_path("");
  const CampaignResult toggled = run_campaign(f.net, f.data, spec);

  ASSERT_EQ(untraced.points.size(), traced.points.size());
  ASSERT_EQ(untraced.points.size(), toggled.points.size());
  for (std::size_t p = 0; p < untraced.points.size(); ++p) {
    EXPECT_DOUBLE_EQ(untraced.points[p].accuracy, traced.points[p].accuracy);
    EXPECT_DOUBLE_EQ(untraced.points[p].avg_flips,
                     traced.points[p].avg_flips);
    EXPECT_DOUBLE_EQ(untraced.points[p].accuracy,
                     toggled.points[p].accuracy);
    EXPECT_DOUBLE_EQ(untraced.points[p].avg_flips,
                     toggled.points[p].avg_flips);
  }

  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::optional<Json> doc = Json::parse(buffer.str());
  ASSERT_TRUE(doc.has_value());
  const Json* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // The campaign run emits run + cell spans; at least one of each tier.
  bool saw_run = false, saw_cell = false;
  for (const Json& event : events->elements()) {
    const Json* name = event.find("name");
    if (name == nullptr) continue;
    if (name->as_string() == "campaign_run") saw_run = true;
    if (name->as_string() == "cell_replay" ||
        name->as_string() == "cell_inject") {
      saw_cell = true;
    }
  }
  EXPECT_TRUE(saw_run);
  EXPECT_TRUE(saw_cell);
  std::filesystem::remove(trace_path);
}

}  // namespace
}  // namespace winofault
