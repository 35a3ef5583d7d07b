// Resident-service guarantees (core/service):
//   (a) a campaign submitted to winofaultd over the socket returns results
//       bit-identical to a direct in-process CampaignRunner run;
//   (b) warm state is shared across submissions: the second identical
//       submission builds zero goldens, and a store-enabled pair resumes
//       from the journal (partial-then-complete) instead of restarting;
//   (c) the scheduler is FIFO per client and round-robin across clients;
//   (d) cancel stops a running campaign cooperatively (partial result,
//       deferred cells) and discards a queued one;
//   (e) a stored job saves every golden it uses while it runs, so drain
//       and session eviction write nothing, and an unstored job writes
//       into no store; drain finishes the backlog and refuses new work;
//   (f) the protocol rejects malformed requests, unknown models, and
//       client/daemon environment-hash skew without touching any result.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/iofault/iofault.h"
#include "common/rng.h"
#include "common/telemetry/telemetry.h"
#include "core/campaign/campaign.h"
#include "core/service/client.h"
#include "core/service/protocol.h"
#include "core/service/scheduler.h"
#include "core/service/server.h"
#include "core/store/golden_store.h"
#include "core/store/hash.h"
#include "fault/models/model_spec.h"
#include "nn/dataset.h"
#include "test_util.h"

namespace winofault {
namespace {

// Cancel/progress tests size their workload in flip@op replay trials
// (e.g. trials=300 keeps a campaign running long enough to cancel).
// Permanent registry models collapse replay to a golden lookup, so pin
// the built-in model; the registry CI leg exercises the daemon through
// fault_models_test's protocol round-trip instead.
const bool kBuiltinModelPinned = [] {
  unsetenv("WINOFAULT_FAULT_MODEL");
  return true;
}();

}  // namespace
namespace {

namespace fs = std::filesystem;

struct Fixture {
  Network net;
  Dataset data;
};

// Deterministic function of (images, weight_seed) — shared by the direct
// runs and the server-side builder below, mirroring how bench clients and
// the daemon rebuild one environment from a ModelEnv.
Fixture make_fixture(int images = 8, std::uint64_t weight_seed = 83) {
  Network net("service", DType::kInt16);
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

ModelEnvBuilder test_env_builder() {
  return [](const ModelEnv& env, Network* net, Dataset* data,
            std::string* error) {
    if (env.model != "testnet") {
      if (error != nullptr) *error = "unknown model '" + env.model + "'";
      return false;
    }
    Fixture f = make_fixture(env.images, env.seed);
    *net = std::move(f.net);
    *data = std::move(f.data);
    return true;
  };
}

ModelEnv test_env(int images = 8, std::uint64_t seed = 83) {
  ModelEnv env;
  env.model = "testnet";
  env.images = images;
  env.seed = seed;
  return env;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "winofault_service_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

int count_shards(const std::string& dir) {
  int shards = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    shards += entry.path().extension() == ".shard";
  }
  return shards;
}

std::vector<CampaignPoint> small_grid(int trials = 2) {
  std::vector<CampaignPoint> points;
  for (const double ber : {1e-7, 3e-6}) {
    for (const ConvPolicy policy :
         {ConvPolicy::kDirect, ConvPolicy::kWinograd2}) {
      CampaignPoint point;
      point.fault.ber = ber;
      point.policy = policy;
      point.seed = 7;
      point.trials = trials;
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

// Server bound to a fresh socket with the test builder; joined on scope
// exit.
struct TestServer {
  explicit TestServer(const std::string& dir, int jobs = 1,
                      const std::function<void(ServerOptions&)>& configure =
                          std::function<void(ServerOptions&)>()) {
    ServerOptions options;
    options.socket_path = dir + "/winofaultd.sock";
    options.concurrent_jobs = jobs;
    options.env_builder = test_env_builder();
    if (configure) configure(options);
    server = std::make_unique<ServiceServer>(options);
    std::string error;
    ok = server->start(&error);
    EXPECT_TRUE(ok) << error;
    socket_path = options.socket_path;
  }
  ~TestServer() {
    if (ok) {
      server->request_drain();
      server->wait();
    }
  }
  std::unique_ptr<ServiceServer> server;
  std::string socket_path;
  bool ok = false;
};

// ---- protocol codecs ----

TEST(ServiceProtocol, JsonNumbersRoundTripExactly) {
  const std::string text =
      "{\"a\":1e-09,\"b\":0.72599999999999998,\"c\":18446744073709551615,"
      "\"d\":-42,\"e\":[true,false,null,\"s\\u0041\"]}";
  const auto parsed = Json::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(parsed->find("a")->as_double(), 1e-9);
  EXPECT_DOUBLE_EQ(parsed->find("b")->as_double(), 0.726);
  EXPECT_EQ(parsed->find("c")->as_uint(), 18446744073709551615ULL);
  EXPECT_EQ(parsed->find("d")->as_int(), -42);
  // dump -> parse -> dump is a fixed point.
  const std::string dumped = parsed->dump();
  const auto reparsed = Json::parse(dumped);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->dump(), dumped);
  EXPECT_EQ(reparsed->find("e")->elements().at(3).as_string(), "sA");

  EXPECT_FALSE(Json::parse("{\"unterminated\":").has_value());
  EXPECT_FALSE(Json::parse("{} trailing").has_value());
  EXPECT_FALSE(Json::parse("nope").has_value());
}

TEST(ServiceProtocol, CampaignSpecRoundTripPreservesPointHashes) {
  CampaignSpec spec;
  spec.threads = 3;
  spec.golden_capacity = 17;
  spec.store.dir = "/tmp/some/store";
  spec.store.cell_budget = 9;
  spec.store.golden_disk_budget = 123456789;
  CampaignPoint a;
  a.fault.ber = 3.7e-7;
  a.fault.mode = InjectionMode::kNeuronLevel;
  a.policy = ConvPolicy::kWinograd2;
  a.seed = 0xdeadbeefcafef00dULL;
  a.trials = 5;
  CampaignPoint b;
  b.fault.ber = 1e-9;
  b.fault.only_kind = OpKind::kAdd;
  b.fault.fault_free_layer = 2;
  b.fault.protection[1] = ProtectionSet(0.25, 0.5);
  b.fault.protection[3] = ProtectionSet(1.0, 0.0, 77);
  b.reuse_golden = false;
  b.max_expected_flips = 123.5;
  spec.points = {a, b};

  const Json encoded = encode_campaign_spec(spec);
  const auto reparsed = Json::parse(encoded.dump());
  ASSERT_TRUE(reparsed.has_value());
  CampaignSpec decoded;
  std::string error;
  ASSERT_TRUE(decode_campaign_spec(*reparsed, &decoded, &error)) << error;
  ASSERT_EQ(decoded.points.size(), spec.points.size());
  for (std::size_t i = 0; i < spec.points.size(); ++i) {
    // The point hash covers every result-determining field, so hash
    // equality IS semantic round-trip fidelity.
    EXPECT_EQ(campaign_point_hash(decoded.points[i]),
              campaign_point_hash(spec.points[i]))
        << "point " << i;
  }
  EXPECT_EQ(decoded.threads, 3);
  EXPECT_EQ(decoded.golden_capacity, 17u);
  EXPECT_EQ(decoded.store.dir, "/tmp/some/store");
  EXPECT_EQ(decoded.store.cell_budget, 9);
  EXPECT_EQ(decoded.store.golden_disk_budget, 123456789u);
  EXPECT_FALSE(decoded.points[1].reuse_golden);

  // A line from an older client still carries a point "tag"; it decodes
  // to the same spec.
  std::string line = encoded.dump();
  const std::string first_point = R"("points":[{)";
  const std::size_t at = line.find(first_point);
  ASSERT_NE(at, std::string::npos);
  line.insert(at + first_point.size(), R"("tag":"round\ntrip\"",)");
  const auto tagged = Json::parse(line);
  ASSERT_TRUE(tagged.has_value()) << line;
  CampaignSpec from_tagged;
  ASSERT_TRUE(decode_campaign_spec(*tagged, &from_tagged, &error)) << error;
  EXPECT_EQ(encode_campaign_spec(from_tagged).dump(), encoded.dump());
}

TEST(ServiceProtocol, RejectsWireIntegersOutsideTheirFieldRange) {
  // The first four were once narrowed into a different experiment: one
  // trial, layer 0 fault-free and four threads.
  const char* const kBadSpecs[] = {
      R"({"points":[{"trials":4294967297}]})",
      R"({"points":[{"fault_free_layer":4294967296}]})",
      R"({"threads":4294967300,"points":[{}]})",
      R"({"points":[{"protection":[{"layer":4294967296,"mul":1}]}]})",
      R"({"points":[{"trials":0}]})",
      R"({"points":[{"trials":2.5}]})",
      R"({"points":[{"trials":"3"}]})",
      R"({"points":[{"fault_free_layer":-2}]})",
      R"({"points":[{"protection":[{"layer":-1,"mul":1}]}]})",
      R"({"threads":-1,"points":[{}]})",
      // 64-bit fields: once truncated (seed 2, salt 7), cast out of range
      // (cell_budget INT64_MIN, golden_disk_budget 0) or wrapped.
      R"({"points":[{"seed":2.5}]})",
      R"({"points":[{"seed":-1}]})",
      R"({"points":[{"seed":"3"}]})",
      R"({"points":[{"seed":18446744073709551616}]})",
      R"({"points":[{"protection":[{"layer":0,"mul":1,"salt":7.9}]}]})",
      R"({"store":{"dir":"d","cell_budget":1e300},"points":[{}]})",
      R"({"store":{"dir":"d","cell_budget":-1},"points":[{}]})",
      R"({"store":{"dir":"d","cell_budget":9223372036854775808},)"
      R"("points":[{}]})",
      R"({"store":{"dir":"d","golden_disk_budget":1e300},"points":[{}]})",
      R"({"golden_capacity":1e300,"points":[{}]})",
      R"({"golden_capacity":-4,"points":[{}]})",
  };
  for (const char* text : kBadSpecs) {
    const std::optional<Json> json = Json::parse(text);
    ASSERT_TRUE(json.has_value()) << text;
    CampaignSpec spec;
    std::string error;
    EXPECT_FALSE(decode_campaign_spec(*json, &spec, &error)) << text;
    EXPECT_NE(error.find("must be an integer in"), std::string::npos)
        << text << ": " << error;
  }
  // Once built 10 images, seed 3, and turned the daemon's build-skew guard
  // off (env_hash 0).
  const std::pair<const char*, const char*> kBadEnvs[] = {
      {R"({"model":"vgg19","images":4294967306})", "env.images"},
      {R"({"model":"vgg19","seed":3.7})", "env.seed"},
      {R"({"model":"vgg19","env_hash":1e300})", "env.env_hash"},
      {R"({"model":"vgg19","env_hash":-5})", "env.env_hash"},
      // Wider than the paper's full-width model: 1e10 made the daemon die
      // of bad_alloc, and a width that builds can still exhaust memory.
      {R"({"model":"vgg19","width":1e10})", "env.width"},
      {R"({"model":"vgg19","width":1.5})", "env.width"},
      {R"({"model":"vgg19","width":-1})", "env.width"},
  };
  std::string error;
  for (const auto& [text, field] : kBadEnvs) {
    const std::optional<Json> env = Json::parse(text);
    ASSERT_TRUE(env.has_value()) << text;
    ModelEnv decoded_env;
    EXPECT_FALSE(decode_model_env(*env, &decoded_env, &error)) << text;
    EXPECT_NE(error.find(field), std::string::npos) << text << ": " << error;
  }
  const std::optional<Json> result =
      Json::parse(R"({"points":[{"images":4294967297}]})");
  ASSERT_TRUE(result.has_value());
  CampaignResult decoded_result;
  EXPECT_FALSE(decode_campaign_result(*result, &decoded_result, &error));
  EXPECT_NE(error.find("result.images"), std::string::npos) << error;

  // The bounds themselves still decode.
  const std::optional<Json> edges = Json::parse(
      R"({"threads":2147483647,"points":[{"trials":2147483647,)"
      R"("fault_free_layer":-1,"protection":[{"layer":0,"mul":1}]}]})");
  ASSERT_TRUE(edges.has_value());
  CampaignSpec spec;
  ASSERT_TRUE(decode_campaign_spec(*edges, &spec, &error)) << error;
  EXPECT_EQ(spec.threads, 2147483647);
  EXPECT_EQ(spec.points.at(0).trials, 2147483647);
  EXPECT_EQ(spec.points.at(0).fault.fault_free_layer, -1);
  EXPECT_EQ(spec.points.at(0).fault.protection.count(0), 1u);

  // 64-bit bounds decode exactly, past what a double can hold.
  const std::optional<Json> wide = Json::parse(
      R"({"golden_capacity":18446744073709551615,"store":{"dir":"d",)"
      R"("golden_disk_budget":18446744073709551615,)"
      R"("cell_budget":9223372036854775807},)"
      R"("points":[{"seed":18446744073709551615,)"
      R"("protection":[{"layer":0,"mul":1,"salt":18446744073709551614}]}]})");
  ASSERT_TRUE(wide.has_value());
  ASSERT_TRUE(decode_campaign_spec(*wide, &spec, &error)) << error;
  EXPECT_EQ(spec.golden_capacity, SIZE_MAX);
  EXPECT_EQ(spec.store.golden_disk_budget, UINT64_MAX);
  EXPECT_EQ(spec.store.cell_budget, INT64_MAX);
  EXPECT_EQ(spec.points.at(0).seed, UINT64_MAX);
  EXPECT_EQ(spec.points.at(0).fault.protection.at(0).salt(), UINT64_MAX - 1);
  const std::optional<Json> wide_env = Json::parse(
      R"({"model":"vgg19","seed":0,"env_hash":18446744073709551615})");
  ASSERT_TRUE(wide_env.has_value());
  ModelEnv decoded_env;
  ASSERT_TRUE(decode_model_env(*wide_env, &decoded_env, &error)) << error;
  EXPECT_EQ(decoded_env.seed, 0u);
  EXPECT_EQ(decoded_env.env_hash, UINT64_MAX);
  // 0 (the model's default width) up to the full width 1.0 decode.
  const std::pair<const char*, double> kWidths[] = {
      {R"({"model":"vgg19","width":0})", 0.0},
      {R"({"model":"vgg19","width":0.25})", 0.25},
      {R"({"model":"vgg19","width":1.0})", 1.0},
  };
  for (const auto& [text, width] : kWidths) {
    const std::optional<Json> width_env = Json::parse(text);
    ASSERT_TRUE(width_env.has_value()) << text;
    ASSERT_TRUE(decode_model_env(*width_env, &decoded_env, &error))
        << text << ": " << error;
    EXPECT_EQ(decoded_env.width, width) << text;
  }
}

TEST(ServiceProtocol, DecodedSpecMutantsReencodeToAFixedPoint) {
  // Two seed specs that set every encoded field between them.
  CampaignSpec full;
  full.threads = 3;
  full.golden_capacity = 17;
  full.store.dir = "/tmp/some\tstore\"";
  full.store.journal = false;
  full.store.spill_goldens = true;
  full.store.golden_disk_budget = 123456789;
  full.store.cell_budget = 9;
  CampaignPoint a;
  a.fault.ber = 3.7e-7;
  a.fault.mode = InjectionMode::kNeuronLevel;
  a.fault.model = *FaultModelSpec::parse("stuck1(0.01)@weight#perm");
  a.policy = ConvPolicy::kWinograd2;
  a.seed = 0xdeadbeefcafef00dULL;
  a.trials = 5;
  a.reuse_golden = false;
  a.max_expected_flips = 123.5;
  CampaignPoint b;
  b.fault.ber = 1e-9;
  b.fault.only_kind = OpKind::kAdd;
  b.fault.fault_free_layer = 2;
  b.fault.protection[1] = ProtectionSet(0.25, 0.5);
  b.fault.protection[3] = ProtectionSet(1.0, 0.0, 77);
  b.fault.model = *FaultModelSpec::parse("toggle@accum");
  full.points = {a, b};
  CampaignSpec minimal;
  minimal.points.resize(1);
  minimal.points[0].fault.model = FaultModelSpec{};
  const std::vector<std::string> seeds = {encode_campaign_spec(full).dump(),
                                          encode_campaign_spec(minimal).dump()};

  // parse -> decode -> encode; false when the line is rejected.
  const auto reencode = [](const std::string& line, std::string* out) {
    const std::optional<Json> json = Json::parse(line);
    CampaignSpec spec;
    std::string error;
    if (!json.has_value() || !decode_campaign_spec(*json, &spec, &error)) {
      return false;
    }
    *out = encode_campaign_spec(spec).dump();
    return true;
  };
  constexpr int kMutantsPerSeed = 20000;
  Rng rng(20261017);
  int decoded = 0;
  int failures = 0;
  for (const std::string& seed : seeds) {
    for (int m = 0; m < kMutantsPerSeed && failures < 10; ++m) {
      const std::string mutant =
          testing::mutate_bytes(seed, rng.next_below(3), seeds, rng);
      std::string line;
      if (!reencode(mutant, &line)) continue;
      ++decoded;
      std::string again;
      if (!reencode(line, &again) || again != line) {
        ++failures;
        ADD_FAILURE() << "not a fixed point: " << mutant << "\n-> " << line;
      }
    }
  }
  EXPECT_EQ(failures, 0);
  // The budget is only meaningful if mutants reach both outcomes.
  EXPECT_GT(decoded, 1000);
  EXPECT_LT(decoded, static_cast<int>(seeds.size()) * kMutantsPerSeed);
}

// ---- (a) bit-identity ----

TEST(Service, SubmittedCampaignIsBitIdenticalToDirectRun) {
  const Fixture f = make_fixture();
  CampaignSpec spec;
  spec.points = small_grid();
  const CampaignResult direct = run_campaign(f.net, f.data, spec);

  const std::string dir = fresh_dir("bit_identity");
  TestServer ts(dir);
  ServiceClient client;
  std::string error;
  ASSERT_TRUE(client.connect(ts.socket_path, &error)) << error;
  ModelEnv env = test_env();
  env.env_hash = campaign_env_hash(f.net, f.data);
  // Progress events are best-effort (the streamer collapses intermediate
  // snapshots, and a fast campaign can finish before the first one ships
  // — the cancel test pins down streaming on a heavy campaign); only the
  // final result is contractual.
  const auto outcome = client.submit_and_wait("test", env, spec);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.state, "done");
  expect_same_results(direct, outcome.result);
}

// ---- (b) warm cross-submission state ----

TEST(Service, SecondSubmissionServesGoldensFromWarmTier) {
  const std::string dir = fresh_dir("warm");
  TestServer ts(dir);
  CampaignSpec spec;
  spec.points = small_grid();
  const ModelEnv env = test_env();

  ServiceClient client;
  std::string error;
  ASSERT_TRUE(client.connect(ts.socket_path, &error)) << error;
  const auto cold = client.submit_and_wait("test", env, spec);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_GT(cold.result.stats.golden_builds, 0);

  const auto warm = client.submit_and_wait("test", env, spec);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm.result.stats.golden_builds, 0);
  EXPECT_GT(warm.result.stats.golden_hits, 0);
  expect_same_results(cold.result, warm.result);
}

TEST(Service, WarmGoldensServeEveryPolicy) {
  const Fixture f = make_fixture();
  CampaignSpec direct;
  CampaignSpec winograd;
  for (const CampaignPoint& point : small_grid()) {
    (point.policy == ConvPolicy::kDirect ? direct : winograd)
        .points.push_back(point);
  }
  const CampaignResult reference = run_campaign(f.net, f.data, winograd);

  const std::string dir = fresh_dir("warm_every_policy");
  TestServer ts(dir);
  ServiceClient client;
  std::string error;
  ASSERT_TRUE(client.connect(ts.socket_path, &error)) << error;
  const auto cold = client.submit_and_wait("test", test_env(), direct);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_GT(cold.result.stats.golden_builds, 0);

  // The direct job's goldens serve the winograd2 job: nothing builds.
  const auto warm = client.submit_and_wait("test", test_env(), winograd);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm.result.stats.golden_builds, 0);
  expect_same_results(reference, warm.result);
}

TEST(Service, PartialThenCompleteResumesFromJournalAcrossSubmissions) {
  const Fixture f = make_fixture();
  CampaignSpec clean;
  clean.points = small_grid();
  const CampaignResult reference = run_campaign(f.net, f.data, clean);

  const std::string dir = fresh_dir("partial_resume");
  const std::string store_dir = dir + "/store";
  TestServer ts(dir);
  ServiceClient client;
  std::string error;
  ASSERT_TRUE(client.connect(ts.socket_path, &error)) << error;

  // Submission 1: budgeted (the daemon-side analogue of a fig driver run
  // under WINOFAULT_CELL_BUDGET) — must defer, not fail.
  CampaignSpec budgeted;
  budgeted.points = small_grid();
  budgeted.store.dir = store_dir;
  budgeted.store.cell_budget = 5;
  const auto partial = client.submit_and_wait("test", test_env(), budgeted);
  ASSERT_TRUE(partial.ok) << partial.error;
  EXPECT_GT(partial.result.stats.cells_deferred, 0);
  EXPECT_EQ(partial.result.stats.journal_cells_written, 5);

  // Submission 2: same spec, no budget — must RESUME from the journal
  // (cells loaded, only the remainder executed), not restart.
  CampaignSpec full = budgeted;
  full.store.cell_budget = 0;
  const auto complete = client.submit_and_wait("test", test_env(), full);
  ASSERT_TRUE(complete.ok) << complete.error;
  EXPECT_EQ(complete.result.stats.cells_deferred, 0);
  EXPECT_EQ(complete.result.stats.journal_cells_loaded, 5);
  expect_same_results(reference, complete.result);

  // Third submission: everything journaled, nothing executes.
  const auto replay = client.submit_and_wait("test", test_env(), full);
  ASSERT_TRUE(replay.ok) << replay.error;
  EXPECT_EQ(replay.result.stats.inferences, 0);
  expect_same_results(reference, replay.result);
}

// ---- (c) scheduler fairness ----

TEST(ServiceScheduler, RoundRobinAcrossClientsFifoWithin) {
  Scheduler scheduler;
  const auto job = [](const std::string& client, const std::string& id) {
    auto j = std::make_shared<ServiceJob>();
    j->client = client;
    j->id = id;
    return j;
  };
  ASSERT_EQ(EnqueueResult::kAccepted, scheduler.enqueue(job("alice", "a1")));
  ASSERT_EQ(EnqueueResult::kAccepted, scheduler.enqueue(job("alice", "a2")));
  ASSERT_EQ(EnqueueResult::kAccepted, scheduler.enqueue(job("alice", "a3")));
  ASSERT_EQ(EnqueueResult::kAccepted, scheduler.enqueue(job("bob", "b1")));
  ASSERT_EQ(EnqueueResult::kAccepted, scheduler.enqueue(job("bob", "b2")));
  std::vector<std::string> order;
  for (int i = 0; i < 5; ++i) order.push_back(scheduler.next()->id);
  EXPECT_EQ(order,
            (std::vector<std::string>{"a1", "b1", "a2", "b2", "a3"}));
  scheduler.drain();
  EXPECT_EQ(EnqueueResult::kDraining, scheduler.enqueue(job("alice", "a4")));
  EXPECT_EQ(scheduler.next(), nullptr);
}

TEST(ServiceScheduler, CancelledQueuedJobIsDiscarded) {
  Scheduler scheduler;
  auto a = std::make_shared<ServiceJob>();
  a->client = "c";
  a->id = "a";
  auto b = std::make_shared<ServiceJob>();
  b->client = "c";
  b->id = "b";
  ASSERT_EQ(EnqueueResult::kAccepted, scheduler.enqueue(a));
  ASSERT_EQ(EnqueueResult::kAccepted, scheduler.enqueue(b));
  a->finish(JobState::kCancelled, CampaignResult(), "cancelled");
  EXPECT_EQ(scheduler.next()->id, "b");
  EXPECT_EQ(scheduler.queued(), 0u);
}

// ---- (d) cancel ----

TEST(Service, CancelStopsRunningCampaignWithPartialResult) {
  const std::string dir = fresh_dir("cancel");
  TestServer ts(dir);
  CampaignSpec spec;
  spec.points = small_grid(/*trials=*/300);  // heavy: many replays per cell

  // Streamer connection: submit and read until the first progress event
  // proves the campaign is running.
  ServiceClient submitter;
  std::string error;
  ASSERT_TRUE(submitter.connect(ts.socket_path, &error)) << error;
  std::string job_id;  // filled at the accepted event, before any progress
  std::atomic<bool> cancelled_sent{false};
  const auto outcome = submitter.submit_and_wait(
      "test", test_env(), spec,
      [&](const CampaignProgress&) {
        if (cancelled_sent.exchange(true)) return;
        // First progress event: cancel from a second connection.
        ServiceClient canceller;
        std::string cancel_error;
        ASSERT_TRUE(canceller.connect(ts.socket_path, &cancel_error))
            << cancel_error;
        Json request = Json::object();
        request.set("op", Json::str("cancel"));
        request.set("job", Json::str(job_id));
        const auto response = canceller.request(request, &cancel_error);
        ASSERT_TRUE(response.has_value()) << cancel_error;
        EXPECT_TRUE(response->find("ok")->as_bool());
      },
      &job_id);
  ASSERT_TRUE(cancelled_sent.load());
  EXPECT_TRUE(outcome.ok) << outcome.error;  // cancelled carries results
  EXPECT_EQ(outcome.state, "cancelled");
  EXPECT_GT(outcome.result.stats.cells_deferred, 0);
}

// ---- (e) drain ----

TEST(Service, DrainLeavesGoldensOnDiskAndRemovesTheSocket) {
  const std::string dir = fresh_dir("drain");
  const std::string store_dir = dir + "/store";
  auto ts = std::make_unique<TestServer>(dir);
  CampaignSpec spec;
  spec.points = small_grid();
  spec.store.dir = store_dir;
  ServiceClient client;
  std::string error;
  ASSERT_TRUE(client.connect(ts->socket_path, &error)) << error;
  const auto outcome = client.submit_and_wait("test", test_env(), spec);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  // The goldens reached the tier-2 store while the job ran, not at drain:
  // one per image, serving both policies.
  EXPECT_EQ(count_shards(store_dir), 8);

  Json drain = Json::object();
  drain.set("op", Json::str("drain"));
  const auto response = client.request(drain, &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_TRUE(response->find("ok")->as_bool());
  ts->server->wait();

  EXPECT_EQ(count_shards(store_dir), 8);
  // The socket is gone: a fresh daemon can bind it cleanly.
  EXPECT_FALSE(fs::exists(ts->socket_path));
  ts.reset();
}

TEST(Service, StoredJobServedFromWarmGoldensPutsThemOnDiskBeforeDrain) {
  const std::string dir = fresh_dir("warm_then_stored");
  const std::string store_dir = dir + "/store";
  TestServer ts(dir);
  ServiceClient client;
  std::string error;
  ASSERT_TRUE(client.connect(ts.socket_path, &error)) << error;
  CampaignSpec spec;
  spec.points = small_grid();
  const auto unstored = client.submit_and_wait("test", test_env(), spec);
  ASSERT_TRUE(unstored.ok) << unstored.error;

  // Every golden the stored job uses is a warm hit, and each one is on
  // disk when the job returns, while the daemon is still up.
  spec.store.dir = store_dir;
  const auto stored = client.submit_and_wait("test", test_env(), spec);
  ASSERT_TRUE(stored.ok) << stored.error;
  EXPECT_EQ(stored.result.stats.golden_builds, 0);
  EXPECT_EQ(count_shards(store_dir), 8);  // one per image
  expect_same_results(unstored.result, stored.result);
}

TEST(Service, UnstoredJobWritesIntoNoStore) {
  const Fixture f = make_fixture();
  const std::string dir = fresh_dir("unstored_no_store");
  const std::string store_dir = dir + "/store";
  auto ts = std::make_unique<TestServer>(dir);
  ServiceClient client;
  std::string error;
  ASSERT_TRUE(client.connect(ts->socket_path, &error)) << error;
  CampaignSpec clean;
  clean.points = small_grid();
  clean.store.dir = store_dir;
  // Permanent-fault points: their goldens are variants the stored job
  // never wrote, so the unstored job has goldens of its own to build.
  CampaignSpec variant;
  variant.points = small_grid();
  for (CampaignPoint& point : variant.points) {
    point.fault.model = *FaultModelSpec::parse("stuck0(0.01)@weight#perm");
  }
  const auto stored = client.submit_and_wait("test", test_env(), clean);
  ASSERT_TRUE(stored.ok) << stored.error;
  const auto unstored = client.submit_and_wait("test", test_env(), variant);
  ASSERT_TRUE(unstored.ok) << unstored.error;
  EXPECT_GT(unstored.result.stats.golden_builds, 0);
  ts->server->request_drain();
  ts->server->wait();

  // Only the stored job's clean goldens are on disk: neither the unstored
  // job nor the drain after it wrote into the earlier job's store.
  EXPECT_EQ(count_shards(store_dir), 8);
  const GoldenStore store(store_dir, campaign_env_hash(f.net, f.data),
                          1ULL << 30);
  for (std::int64_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(fs::exists(store.shard_path(i))) << i;
  }
  ts.reset();
}

// ---- (f) rejection paths ----

TEST(Service, RejectsUnknownModelMalformedJsonAndHashSkew) {
  const std::string dir = fresh_dir("reject");
  TestServer ts(dir);
  CampaignSpec spec;
  spec.points = small_grid();

  ServiceClient client;
  std::string error;
  ASSERT_TRUE(client.connect(ts.socket_path, &error)) << error;
  ModelEnv unknown = test_env();
  unknown.model = "not-a-model";
  const auto bad_model = client.submit_and_wait("test", unknown, spec);
  EXPECT_FALSE(bad_model.ok);
  EXPECT_NE(bad_model.error.find("unknown model"), std::string::npos)
      << bad_model.error;

  ModelEnv skewed = test_env();
  skewed.env_hash = 0x1234567890abcdefULL;  // not what the build hashes to
  const auto bad_hash = client.submit_and_wait("test", skewed, spec);
  EXPECT_FALSE(bad_hash.ok);
  EXPECT_NE(bad_hash.error.find("hash mismatch"), std::string::npos)
      << bad_hash.error;

  // Raw malformed line -> error response, connection stays usable.
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, ts.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::string garbage = "this is not json\n{\"op\":\"ping\"}\n";
  ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), 0),
            static_cast<ssize_t>(garbage.size()));
  std::string received;
  char chunk[4096];
  while (received.find('\n') == std::string::npos ||
         received.find('\n') == received.size() - 1) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    received.append(chunk, static_cast<std::size_t>(n));
    if (std::count(received.begin(), received.end(), '\n') >= 2) break;
  }
  ::close(fd);
  EXPECT_NE(received.find("malformed"), std::string::npos) << received;
  EXPECT_NE(received.find("\"pid\""), std::string::npos) << received;
}

TEST(Service, EnvBuildThatThrowsFailsOnlyItsJob) {
  const Fixture f = make_fixture();
  CampaignSpec spec;
  spec.points = small_grid();
  const CampaignResult direct = run_campaign(f.net, f.data, spec);

  const std::string dir = fresh_dir("throwing_build");
  TestServer ts(dir, /*jobs=*/1, [](ServerOptions& o) {
    o.env_builder = [](const ModelEnv& env, Network* net, Dataset* data,
                       std::string* error) {
      if (env.model == "huge") throw std::bad_alloc();
      return test_env_builder()(env, net, data, error);
    };
  });
  ServiceClient client;
  std::string error;
  ASSERT_TRUE(client.connect(ts.socket_path, &error)) << error;
  ModelEnv huge = test_env();
  huge.model = "huge";
  const auto failed = client.submit_and_wait("test", huge, spec);
  EXPECT_FALSE(failed.ok);
  EXPECT_EQ(failed.state, "failed");
  EXPECT_NE(failed.error.find("bad_alloc"), std::string::npos)
      << failed.error;
  EXPECT_EQ(ts.server->stats().jobs_failed, 1);

  // The daemon survived: the next submission runs to completion.
  const auto next = client.submit_and_wait("test", test_env(), spec);
  ASSERT_TRUE(next.ok) << next.error;
  EXPECT_EQ(next.state, "done");
  expect_same_results(direct, next.result);
}

// ---- concurrency ----

TEST(Service, TwoConcurrentClientsGetIdenticalCorrectResults) {
  const Fixture f = make_fixture();
  CampaignSpec spec;
  spec.points = small_grid();
  const CampaignResult direct = run_campaign(f.net, f.data, spec);

  const std::string dir = fresh_dir("concurrent");
  TestServer ts(dir, /*jobs=*/2);
  ServiceClient::SubmitOutcome outcomes[2];
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      ServiceClient client;
      std::string error;
      if (!client.connect(ts.socket_path, &error)) {
        outcomes[c].error = error;
        return;
      }
      // One store directory per client: both jobs run at once on the
      // session's one runner, each asking it for its own store's handles.
      CampaignSpec stored = spec;
      stored.store.dir = dir + "/store-" + std::to_string(c);
      outcomes[c] = client.submit_and_wait("client-" + std::to_string(c),
                                           test_env(), stored);
    });
  }
  for (std::thread& t : clients) t.join();
  // Each job's stats are its own, though both share the session's warm
  // tier: its lookups cover its own 32 cells, and its fresh store gets
  // every image's shard.
  const std::int64_t cells = 32;  // 4 points x 8 images
  std::int64_t builds = 0;
  for (int c = 0; c < 2; ++c) {
    ASSERT_TRUE(outcomes[c].ok) << outcomes[c].error;
    expect_same_results(direct, outcomes[c].result);
    const CampaignStats& stats = outcomes[c].result.stats;
    EXPECT_EQ(stats.golden_hits + stats.golden_builds + stats.golden_restores,
              cells);
    EXPECT_EQ(stats.journal_cells_written, cells);
    EXPECT_EQ(stats.golden_spills, 8);
    builds += stats.golden_builds;
  }
  EXPECT_EQ(builds, 8);  // one build per image between the two jobs
}

TEST(Service, StoreSwitchesBesideALongUnstoredJobKeepResultsCorrect) {
  // Two executors share one session and its warm tier. A long job
  // without a store misses the tier on every cell (each point is its own
  // permanent-fault golden variant) and builds every golden; it restores
  // from and writes into no store. Meanwhile stored jobs on the other
  // executor alternate two store directories; each one makes the runner
  // stop keeping the previous directory open, while each call still uses
  // the store its own run holds (the sanitizer jobs run this).
  const Fixture f = make_fixture();
  CampaignSpec stored;
  stored.points = small_grid();
  const CampaignResult stored_reference = run_campaign(f.net, f.data, stored);
  CampaignSpec unstored;
  for (int s = 0; s < 24; ++s) {
    CampaignPoint point;
    point.fault.ber = 1e-3;
    point.fault.model = *FaultModelSpec::parse("stuck0@weight#perm");
    point.policy = s % 2 == 0 ? ConvPolicy::kDirect : ConvPolicy::kWinograd2;
    point.seed = 100 + static_cast<std::uint64_t>(s);
    point.trials = 1;
    unstored.points.push_back(std::move(point));
  }
  const CampaignResult unstored_reference =
      run_campaign(f.net, f.data, unstored);

  const std::string dir = fresh_dir("store_switch");
  TestServer ts(dir, /*jobs=*/2);
  ServiceClient client;
  std::string error;
  ASSERT_TRUE(client.connect(ts.socket_path, &error)) << error;
  stored.store.dir = dir + "/store-0";
  const auto first = client.submit_and_wait("stored", test_env(), stored);
  ASSERT_TRUE(first.ok) << first.error;
  expect_same_results(stored_reference, first.result);

  std::atomic<bool> long_done{false};
  ServiceClient::SubmitOutcome long_outcome;
  std::thread long_client([&] {
    ServiceClient c;
    std::string e;
    if (c.connect(ts.socket_path, &e)) {
      long_outcome = c.submit_and_wait("unstored", test_env(), unstored);
    } else {
      long_outcome.error = e;
    }
    long_done = true;
  });
  int switches = 0;
  for (; switches < 4 || (!long_done && switches < 200); ++switches) {
    stored.store.dir = dir + "/store-" + std::to_string((switches + 1) % 2);
    const auto outcome = client.submit_and_wait("stored", test_env(), stored);
    if (!outcome.ok) {
      ADD_FAILURE() << outcome.error;  // still join the long client below
      break;
    }
    expect_same_results(stored_reference, outcome.result);
  }
  long_client.join();
  ASSERT_TRUE(long_outcome.ok) << long_outcome.error;
  expect_same_results(unstored_reference, long_outcome.result);
  EXPECT_GT(long_outcome.result.stats.golden_builds, 0);
}

// ---- (g) residency hardening + chaos ----

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

TEST(Service, IdleSessionTtlEvictionKeepsGoldensOnDisk) {
  const std::string dir = fresh_dir("ttl");
  const std::string store_dir = dir + "/store";
  TestServer ts(dir, /*jobs=*/1, [](ServerOptions& o) {
    o.session_idle_ttl_ms = 150;
    o.housekeeping_interval_ms = 25;
  });
  CampaignSpec spec;
  spec.points = small_grid();
  spec.store.dir = store_dir;
  ServiceClient client;
  std::string error;
  ASSERT_TRUE(client.connect(ts.socket_path, &error)) << error;
  const auto outcome = client.submit_and_wait("test", test_env(), spec);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(ts.server->sessions(), 1u);

  // Housekeeping must evict the idle session within a few TTL periods.
  // The cache empties before the stat increments (separate locks), so
  // poll both — checking sessions() alone races the counter update.
  for (int i = 0; i < 200 && (ts.server->sessions() != 0 ||
                              ts.server->stats().sessions_ttl_evicted < 1);
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  EXPECT_EQ(ts.server->sessions(), 0u);
  EXPECT_GE(ts.server->stats().sessions_ttl_evicted, 1);
  // Warmth degraded to the disk tier, not vanished: the job saved its
  // goldens as shards, and an identical resubmission does not rebuild.
  EXPECT_GT(count_shards(store_dir), 0);
  const auto warm = client.submit_and_wait("test", test_env(), spec);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm.result.stats.golden_builds, 0);
  expect_same_results(outcome.result, warm.result);
}

TEST(Service, JobTableGcForgetsOldestTerminalJobs) {
  const std::string dir = fresh_dir("job_gc");
  TestServer ts(dir, /*jobs=*/1, [](ServerOptions& o) {
    o.max_finished_jobs = 2;
  });
  CampaignSpec spec;
  spec.points = small_grid(/*trials=*/1);
  ServiceClient client;
  std::string error;
  ASSERT_TRUE(client.connect(ts.socket_path, &error)) << error;
  std::vector<std::string> ids;
  for (int i = 0; i < 3; ++i) {
    // Distinct specs (different seed) so the submissions are three jobs,
    // not dedup candidates.
    CampaignSpec distinct = spec;
    distinct.points[0].seed = 100 + i;
    std::string id;
    const auto outcome =
        client.submit_and_wait("test", test_env(), distinct, {}, &id);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    ids.push_back(id);
  }
  const auto status_of = [&](const std::string& id) {
    Json request = Json::object();
    request.set("op", Json::str("status"));
    request.set("job", Json::str(id));
    const auto response = client.request(request, &error);
    EXPECT_TRUE(response.has_value()) << error;
    const Json* err = response->find("error");
    return err == nullptr ? std::string() : err->as_string();
  };
  // The GC bound is 2: the oldest terminal job is forgotten, the two
  // youngest stay addressable. The executor retires a job just after the
  // client's done event, so poll briefly.
  bool forgotten = false;
  for (int i = 0; i < 200 && !forgotten; ++i) {
    forgotten = status_of(ids[0]).find("unknown job") != std::string::npos;
    if (!forgotten) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(forgotten);
  EXPECT_EQ(status_of(ids[1]), "");
  EXPECT_EQ(status_of(ids[2]), "");
}

TEST(Service, QueueBoundRejectsWithTypedOverloadedError) {
  const std::string dir = fresh_dir("overload");
  // One executor, one queued job per client; the first build blocks until
  // released so the queue state is deterministic.
  std::atomic<bool> building{false};
  std::atomic<bool> release{false};
  TestServer ts(dir, /*jobs=*/1, [&](ServerOptions& o) {
    o.max_queued_per_client = 1;
    o.env_builder = [&](const ModelEnv& env, Network* net, Dataset* data,
                        std::string* err) {
      building = true;
      while (!release) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      return test_env_builder()(env, net, data, err);
    };
  });
  CampaignSpec spec;
  spec.points = small_grid(/*trials=*/1);

  // Job 1 occupies the executor (blocked inside the session build).
  std::thread first([&] {
    ServiceClient client;
    std::string error;
    ASSERT_TRUE(client.connect(ts.socket_path, &error)) << error;
    const auto outcome = client.submit_and_wait("alice", test_env(), spec);
    EXPECT_TRUE(outcome.ok) << outcome.error;
  });
  for (int i = 0; i < 400 && !building; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(building.load());

  // Job 2 fills alice's queue slot. Distinct seed: dedup must not collapse
  // it onto job 1.
  CampaignSpec queued = spec;
  queued.points[0].seed = 999;
  std::thread second([&] {
    ServiceClient client;
    std::string error;
    ASSERT_TRUE(client.connect(ts.socket_path, &error)) << error;
    const auto outcome = client.submit_and_wait("alice", test_env(), queued);
    EXPECT_TRUE(outcome.ok) << outcome.error;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // Job 3 exceeds the bound: typed rejection, not a transport error and
  // not a hang.
  CampaignSpec excess = spec;
  excess.points[0].seed = 1000;
  ServiceClient client;
  std::string error;
  ASSERT_TRUE(client.connect(ts.socket_path, &error)) << error;
  const auto rejected = client.submit_and_wait("alice", test_env(), excess);
  EXPECT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.error_code, "overloaded");
  EXPECT_FALSE(rejected.transport_error);
  EXPECT_NE(rejected.error.find("overloaded"), std::string::npos)
      << rejected.error;

  release = true;
  first.join();
  second.join();
  EXPECT_GE(ts.server->stats().jobs_rejected, 1);
}

TEST(Service, IdenticalConcurrentSubmissionDedupsOntoTheLiveJob) {
  const std::string dir = fresh_dir("dedup");
  std::atomic<bool> building{false};
  std::atomic<bool> release{false};
  TestServer ts(dir, /*jobs=*/1, [&](ServerOptions& o) {
    o.env_builder = [&](const ModelEnv& env, Network* net, Dataset* data,
                        std::string* err) {
      building = true;
      while (!release) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      return test_env_builder()(env, net, data, err);
    };
  });
  CampaignSpec spec;
  spec.points = small_grid();

  std::string first_id;
  ServiceClient::SubmitOutcome first_outcome;
  std::thread first([&] {
    ServiceClient client;
    std::string error;
    ASSERT_TRUE(client.connect(ts.socket_path, &error)) << error;
    first_outcome =
        client.submit_and_wait("alice", test_env(), spec, {}, &first_id);
  });
  for (int i = 0; i < 400 && !building; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(building.load());

  // An identical (env, spec) submission — a client retrying after a lost
  // connection — lands on the live job instead of executing twice.
  std::string second_id;
  ServiceClient::SubmitOutcome second_outcome;
  std::thread second([&] {
    ServiceClient client;
    std::string error;
    ASSERT_TRUE(client.connect(ts.socket_path, &error)) << error;
    second_outcome =
        client.submit_and_wait("bob", test_env(), spec, {}, &second_id);
  });
  for (int i = 0; i < 400 && ts.server->stats().jobs_deduped == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  release = true;
  first.join();
  second.join();
  ASSERT_TRUE(first_outcome.ok) << first_outcome.error;
  ASSERT_TRUE(second_outcome.ok) << second_outcome.error;
  EXPECT_EQ(first_id, second_id);
  EXPECT_EQ(ts.server->stats().jobs_deduped, 1);
  expect_same_results(first_outcome.result, second_outcome.result);
}

TEST(Service, SubmitWithRetrySurvivesInjectedConnectionDrop) {
  const Fixture f = make_fixture();
  CampaignSpec spec;
  spec.points = small_grid();
  const CampaignResult direct = run_campaign(f.net, f.data, spec);

  const std::string dir = fresh_dir("retry_drop");
  TestServer ts(dir);
  // The first client-side send dies under the message — the submit
  // request never reaches the daemon. submit_with_retry reconnects,
  // resubmits, and completes; the caller sees one successful submission.
  ScopedChaos chaos("5:drop@send:client:*#1");
  ServiceClient client;
  ServiceClient::RetryPolicy policy;
  policy.backoff_ms = 10;
  const auto outcome = client.submit_with_retry(
      ts.socket_path, "test", test_env(), spec, policy);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_GE(outcome.attempts, 2);
  expect_same_results(direct, outcome.result);
  ASSERT_NE(iofault::schedule(), nullptr);
  EXPECT_EQ(iofault::schedule()->injections(), 1);
}

TEST(Service, RetryAfterMidStreamDropDedupsOntoTheRunningJob) {
  const std::string dir = fresh_dir("retry_dedup");
  // The first build blocks until the dedup hit is observed, so the first
  // job is reliably still live when the retry resubmits.
  std::atomic<bool> release{false};
  TestServer ts(dir, /*jobs=*/1, [&](ServerOptions& o) {
    o.env_builder = [&](const ModelEnv& env, Network* net, Dataset* data,
                        std::string* err) {
      while (!release) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      return test_env_builder()(env, net, data, err);
    };
  });
  CampaignSpec spec;
  spec.points = small_grid();
  std::thread releaser([&] {
    for (int i = 0; i < 2000 && ts.server->stats().jobs_deduped == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    release = true;
  });
  // The first response read dies after the submit reached the daemon: the
  // job is live when the retry resubmits, so idempotent-resubmit dedup
  // must land the retry on that job — the campaign executes once.
  ScopedChaos chaos("5:drop@recv:client:*#1");
  ServiceClient client;
  ServiceClient::RetryPolicy policy;
  policy.backoff_ms = 10;
  const auto outcome = client.submit_with_retry(
      ts.socket_path, "test", test_env(), spec, policy);
  releaser.join();
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_GE(outcome.attempts, 2);
  EXPECT_EQ(ts.server->stats().jobs_deduped, 1);
  EXPECT_EQ(ts.server->stats().jobs_submitted, 1);
}

// ---- (g) telemetry: metrics verb + observation-only contract ----

// The daemon's `metrics` verb serves the cross-tier registry in Prometheus
// text exposition, and running it with tracing enabled changes no result
// bit. After a stored submission the exposition must span the pool,
// campaign, golden, store, and service tiers with well over 20 distinct
// series (the acceptance bar).
TEST(Service, MetricsVerbServesCrossTierPrometheusText) {
  const Fixture f = make_fixture();
  CampaignSpec spec;
  spec.points = small_grid();
  spec.threads = 2;  // engage the pool tier even on a 1-core runner
  const CampaignResult direct = run_campaign(f.net, f.data, spec);

  const std::string dir = fresh_dir("metrics_verb");
  const std::string trace_path = dir + "/trace.json";
  telemetry::set_trace_path(trace_path);
  TestServer ts(dir);
  ServiceClient client;
  std::string error;
  ASSERT_TRUE(client.connect(ts.socket_path, &error)) << error;

  CampaignSpec stored = spec;
  stored.store.dir = dir + "/store";
  const auto outcome =
      client.submit_and_wait("test", test_env(), stored);
  telemetry::set_trace_path("");
  ASSERT_TRUE(outcome.ok) << outcome.error;
  expect_same_results(direct, outcome.result);

  Json request = Json::object();
  request.set("op", Json::str("metrics"));
  ServiceClient scrape;
  ASSERT_TRUE(scrape.connect(ts.socket_path, &error)) << error;
  const std::optional<Json> response = scrape.request(request, &error);
  ASSERT_TRUE(response.has_value()) << error;
  const Json* ok = response->find("ok");
  ASSERT_NE(ok, nullptr);
  EXPECT_TRUE(ok->as_bool(false));
  const Json* metrics = response->find("metrics");
  ASSERT_NE(metrics, nullptr);
  const std::string& text = metrics->as_string();

  // One representative series per tier.
  EXPECT_NE(text.find("winofault_pool_jobs_total"), std::string::npos);
  EXPECT_NE(text.find("winofault_campaign_cells_total"), std::string::npos);
  EXPECT_NE(text.find("winofault_golden_builds_total"), std::string::npos);
  EXPECT_NE(text.find("winofault_store_journal_appends_total"),
            std::string::npos);
  EXPECT_NE(text.find("winofault_service_jobs_submitted_total"),
            std::string::npos);
  EXPECT_NE(text.find("winofault_service_queue_latency_us"),
            std::string::npos);
  EXPECT_NE(text.find("winofault_service_jobs_queued"), std::string::npos);
  EXPECT_NE(text.find("winofault_service_sessions_active"),
            std::string::npos);

  // Distinct series = non-comment exposition lines.
  std::size_t series_lines = 0;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    if (end > start && text[start] != '#') ++series_lines;
    start = end + 1;
  }
  EXPECT_GE(series_lines, 20u);
}

TEST(Service, HistoryVerbServesSampledTimeSeries) {
  const std::string dir = fresh_dir("history_verb");
  TestServer ts(dir, 1, [](ServerOptions& options) {
    options.history_depth = 8;
    options.history_interval_s = 1;
  });
  ServiceClient client;
  std::string error;
  ASSERT_TRUE(client.connect(ts.socket_path, &error)) << error;

  // One real submission so the sampled series carry daemon activity.
  CampaignSpec spec;
  spec.points = small_grid();
  spec.threads = 1;
  const auto outcome = client.submit_and_wait("test", test_env(), spec);
  ASSERT_TRUE(outcome.ok) << outcome.error;

  // The sampler records its first snapshot at startup, so at least one
  // sample exists no matter how fast the test ran.
  Json request = Json::object();
  request.set("op", Json::str("history"));
  request.set("last", Json::integer(4));
  request.set("prefix", Json::str("winofault_service_"));
  ServiceClient scrape;
  ASSERT_TRUE(scrape.connect(ts.socket_path, &error)) << error;
  const std::optional<Json> response = scrape.request(request, &error);
  ASSERT_TRUE(response.has_value()) << error;
  const Json* ok = response->find("ok");
  ASSERT_NE(ok, nullptr);
  EXPECT_TRUE(ok->as_bool(false));
  EXPECT_EQ(response->find("interval_s")->as_int(), 1);
  EXPECT_EQ(response->find("depth")->as_int(), 8);
  EXPECT_GE(response->find("recorded")->as_int(), 1);

  const Json* samples = response->find("samples");
  ASSERT_NE(samples, nullptr);
  ASSERT_TRUE(samples->is_array());
  ASSERT_GE(samples->elements().size(), 1u);
  ASSERT_LE(samples->elements().size(), 4u);
  for (const Json& sample : samples->elements()) {
    EXPECT_GE(sample.find("t_us")->as_int(), 0);
    EXPECT_GT(sample.find("wall_ms")->as_int(), 0);
    const Json* series = sample.find("series");
    ASSERT_NE(series, nullptr);
    ASSERT_TRUE(series->is_object());
    // The prefix filter held: every key is a service-tier series.
    for (const auto& [key, value] : series->members()) {
      EXPECT_EQ(key.rfind("winofault_service_", 0), 0u) << key;
    }
    // Scrape gauges refresh before each sample, so the queue-depth gauge
    // exists from the very first snapshot.
    EXPECT_NE(series->find("winofault_service_jobs_queued"), nullptr);
  }
}

}  // namespace
}  // namespace winofault
