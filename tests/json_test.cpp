// Seeded mutation test of the JSON codec (common/json), the parser that
// reads daemon socket requests:
//   (a) no mutant of a real document — byte flips, truncations, splices,
//       deep nesting — crashes the parser (the sanitizer builds run this
//       suite, so memory errors and UB count as crashes);
//   (b) every accepted input x is a fixed point after one round trip:
//       parse(dump(parse(x))) dumps to the same bytes as parse(x);
//   (c) nesting past the parser's depth limit is rejected without
//       recursing further, however deep the input goes.
// The mutation stream comes from a fixed seed and a fixed budget, so every
// run checks the same inputs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "common/telemetry/events.h"
#include "common/telemetry/telemetry.h"
#include "core/service/protocol.h"
#include "test_util.h"

namespace winofault {
namespace {

// The parser's nesting limit: a value nested this deep parses, one level
// deeper is rejected.
constexpr int kMaxDepth = 64;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

// One document of each kind the codec reads or writes: a campaign spec as
// a client submits it, an event-log line, a trace file and a `history`
// reply.
std::vector<std::string> seed_documents() {
  std::vector<std::string> docs;

  CampaignSpec spec;
  spec.threads = 3;
  spec.store.dir = "/tmp/store \"quoted\"\n\tctrl\x01";
  spec.store.cell_budget = 7;
  CampaignPoint point;
  point.fault.ber = 1e-6;
  point.fault.fault_free_layer = 2;
  point.fault.protection[1] = ProtectionSet(0.25, 0.5);
  point.fault.model = *FaultModelSpec::parse("stuck1(0.01)@weight#perm");
  point.seed = 0xfedcba9876543210ULL;
  point.trials = 4;
  spec.points.push_back(point);
  point.fault.model = FaultModelSpec{};
  point.policy = ConvPolicy::kWinograd2;
  spec.points.push_back(point);
  docs.push_back(encode_campaign_spec(spec).dump());

  const std::string events = ::testing::TempDir() + "winofault_json_events";
  std::remove(events.c_str());
  telemetry::set_events_path(events);
  telemetry::emit_event("chaos_injected",
                        {{"fault", "torn"}, {"op", "write"},
                         {"path", "/s/campaign_ab.journal"}},
                        {{"rule", 0}, {"match", 2}, {"arg", -13}});
  telemetry::set_events_path("");
  docs.push_back(read_file(events));
  std::remove(events.c_str());

  const std::string trace = ::testing::TempDir() + "winofault_json_trace";
  telemetry::set_trace_path(trace);
  {
    telemetry::TraceSpan outer("campaign_run", "campaign");
    telemetry::TraceSpan inner("cell_replay", "campaign");
  }
  telemetry::flush_trace();
  telemetry::set_trace_path("");
  telemetry::flush_trace();
  docs.push_back(read_file(trace));
  std::remove(trace.c_str());

  docs.push_back(
      "{\"ok\":true,\"interval_s\":5,\"depth\":120,\"recorded\":37,"
      "\"samples\":[{\"t_us\":12345678,\"wall_ms\":1722445566778,\"series\":"
      "{\"winofault_service_jobs_queued\":0,"
      "\"winofault_service_queue_latency_us\":{\"count\":3,\"sum\":4500,"
      "\"p50\":1024,\"p95\":2867.1999999999998,\"p99\":3993.6}}},"
      "{\"t_us\":17345678,\"wall_ms\":1722445571778,\"series\":{}}]}");
  return docs;
}

std::string nest(const std::string& doc, int depth) {
  return std::string(depth, '[') + doc + std::string(depth, ']');
}

// Property (b); returns false (after recording the failure) when `text`
// is accepted but not a fixed point.
bool round_trips(const std::string& text) {
  const std::optional<Json> first = Json::parse(text);
  if (!first.has_value()) return true;
  const std::string dumped = first->dump();
  const std::optional<Json> second = Json::parse(dumped);
  EXPECT_TRUE(second.has_value()) << "input: " << text << "\ndump: " << dumped;
  if (!second.has_value()) return false;
  EXPECT_EQ(second->dump(), dumped) << "input: " << text;
  return second->dump() == dumped;
}

TEST(JsonParse, SeedDocumentsParseAndRoundTrip) {
  for (const std::string& doc : seed_documents()) {
    ASSERT_TRUE(Json::parse(doc).has_value()) << doc;
    EXPECT_TRUE(round_trips(doc));
  }
}

TEST(JsonParse, NumberEdgeCasesRoundTrip) {
  const char* cases[] = {
      "-0",    "-0.0",  "-0e5",  "0.0",  "-1e-400", "1e999", "-1e999",
      "01",    "1.",    "1E2",   "0.1",  "18446744073709551615",
      "18446744073709551616", "-9223372036854775808",
      "-9223372036854775809", "123456789012345678901234567890",
  };
  for (const char* text : cases) {
    EXPECT_TRUE(Json::parse(text).has_value()) << text;
    EXPECT_TRUE(round_trips(text)) << text;
  }
}

TEST(JsonRead, DoublesOutsideTheIntegerTypeReadAsTheFallback) {
  for (const char* text : {"1e300", "-1e300", "1e20"}) {
    const std::optional<Json> json = Json::parse(text);
    ASSERT_TRUE(json.has_value()) << text;
    EXPECT_EQ(json->as_int(-7), -7) << text;
    EXPECT_EQ(json->as_uint(7), 7u) << text;
  }
  EXPECT_EQ(Json::number(NAN).as_int(-7), -7);
  EXPECT_EQ(Json::number(NAN).as_uint(7), 7u);
  // The edges of each type: 2^63 and 2^64 are the first values past them.
  EXPECT_EQ(Json::number(0x1p63).as_int(-7), -7);
  EXPECT_EQ(Json::number(-0x1p63).as_int(-7), INT64_MIN);
  EXPECT_EQ(Json::number(0x1p63).as_uint(7), 0x8000000000000000ULL);
  EXPECT_EQ(Json::number(0x1p64).as_uint(7), 7u);
  EXPECT_EQ(Json::number(1e19).as_int(-7), -7);
  EXPECT_EQ(Json::number(1e19).as_uint(7), 10000000000000000000ULL);
  // In range, a fraction still truncates toward zero; no negative is a
  // uint.
  EXPECT_EQ(Json::number(2.5).as_int(-7), 2);
  EXPECT_EQ(Json::number(-2.5).as_int(-7), -2);
  EXPECT_EQ(Json::number(2.5).as_uint(7), 2u);
  EXPECT_EQ(Json::number(-2.5).as_uint(7), 7u);
}

TEST(JsonParse, DepthLimitRejectsWithoutRecursing) {
  EXPECT_TRUE(Json::parse(nest("1", kMaxDepth)).has_value());
  EXPECT_FALSE(Json::parse(nest("1", kMaxDepth + 1)).has_value());
  EXPECT_FALSE(Json::parse(nest("{}", kMaxDepth + 1)).has_value());
  // Far deeper than any stack could recurse: rejected at the limit.
  EXPECT_FALSE(Json::parse(nest("1", 1 << 20)).has_value());
  EXPECT_FALSE(Json::parse(std::string(1 << 20, '[')).has_value());
  std::string objects;
  for (int i = 0; i < (1 << 18); ++i) objects += "{\"k\":";
  EXPECT_FALSE(Json::parse(objects).has_value());
}

TEST(JsonParse, SeededMutantsNeverCrashAndAcceptedOnesRoundTrip) {
  const std::vector<std::string> seeds = seed_documents();
  constexpr int kMutantsPerSeed = 5000;
  Rng rng(20241017);
  int accepted = 0;
  int failures = 0;
  for (const std::string& seed : seeds) {
    for (int m = 0; m < kMutantsPerSeed && failures < 10; ++m) {
      // Byte flips, truncations and splices, plus deep nesting around the
      // limit.
      const std::uint64_t kind = rng.next_below(4);
      const std::string text =
          kind == 3 ? nest(seed, static_cast<int>(
                                     rng.next_below(2 * kMaxDepth)) + 1)
                    : testing::mutate_bytes(seed, kind, seeds, rng);
      if (Json::parse(text).has_value()) ++accepted;
      if (!round_trips(text)) ++failures;
    }
  }
  EXPECT_EQ(failures, 0);
  // The budget is only meaningful if mutants reach both outcomes.
  EXPECT_GT(accepted, 1000);
  EXPECT_LT(accepted, static_cast<int>(seeds.size()) * kMutantsPerSeed);
}

}  // namespace
}  // namespace winofault
