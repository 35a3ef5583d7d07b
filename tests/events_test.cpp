// Structured event-log guarantees (common/telemetry/events):
//   (a) every emitted line is one valid JSON object carrying the envelope
//       keys (ts_ms, pid, event) plus the caller's fields in order;
//   (b) string fields are escaped so hostile values (quotes, newlines,
//       control bytes) can never break the NDJSON framing;
//   (c) the recorder toggles cleanly: disabled means no file and no
//       events_enabled() cost path, re-enabling appends to the same log;
//   (d) enabling the recorder never perturbs computation — it is
//       observation-only by construction (nothing reads events back).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/telemetry/events.h"

namespace winofault {
namespace {

namespace fs = std::filesystem;

class EventsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "winofault_events_test.ndjson";
    fs::remove(path_);
    telemetry::set_events_path(path_);
  }
  void TearDown() override {
    telemetry::set_events_path("");
    fs::remove(path_);
  }

  std::vector<std::string> lines() const {
    std::vector<std::string> out;
    std::ifstream in(path_);
    for (std::string line; std::getline(in, line);) out.push_back(line);
    return out;
  }

  std::string path_;
};

TEST_F(EventsTest, LinesAreValidJsonWithEnvelopeAndFields) {
  ASSERT_TRUE(telemetry::events_enabled());
  telemetry::emit_event("job_submitted",
                        {{"job", "j-1"}, {"client", "cli"}});
  telemetry::emit_event("chaos_injected", {{"fault", "torn_write"}},
                        {{"rule", 2}, {"match", 5}});
  telemetry::emit_event("job_done", {{"job", "j-1"}});

  const std::vector<std::string> all = lines();
  ASSERT_EQ(all.size(), 3u);
  const char* expected_types[] = {"job_submitted", "chaos_injected",
                                  "job_done"};
  for (std::size_t i = 0; i < all.size(); ++i) {
    const std::optional<Json> doc = Json::parse(all[i]);
    ASSERT_TRUE(doc.has_value()) << "line " << i << ": " << all[i];
    ASSERT_TRUE(doc->is_object());
    const Json* ts = doc->find("ts_ms");
    const Json* pid = doc->find("pid");
    const Json* event = doc->find("event");
    ASSERT_NE(ts, nullptr);
    ASSERT_NE(pid, nullptr);
    ASSERT_NE(event, nullptr);
    EXPECT_GT(ts->as_int(), 0);
    EXPECT_GT(pid->as_int(), 0);
    EXPECT_EQ(event->as_string(), expected_types[i]);
  }
  const std::optional<Json> chaos = Json::parse(all[1]);
  ASSERT_TRUE(chaos.has_value());
  EXPECT_EQ(chaos->find("fault")->as_string(), "torn_write");
  EXPECT_EQ(chaos->find("rule")->as_int(), 2);
  EXPECT_EQ(chaos->find("match")->as_int(), 5);
}

TEST_F(EventsTest, HostileStringValuesNeverBreakFraming) {
  telemetry::emit_event(
      "session_evicted",
      {{"env", "quote\" backslash\\ newline\n tab\t ctrl\x01 end"}});
  telemetry::emit_event("job_done", {{"job", "j-2"}});
  const std::vector<std::string> all = lines();
  ASSERT_EQ(all.size(), 2u);  // the embedded newline was escaped, not raw
  // The exact bytes after the ts_ms and pid members.
  EXPECT_EQ(all[0].substr(all[0].find(",\"event\"")),
            ",\"event\":\"session_evicted\",\"env\":\"quote\\\" backslash\\\\ "
            "newline\\n tab\\t ctrl\\u0001 end\"}");
  const std::optional<Json> doc = Json::parse(all[0]);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("env")->as_string(),
            "quote\" backslash\\ newline\n tab\t ctrl\x01 end");
  EXPECT_TRUE(Json::parse(all[1]).has_value());
}

TEST_F(EventsTest, DisabledRecorderEmitsNothingReEnableAppends) {
  telemetry::emit_event("job_done", {{"job", "j-a"}});
  ASSERT_EQ(lines().size(), 1u);

  telemetry::set_events_path("");
  EXPECT_FALSE(telemetry::events_enabled());
  telemetry::emit_event("job_done", {{"job", "dropped"}});
  EXPECT_EQ(lines().size(), 1u);

  // Re-enabling appends — a daemon restart keeps the log's history.
  telemetry::set_events_path(path_);
  telemetry::emit_event("job_done", {{"job", "j-b"}});
  const std::vector<std::string> all = lines();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(Json::parse(all[0])->find("job")->as_string(), "j-a");
  EXPECT_EQ(Json::parse(all[1])->find("job")->as_string(), "j-b");
}

TEST_F(EventsTest, EventWithNoExtraFieldsIsStillAnObject) {
  telemetry::emit_event("drain_requested");
  const std::vector<std::string> all = lines();
  ASSERT_EQ(all.size(), 1u);
  const std::optional<Json> doc = Json::parse(all[0]);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("event")->as_string(), "drain_requested");
}

}  // namespace
}  // namespace winofault
