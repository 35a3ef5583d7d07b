// Deterministic fault-injection shim (common/iofault):
//   (a) the schedule grammar parses the documented forms and rejects every
//       malformed spec with a diagnostic (a typo must never silently run an
//       un-chaosed campaign), and seeded mutants of the documented forms
//       never crash the parser;
//   (b) triggers (#N, #N+, #pP) fire as pure functions of the per-rule
//       match ordinal: two schedules parsed from the same spec produce
//       bit-identical injection logs over the same op stream, and the same
//       chaos_injected events in the event log;
//   (c) the checked_* shims inject real observable faults — torn writes
//       truncate at the byte offset, flips corrupt exactly one bit of a
//       read — and pass through untouched when no schedule is installed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "common/iofault/iofault.h"
#include "common/json.h"
#include "common/telemetry/events.h"
#include "test_util.h"

namespace winofault::iofault {
namespace {

namespace fs = std::filesystem;

// Installs a schedule for the duration of one test and always clears it,
// so a failing assertion cannot leak chaos into later tests.
class ScopedSchedule {
 public:
  explicit ScopedSchedule(const std::string& spec) {
    std::string error;
    std::optional<FaultSchedule> parsed = FaultSchedule::parse(spec, &error);
    EXPECT_TRUE(parsed.has_value()) << error;
    set_schedule(std::move(parsed));
  }
  ~ScopedSchedule() { set_schedule(std::nullopt); }
};

std::string temp_file(const std::string& name) {
  const std::string path = ::testing::TempDir() + "winofault_iofault_" + name;
  fs::remove(path);
  return path;
}

// ---- (a) grammar ----

// The documented forms: AcceptsDocumentedForms and the seeds of the
// mutation pass.
const char* const kDocumentedForms[] = {
    "7:torn(13)@write:*.journal#2",
    "0:eio@read#1;drop@send:client:*#3+",
    "42:flip(5)@recv#p0.25",
    "1:enospc@any#1+",
};

TEST(IofaultParse, AcceptsDocumentedForms) {
  for (const char* spec : kDocumentedForms) {
    std::string error;
    EXPECT_TRUE(FaultSchedule::parse(spec, &error).has_value()) << error;
  }
}

TEST(IofaultParse, RejectsMalformedSpecsWithDiagnostics) {
  const char* bad[] = {
      "",                        // empty
      "eio@write#1",             // missing seed
      "x:eio@write#1",           // non-integer seed
      "12x:eio@write#1",         // seed digits, then junk
      "1:eio#1",                 // missing @opclass
      "1:eio@write",             // missing #trigger
      "1:zap@write#1",           // unknown fault
      "1:eio@teleport#1",        // unknown op class
      "1:eio@write#0",           // trigger below 1
      "1:eio@write#p1.5",        // probability out of range
      "7:eio@read#p",            // probability with no number
      "7:eio@read#pnan",         // non-finite probability
      "1:torn(4)@read#1",        // torn cannot fire on reads
      "1:flip@write#1",          // flip cannot fire on writes
      "1:drop@write#1",          // drop is socket-only
      "1:eio@write#1;;eio@read#1",  // empty rule
      "1:torn(x)@write#1",       // non-integer arg
  };
  for (const char* spec : bad) {
    std::string error;
    EXPECT_FALSE(FaultSchedule::parse(spec, &error).has_value())
        << "accepted: " << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
}

// Every op class against paths the documented forms' globs match and
// miss, three rounds over, so #N, #N+ and #p triggers all see repeated
// matches; returns the decision for each op in order.
std::vector<Decision> decide_fixed_stream(FaultSchedule& schedule) {
  const OpClass ops[] = {OpClass::kWrite, OpClass::kRead,  OpClass::kRename,
                         OpClass::kLink,  OpClass::kFsync, OpClass::kSend,
                         OpClass::kRecv,  OpClass::kConnect};
  const char* paths[] = {"/s/campaign_ab.journal", "/s/golden_3.shard",
                         "client:/tmp/wf.sock", "b3.claim"};
  std::vector<Decision> decisions;
  for (int round = 0; round < 3; ++round) {
    for (const OpClass op : ops) {
      for (const char* path : paths) {
        decisions.push_back(schedule.decide(op, path));
      }
    }
  }
  return decisions;
}

// Seeded mutation pass over the schedule parser, which reads
// WINOFAULT_CHAOS: byte flips, truncations and splices of the documented
// forms, from a fixed seed and a fixed budget. No mutant crashes the
// parser (the sanitizer builds run this suite), every rejected one carries
// a diagnostic, and every accepted one parses again, from its spec(), to
// a schedule that makes the same decisions over a fixed op stream.
TEST(IofaultParse, SeededMutantsNeverCrashAndAcceptedOnesReplay) {
  const std::vector<std::string> seeds(std::begin(kDocumentedForms),
                                       std::end(kDocumentedForms));
  constexpr int kMutantsPerSeed = 3000;
  Rng rng(20261017);
  int accepted = 0;
  int failures = 0;
  for (const std::string& seed : seeds) {
    for (int m = 0; m < kMutantsPerSeed && failures < 10; ++m) {
      const std::string text =
          testing::mutate_bytes(seed, rng.next_below(3), seeds, rng);
      std::string error;
      std::optional<FaultSchedule> first = FaultSchedule::parse(text, &error);
      if (!first.has_value()) {
        EXPECT_FALSE(error.empty()) << "rejected without a diagnostic: "
                                    << text;
        failures += error.empty();
        continue;
      }
      ++accepted;
      std::optional<FaultSchedule> again =
          FaultSchedule::parse(first->spec(), &error);
      bool same = again.has_value();
      if (same) {
        const std::vector<Decision> a = decide_fixed_stream(*first);
        const std::vector<Decision> b = decide_fixed_stream(*again);
        for (std::size_t i = 0; i < a.size() && same; ++i) {
          same = a[i].fault == b[i].fault && a[i].arg == b[i].arg;
        }
      }
      EXPECT_TRUE(same) << "input: " << text << "\nerror: " << error;
      failures += !same;
    }
  }
  EXPECT_EQ(failures, 0);
  // The budget is only meaningful if mutants reach both outcomes.
  EXPECT_GT(accepted, 500);
  EXPECT_LT(accepted, static_cast<int>(seeds.size()) * kMutantsPerSeed / 2);
}

TEST(IofaultGlob, MatchesPathOrBasename) {
  EXPECT_TRUE(glob_match("*.journal", "/a/b/campaign_12.journal"));
  EXPECT_TRUE(glob_match("campaign_*.seg", "/x/campaign_ab.w0.seg"));
  EXPECT_FALSE(glob_match("*.shard", "/a/b/campaign_12.journal"));
  EXPECT_TRUE(glob_match("b?.claim", "b3.claim"));
  EXPECT_FALSE(glob_match("b?.claim", "b31.claim"));
  EXPECT_TRUE(glob_match("client:*", "client:/tmp/wf.sock"));
  EXPECT_TRUE(glob_match("*", "anything/at/all"));
}

// ---- (b) trigger determinism ----

// The spec and op stream the two replay tests below drive.
const std::string kReplaySpec =
    "9:eio@read:*.shard#p0.5;torn(8)@write:*.journal#2;slow(3)@any#p0.1";
const struct {
  OpClass op;
  const char* path;
} kReplayStream[] = {
    {OpClass::kRead, "g1.shard"},  {OpClass::kWrite, "c.journal"},
    {OpClass::kRead, "g2.shard"},  {OpClass::kWrite, "c.journal"},
    {OpClass::kFsync, "c.journal"}, {OpClass::kRead, "g1.shard"},
    {OpClass::kWrite, "c.journal"}, {OpClass::kRead, "g3.shard"},
};

TEST(IofaultTrigger, NthFiresExactlyOnce) {
  std::string error;
  auto schedule = FaultSchedule::parse("3:eio@write:*.x#2", &error);
  ASSERT_TRUE(schedule.has_value()) << error;
  EXPECT_EQ(schedule->decide(OpClass::kWrite, "a.x").fault, Fault::kNone);
  EXPECT_EQ(schedule->decide(OpClass::kRead, "a.x").fault,
            Fault::kNone);  // op class mismatch: not even a match
  EXPECT_EQ(schedule->decide(OpClass::kWrite, "a.y").fault,
            Fault::kNone);  // glob mismatch: not a match
  EXPECT_EQ(schedule->decide(OpClass::kWrite, "a.x").fault, Fault::kEio);
  EXPECT_EQ(schedule->decide(OpClass::kWrite, "a.x").fault, Fault::kNone);
  EXPECT_EQ(schedule->injections(), 1);
}

TEST(IofaultTrigger, FromNthFiresEveryMatchOnward) {
  std::string error;
  auto schedule = FaultSchedule::parse("3:enospc@write#3+", &error);
  ASSERT_TRUE(schedule.has_value()) << error;
  int fired = 0;
  for (int i = 0; i < 6; ++i) {
    if (schedule->decide(OpClass::kWrite, "f").fault != Fault::kNone) ++fired;
  }
  EXPECT_EQ(fired, 4);  // matches 3,4,5,6
}

TEST(IofaultTrigger, SameSpecSameOpStreamSameInjectionLog) {
  // Probability triggers included: the per-rule RNG is forked from
  // (seed, rule index), so replaying the spec over the same op stream
  // reproduces the injection sequence bit-for-bit. This is the
  // determinism contract CI's chaos smoke relies on.
  std::string error;
  auto a = FaultSchedule::parse(kReplaySpec, &error);
  auto b = FaultSchedule::parse(kReplaySpec, &error);
  ASSERT_TRUE(a.has_value() && b.has_value()) << error;
  for (const auto& op : kReplayStream) {
    const Decision da = a->decide(op.op, op.path);
    const Decision db = b->decide(op.op, op.path);
    EXPECT_EQ(da.fault, db.fault);
    EXPECT_EQ(da.arg, db.arg);
  }
  EXPECT_EQ(a->log_text(), b->log_text());
  EXPECT_GT(a->injections(), 0);  // the torn #2 rule fired at least
}

// The event log is the on-disk injection record: two runs of one schedule
// over one op stream leave the same (rule, match, fault, op, arg) sequence
// of chaos_injected events, and each run's sequence is its in-memory log.
TEST(IofaultTrigger, SameSpecSameOpStreamSameChaosEvents) {
  const std::string events = temp_file("events.ndjson");
  telemetry::set_events_path(events);
  std::vector<std::string> logged;
  for (int run = 0; run < 2; ++run) {
    std::string error;
    auto schedule = FaultSchedule::parse(kReplaySpec, &error);
    ASSERT_TRUE(schedule.has_value()) << error;
    for (const auto& op : kReplayStream) schedule->decide(op.op, op.path);
    for (const Injection& i : schedule->log()) {
      logged.push_back(std::to_string(i.rule) + " " +
                       std::to_string(i.match) + " " + fault_name(i.fault) +
                       " " + op_class_name(i.op) + " " +
                       std::to_string(i.arg));
    }
  }
  telemetry::set_events_path("");

  std::vector<std::string> recorded;
  std::ifstream in(events);
  for (std::string line; std::getline(in, line);) {
    const std::optional<Json> e = Json::parse(line);
    ASSERT_TRUE(e.has_value()) << line;
    ASSERT_EQ(e->find("event")->as_string(), "chaos_injected");
    ASSERT_NE(e->find("arg"), nullptr) << line;
    recorded.push_back(std::to_string(e->find("rule")->as_int()) + " " +
                       std::to_string(e->find("match")->as_int()) + " " +
                       e->find("fault")->as_string() + " " +
                       e->find("op")->as_string() + " " +
                       std::to_string(e->find("arg")->as_int()));
  }
  fs::remove(events);
  EXPECT_EQ(recorded, logged);
  ASSERT_EQ(recorded.size() % 2, 0u);
  const std::size_t half = recorded.size() / 2;
  EXPECT_GT(half, 0u);
  EXPECT_TRUE(std::equal(recorded.begin(), recorded.begin() + half,
                         recorded.begin() + half));
  EXPECT_NE(std::find(recorded.begin(), recorded.end(), "1 2 torn write 8"),
            recorded.end());
}

// ---- (c) shim behavior ----

TEST(IofaultShim, PassThroughWithoutSchedule) {
  set_schedule(std::nullopt);
  const std::string path = temp_file("pass");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(checked_fwrite("hello", 5, f, path), 5u);
  EXPECT_TRUE(checked_fsync(f, path));
  std::fclose(f);
  f = std::fopen(path.c_str(), "rb");
  char buf[8] = {};
  EXPECT_EQ(checked_fread(buf, 5, f, path), 5u);
  std::fclose(f);
  EXPECT_STREQ(buf, "hello");
  fs::remove(path);
}

TEST(IofaultShim, TornWriteCutsAtByteOffsetAndFailsWithEio) {
  const std::string path = temp_file("torn");
  ScopedSchedule chaos("1:torn(4)@write:*torn*#1");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  errno = 0;
  const std::size_t wrote = checked_fwrite("0123456789", 10, f, path);
  EXPECT_EQ(wrote, 4u);
  EXPECT_EQ(errno, EIO);
  std::fclose(f);
  EXPECT_EQ(fs::file_size(path), 4u);  // the torn prefix reached the file
  fs::remove(path);
}

TEST(IofaultShim, ShortWriteStopsHalfWay) {
  const std::string path = temp_file("short");
  ScopedSchedule chaos("1:short@write:*short*#1");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(checked_fwrite("0123456789", 10, f, path), 5u);
  std::fclose(f);
  fs::remove(path);
}

TEST(IofaultShim, EnospcWriteFailsWithEnospc) {
  const std::string path = temp_file("enospc");
  ScopedSchedule chaos("1:enospc@write:*enospc*#1");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  errno = 0;
  EXPECT_EQ(checked_fwrite("0123456789", 10, f, path), 0u);
  EXPECT_EQ(errno, ENOSPC);
  std::fclose(f);
  fs::remove(path);
}

TEST(IofaultShim, FlipCorruptsExactlyOneBitOfRead) {
  const std::string path = temp_file("flip");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite("0123456789", 1, 10, f), 10u);
    std::fclose(f);
  }
  ScopedSchedule chaos("1:flip(11)@read:*flip*#1");
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[10] = {};
  EXPECT_EQ(checked_fread(buf, 10, f, path), 10u);
  std::fclose(f);
  int differing_bits = 0;
  const char* expect = "0123456789";
  for (int i = 0; i < 10; ++i) {
    unsigned char delta =
        static_cast<unsigned char>(buf[i]) ^ static_cast<unsigned char>(expect[i]);
    while (delta != 0) {
      differing_bits += delta & 1;
      delta >>= 1;
    }
  }
  EXPECT_EQ(differing_bits, 1);
  fs::remove(path);
}

TEST(IofaultShim, InjectedRenameFailureSetsErrorCode) {
  const std::string from = temp_file("ren_from");
  const std::string to = temp_file("ren_to");
  {
    std::FILE* f = std::fopen(from.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
  }
  ScopedSchedule chaos("1:eio@rename:*ren_to*#1");
  std::error_code ec;
  checked_rename(from, to, ec);
  EXPECT_TRUE(ec);
  EXPECT_TRUE(fs::exists(from));  // nothing moved
  EXPECT_FALSE(fs::exists(to));
  fs::remove(from);
}

TEST(IofaultShim, InjectionLogRendersRuleMatchFaultOpArg) {
  ScopedSchedule chaos("5:eio@write:*logfmt*#1");
  const std::string path = temp_file("logfmt");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  checked_fwrite("x", 1, f, path);
  std::fclose(f);
  FaultSchedule* s = schedule();
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->log_text(/*with_paths=*/false),
            "rule=0 match=1 fault=eio op=write arg=0\n");
  EXPECT_NE(s->log_text().find("path="), std::string::npos);
  fs::remove(path);
}

}  // namespace
}  // namespace winofault::iofault
