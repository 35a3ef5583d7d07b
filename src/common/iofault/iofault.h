// Deterministic IO/infrastructure fault injection for the store, dist,
// and service layers. Every file and socket operation of those layers
// routes through the checked_* shims below; a seeded FaultSchedule
// (WINOFAULT_CHAOS=seed:spec) decides, per operation, whether to inject a
// fault — short write, EIO, ENOSPC, torn write at a byte offset, read
// bit-flip, slow IO, connection drop — so every chaos run is reproducible
// and every observed failure is a replayable test case.
//
// Schedule spec grammar (see README.md in this directory):
//
//   WINOFAULT_CHAOS = seed ":" rule (";" rule)*
//   rule            = fault [ "(" int ")" ] "@" opclass [ ":" glob ]
//                     "#" trigger
//   fault           = eio | enospc | short | torn | flip | slow | drop
//   opclass         = write | read | rename | link | fsync | send | recv
//                   | connect | any
//   trigger         = N        exactly the Nth matching op (1-based)
//                   | N "+"    every matching op from the Nth on
//                   | "p" P    each matching op with probability P
//
// Example:
//   WINOFAULT_CHAOS="7:torn(13)@write:*.journal#2;eio@read:*.shard#1"
//
// Determinism contract: each rule owns an independent match counter and an
// RNG forked from (schedule seed, rule index), so the decision for the Nth
// op matching a rule is a pure function of (seed, spec, N). Whenever the
// matching op stream itself is deterministic (journal appends of one file,
// client connects to one socket), the injection log is bit-reproducible;
// rules matching thread-interleaved streams (concurrent golden-shard
// spills) fire at deterministic per-rule ordinals but may land on
// different paths run-to-run — pin the glob to one file when exact replay
// matters.
//
// When no schedule is installed every shim is a direct pass-through to the
// raw call — the store/dist/service hot paths pay one atomic load.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include <sys/types.h>

#include "common/rng.h"

namespace winofault::iofault {

enum class OpClass {
  kWrite,    // file data writes (journal records, shard payloads, claims)
  kRead,     // file data reads (journal/segment records, shard payloads)
  kRename,   // atomic publication / steal takeover renames
  kLink,     // claim-board link(2) commits
  kFsync,    // durability barriers before renames / segment retirement
  kSend,     // socket writes (daemon responses, client requests)
  kRecv,     // socket reads
  kConnect,  // client connection establishment
  kAny,      // rule wildcard: matches every op class
};

enum class Fault {
  kNone,
  kShortWrite,  // write stops half way; errno EIO
  kEio,         // op fails outright; errno EIO
  kEnospc,      // write fails; errno ENOSPC (store degrades to no-spill)
  kTorn,        // write cut at byte offset `arg`, then fails; errno EIO
  kFlip,        // read succeeds with bit `arg` of the buffer flipped
  kSlow,        // op delayed `arg` ms, then proceeds normally
  kDrop,        // socket op fails; errno ECONNRESET (connect: ECONNREFUSED)
};

const char* op_class_name(OpClass op);
const char* fault_name(Fault fault);

// One fired rule — the injection-log record.
struct Injection {
  int rule = 0;            // rule index within the spec (0-based)
  std::int64_t match = 0;  // which match of that rule fired (1-based)
  Fault fault = Fault::kNone;
  OpClass op = OpClass::kAny;
  std::int64_t arg = 0;    // torn cut offset / flip bit / slow ms
  std::string path;        // target path or socket tag
};

// The fault (if any) a schedule chose for one operation.
struct Decision {
  Fault fault = Fault::kNone;
  std::int64_t arg = 0;
};

class FaultSchedule {
 public:
  // Parses "seed:rule;rule;..."; nullopt + `error` on any grammar
  // violation (a typo must never silently run an un-chaosed campaign that
  // CI then trusts as a chaos pass).
  static std::optional<FaultSchedule> parse(const std::string& spec,
                                            std::string* error);

  // Movable (parse returns by value; the mutex is not moved — a schedule
  // is only moved before it is shared across threads).
  FaultSchedule(FaultSchedule&& other) noexcept;
  FaultSchedule& operator=(FaultSchedule&& other) noexcept;

  // Decides the fault for one operation. Thread-safe. First matching rule
  // wins; a fired rule is recorded in the injection log.
  Decision decide(OpClass op, const std::string& path);

  // Injections fired so far, in firing order.
  std::vector<Injection> log() const;

  // Canonical log rendering, one "rule=I match=N fault=F op=C arg=A
  // path=P" line per injection. `with_paths=false` omits the path field —
  // the stable form to compare when a rule's glob spans thread-interleaved
  // files (per-rule ordinals are deterministic; landing paths need not
  // be).
  std::string log_text(bool with_paths = true) const;

  std::int64_t injections() const;
  const std::string& spec() const { return spec_; }

 private:
  FaultSchedule() = default;  // parse() is the only construction path

  enum class TriggerKind { kNth, kFromNth, kProbability };

  struct Rule {
    Fault fault = Fault::kNone;
    std::int64_t arg = 0;
    OpClass op = OpClass::kAny;
    std::string glob;  // empty: every path matches
    TriggerKind trigger = TriggerKind::kNth;
    std::int64_t nth = 1;
    double probability = 0.0;
    Rng rng{0};               // probability draws (forked from seed, index)
    std::int64_t matches = 0; // ops matched so far
  };

  std::string spec_;
  std::uint64_t seed_ = 0;
  mutable std::mutex mu_;  // guards rules_ counters/rngs and log_
  std::vector<Rule> rules_;
  std::vector<Injection> log_;
};

// Shell-style glob match (`*`, `?`) against `text` or its basename —
// exposed for tests.
bool glob_match(const std::string& glob, const std::string& text);

// Process-wide schedule. Lazily configured from WINOFAULT_CHAOS on first
// access; null when chaos is off.
FaultSchedule* schedule();

// Installs (or clears, with nullopt) the process-wide schedule. Test seam;
// also resets the lazy env initialization.
void set_schedule(std::optional<FaultSchedule> schedule);

// Decision for one op against the process-wide schedule (kNone when chaos
// is off). The checked_* shims below call this; instrumentation points
// with no raw-call equivalent (e.g. "should this connect be dropped?") use
// it directly.
Decision check(OpClass op, const std::string& path);

// ---- IO shims ------------------------------------------------------------
//
// Drop-in equivalents of the raw calls. Success/failure conventions match
// the wrapped primitive; injected failures set errno like real ones would.

// fwrite(data, 1, size, f) with short/torn/eio/enospc/slow faults.
// Returns bytes written (not item count).
std::size_t checked_fwrite(const void* data, std::size_t size, std::FILE* f,
                           const std::string& path);

// fread(data, 1, size, f) with eio/flip/slow faults. Returns bytes read;
// an injected flip XORs one bit of the successfully read buffer.
std::size_t checked_fread(void* data, std::size_t size, std::FILE* f,
                          const std::string& path);

// std::filesystem::rename with an injected-failure path (`ec` set to EIO).
void checked_rename(const std::string& from, const std::string& to,
                    std::error_code& ec);

// std::filesystem::create_hard_link with an injected-failure path.
void checked_link(const std::string& from, const std::string& to,
                  std::error_code& ec);

// fflush + fsync(fileno(f)); false on (real or injected) failure.
bool checked_fsync(std::FILE* f, const std::string& path);

// send(fd, ..., MSG_NOSIGNAL) / recv with drop/slow faults. An injected
// drop also shuts the socket down so the peer observes the failure too.
ssize_t checked_send(int fd, const void* data, std::size_t size,
                     const std::string& tag);
ssize_t checked_recv(int fd, void* data, std::size_t size,
                     const std::string& tag);

// True when a scheduled drop should abort this connection attempt before
// the real connect(2) (errno is set to ECONNREFUSED).
bool connect_should_drop(const std::string& tag);

}  // namespace winofault::iofault
