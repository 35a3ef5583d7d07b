#include "common/iofault/iofault.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <list>
#include <mutex>
#include <thread>

#include "common/env.h"
#include "common/logging.h"
#include "common/telemetry/events.h"
#include "common/telemetry/telemetry.h"

namespace winofault::iofault {
namespace {

struct NamedOp {
  const char* name;
  OpClass op;
};
constexpr NamedOp kOpNames[] = {
    {"write", OpClass::kWrite},     {"read", OpClass::kRead},
    {"rename", OpClass::kRename},   {"link", OpClass::kLink},
    {"fsync", OpClass::kFsync},     {"send", OpClass::kSend},
    {"recv", OpClass::kRecv},       {"connect", OpClass::kConnect},
    {"any", OpClass::kAny},
};

struct NamedFault {
  const char* name;
  Fault fault;
};
constexpr NamedFault kFaultNames[] = {
    {"eio", Fault::kEio},     {"enospc", Fault::kEnospc},
    {"short", Fault::kShortWrite}, {"torn", Fault::kTorn},
    {"flip", Fault::kFlip},   {"slow", Fault::kSlow},
    {"drop", Fault::kDrop},
};

// Op classes a fault is meaningful on; a rule pairing them otherwise is a
// spec error (a torn *read* would silently never fire).
bool fault_applies(Fault fault, OpClass op) {
  switch (fault) {
    case Fault::kShortWrite:
    case Fault::kTorn:
    case Fault::kEnospc:
      return op == OpClass::kWrite || op == OpClass::kSend ||
             op == OpClass::kAny;
    case Fault::kFlip:
      return op == OpClass::kRead || op == OpClass::kRecv ||
             op == OpClass::kAny;
    case Fault::kDrop:
      return op == OpClass::kSend || op == OpClass::kRecv ||
             op == OpClass::kConnect || op == OpClass::kAny;
    case Fault::kEio:
    case Fault::kSlow:
      return true;
    case Fault::kNone:
      return false;
  }
  return false;
}

// Process-wide schedule pointer: a raw atomic keeps the chaos-off fast path
// to one relaxed load. It points into the list install_schedule keeps.
std::atomic<FaultSchedule*> g_schedule{nullptr};
std::once_flag g_env_once;

void install_schedule(std::optional<FaultSchedule> schedule) {
  // Every schedule ever installed stays alive and reachable in this list
  // until exit: another thread may be mid-decide on the one being
  // replaced, and schedules are installed a handful of times per process
  // at most (env init + test seams). The list is never destroyed, so a
  // thread still deciding during static destruction stays safe.
  static std::mutex mu;
  static auto* installed = new std::list<FaultSchedule>;
  FaultSchedule* next = nullptr;
  if (schedule.has_value()) {
    std::lock_guard<std::mutex> lock(mu);
    next = &installed->emplace_back(std::move(*schedule));
  }
  g_schedule.store(next, std::memory_order_release);
}

// Runs as the g_env_once body, so it must install directly — calling
// set_schedule here would re-enter call_once on the flag it is currently
// completing, which deadlocks.
void init_from_env() {
  const std::string spec = env_string("WINOFAULT_CHAOS", "");
  if (spec.empty()) return;
  std::string error;
  std::optional<FaultSchedule> schedule = FaultSchedule::parse(spec, &error);
  if (!schedule.has_value()) {
    // A malformed spec must never silently run un-chaosed: CI would read
    // the clean pass as a chaos pass.
    std::fprintf(stderr, "WINOFAULT_CHAOS: %s\n", error.c_str());
    std::abort();
  }
  install_schedule(std::move(schedule));
}

void apply_slow(std::int64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms > 0 ? ms : 1));
}

}  // namespace

const char* op_class_name(OpClass op) {
  for (const NamedOp& n : kOpNames) {
    if (n.op == op) return n.name;
  }
  return "?";
}

const char* fault_name(Fault fault) {
  for (const NamedFault& n : kFaultNames) {
    if (n.fault == fault) return n.name;
  }
  return "none";
}

bool glob_match(const std::string& glob, const std::string& text) {
  // Iterative glob with single-star backtracking (classic fnmatch core).
  const auto match = [](const char* g, const char* t) {
    const char* star_g = nullptr;
    const char* star_t = nullptr;
    while (*t != '\0') {
      if (*g == '*') {
        star_g = g++;
        star_t = t;
      } else if (*g == '?' || *g == *t) {
        ++g;
        ++t;
      } else if (star_g != nullptr) {
        g = star_g + 1;
        t = ++star_t;
      } else {
        return false;
      }
    }
    while (*g == '*') ++g;
    return *g == '\0';
  };
  if (match(glob.c_str(), text.c_str())) return true;
  const std::size_t slash = text.rfind('/');
  return slash != std::string::npos &&
         match(glob.c_str(), text.c_str() + slash + 1);
}

std::optional<FaultSchedule> FaultSchedule::parse(const std::string& spec,
                                                 std::string* error) {
  const auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = "bad chaos spec '" + spec + "': " + message;
    return std::nullopt;
  };
  const std::size_t colon = spec.find(':');
  if (colon == std::string::npos || colon == 0) {
    return fail("expected seed:rule[;rule...]");
  }
  FaultSchedule schedule;
  schedule.spec_ = spec;
  {
    // Named: `end` points into this string, so it must outlive the check.
    const std::string seed_text = spec.substr(0, colon);
    char* end = nullptr;
    schedule.seed_ = std::strtoull(seed_text.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') return fail("seed is not an integer");
  }

  std::size_t pos = colon + 1;
  while (pos <= spec.size()) {
    const std::size_t semi = spec.find(';', pos);
    const std::string text =
        spec.substr(pos, semi == std::string::npos ? std::string::npos
                                                   : semi - pos);
    pos = semi == std::string::npos ? spec.size() + 1 : semi + 1;
    if (text.empty()) return fail("empty rule");

    Rule rule;
    std::size_t at = text.find('@');
    if (at == std::string::npos) return fail("rule '" + text + "' missing @");
    std::string fault_text = text.substr(0, at);
    const std::size_t paren = fault_text.find('(');
    if (paren != std::string::npos) {
      if (fault_text.back() != ')') {
        return fail("rule '" + text + "': unterminated (arg)");
      }
      const std::string arg =
          fault_text.substr(paren + 1, fault_text.size() - paren - 2);
      char* end = nullptr;
      rule.arg = std::strtoll(arg.c_str(), &end, 10);
      if (arg.empty() || end == nullptr || *end != '\0' || rule.arg < 0) {
        return fail("rule '" + text + "': bad arg '" + arg + "'");
      }
      fault_text.resize(paren);
    }
    for (const NamedFault& n : kFaultNames) {
      if (fault_text == n.name) rule.fault = n.fault;
    }
    if (rule.fault == Fault::kNone) {
      return fail("unknown fault '" + fault_text + "'");
    }

    const std::size_t hash = text.find('#', at + 1);
    if (hash == std::string::npos) {
      return fail("rule '" + text + "' missing #trigger");
    }
    std::string target = text.substr(at + 1, hash - at - 1);
    const std::size_t sep = target.find(':');
    const std::string op_text =
        sep == std::string::npos ? target : target.substr(0, sep);
    rule.glob = sep == std::string::npos ? "" : target.substr(sep + 1);
    bool op_known = false;
    for (const NamedOp& n : kOpNames) {
      if (op_text == n.name) {
        rule.op = n.op;
        op_known = true;
      }
    }
    if (!op_known) return fail("unknown op class '" + op_text + "'");
    if (!fault_applies(rule.fault, rule.op)) {
      return fail("fault '" + fault_text + "' cannot fire on op class '" +
                  op_text + "'");
    }

    const std::string trigger = text.substr(hash + 1);
    if (trigger.empty()) return fail("rule '" + text + "': empty trigger");
    if (trigger[0] == 'p') {
      rule.trigger = TriggerKind::kProbability;
      const char* digits = trigger.c_str() + 1;
      char* end = nullptr;
      rule.probability = std::strtod(digits, &end);
      // Written as a range check that NaN fails; `#p` alone parses no digits.
      if (end == digits || *end != '\0' ||
          !(rule.probability >= 0.0 && rule.probability <= 1.0)) {
        return fail("rule '" + text + "': bad probability '" + trigger + "'");
      }
    } else {
      char* end = nullptr;
      rule.nth = std::strtoll(trigger.c_str(), &end, 10);
      if (end == trigger.c_str() || rule.nth < 1) {
        return fail("rule '" + text + "': bad trigger '" + trigger + "'");
      }
      if (*end == '+' && *(end + 1) == '\0') {
        rule.trigger = TriggerKind::kFromNth;
      } else if (*end == '\0') {
        rule.trigger = TriggerKind::kNth;
      } else {
        return fail("rule '" + text + "': bad trigger '" + trigger + "'");
      }
    }
    schedule.rules_.push_back(std::move(rule));
  }
  if (schedule.rules_.empty()) return fail("no rules");
  // Independent per-rule streams: nearby (seed, index) pairs diverge via
  // the Rng's SplitMix64 seeding.
  for (std::size_t i = 0; i < schedule.rules_.size(); ++i) {
    schedule.rules_[i].rng.reseed(schedule.seed_ * 0x9e3779b97f4a7c15ULL +
                                  i + 1);
  }
  return schedule;
}

FaultSchedule::FaultSchedule(FaultSchedule&& other) noexcept
    : spec_(std::move(other.spec_)),
      seed_(other.seed_),
      rules_(std::move(other.rules_)),
      log_(std::move(other.log_)) {}

FaultSchedule& FaultSchedule::operator=(FaultSchedule&& other) noexcept {
  if (this != &other) {
    spec_ = std::move(other.spec_);
    seed_ = other.seed_;
    rules_ = std::move(other.rules_);
    log_ = std::move(other.log_);
  }
  return *this;
}

Decision FaultSchedule::decide(OpClass op, const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    Rule& rule = rules_[i];
    if (rule.op != OpClass::kAny && rule.op != op) continue;
    if (!rule.glob.empty() && !glob_match(rule.glob, path)) continue;
    ++rule.matches;
    bool fire = false;
    switch (rule.trigger) {
      case TriggerKind::kNth: fire = rule.matches == rule.nth; break;
      case TriggerKind::kFromNth: fire = rule.matches >= rule.nth; break;
      case TriggerKind::kProbability:
        // Drawn for every match, fired or not, so the stream position is a
        // pure function of the match ordinal.
        fire = rule.rng.bernoulli(rule.probability);
        break;
    }
    if (!fire) continue;
    {
      // Injection accounting on the telemetry registry (one series per
      // rule), exposed through the daemon `metrics` verb.
      char labels[32];
      std::snprintf(labels, sizeof(labels), "rule=\"%d\"",
                    static_cast<int>(i));
      telemetry::counter("winofault_iofault_injections_total",
                         "chaos faults injected, per schedule rule", labels)
          .add(1);
    }
    Injection injection;
    injection.rule = static_cast<int>(i);
    injection.match = rule.matches;
    injection.fault = rule.fault;
    injection.op = op;
    injection.arg = rule.arg;
    injection.path = path;
    log_.push_back(injection);
    if (telemetry::events_enabled()) {
      // The on-disk injection record: every field of the Injection, so two
      // runs of one schedule can be compared from their event logs.
      telemetry::emit_event("chaos_injected",
                            {{"fault", fault_name(rule.fault)},
                             {"op", op_class_name(op)},
                             {"path", path}},
                            {{"rule", static_cast<std::int64_t>(i)},
                             {"match", rule.matches},
                             {"arg", rule.arg}});
    }
    WF_WARN << "iofault: injecting " << fault_name(rule.fault) << " into "
            << op_class_name(op) << " " << path << " (rule " << i
            << ", match " << rule.matches << ")";
    return Decision{rule.fault, rule.arg};
  }
  return Decision{};
}

std::vector<Injection> FaultSchedule::log() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_;
}

std::string FaultSchedule::log_text(bool with_paths) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const Injection& injection : log_) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "rule=%d match=%lld fault=%s op=%s arg=%lld",
                  injection.rule, static_cast<long long>(injection.match),
                  fault_name(injection.fault), op_class_name(injection.op),
                  static_cast<long long>(injection.arg));
    out += line;
    if (with_paths) {
      out += " path=";
      out += injection.path;
    }
    out += '\n';
  }
  return out;
}

std::int64_t FaultSchedule::injections() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::int64_t>(log_.size());
}

FaultSchedule* schedule() {
  std::call_once(g_env_once, init_from_env);
  return g_schedule.load(std::memory_order_acquire);
}

void set_schedule(std::optional<FaultSchedule> schedule) {
  // Ensure the env hook never overwrites an explicitly installed schedule.
  std::call_once(g_env_once, [] {});
  install_schedule(std::move(schedule));
}

Decision check(OpClass op, const std::string& path) {
  FaultSchedule* s = schedule();
  if (s == nullptr) return Decision{};
  return s->decide(op, path);
}

std::size_t checked_fwrite(const void* data, std::size_t size, std::FILE* f,
                           const std::string& path) {
  const Decision d = check(OpClass::kWrite, path);
  switch (d.fault) {
    case Fault::kEio:
      errno = EIO;
      return 0;
    case Fault::kEnospc:
      errno = ENOSPC;
      return 0;
    case Fault::kShortWrite: {
      const std::size_t cut = size / 2;
      const std::size_t wrote = std::fwrite(data, 1, cut, f);
      std::fflush(f);  // the partial bytes must actually land
      errno = EIO;
      return wrote;
    }
    case Fault::kTorn: {
      // Cut at the scheduled byte offset: the bytes before it land on disk
      // (flushed, like a crash after a partial kernel write), the rest
      // never do.
      const std::size_t cut =
          std::min(size, static_cast<std::size_t>(d.arg));
      const std::size_t wrote = std::fwrite(data, 1, cut, f);
      std::fflush(f);
      errno = EIO;
      return wrote;
    }
    case Fault::kSlow:
      apply_slow(d.arg);
      break;
    default:
      break;
  }
  return std::fwrite(data, 1, size, f);
}

std::size_t checked_fread(void* data, std::size_t size, std::FILE* f,
                          const std::string& path) {
  const Decision d = check(OpClass::kRead, path);
  switch (d.fault) {
    case Fault::kEio:
      errno = EIO;
      return 0;
    case Fault::kSlow:
      apply_slow(d.arg);
      break;
    default:
      break;
  }
  const std::size_t got = std::fread(data, 1, size, f);
  if (d.fault == Fault::kFlip && got > 0) {
    const std::size_t bit = static_cast<std::size_t>(d.arg) % (got * 8);
    static_cast<unsigned char*>(data)[bit / 8] ^=
        static_cast<unsigned char>(1u << (bit % 8));
  }
  return got;
}

void checked_rename(const std::string& from, const std::string& to,
                    std::error_code& ec) {
  const Decision d = check(OpClass::kRename, to);
  if (d.fault == Fault::kEio || d.fault == Fault::kEnospc) {
    ec = std::make_error_code(d.fault == Fault::kEio
                                  ? std::errc::io_error
                                  : std::errc::no_space_on_device);
    return;
  }
  if (d.fault == Fault::kSlow) apply_slow(d.arg);
  std::filesystem::rename(from, to, ec);
}

void checked_link(const std::string& from, const std::string& to,
                  std::error_code& ec) {
  const Decision d = check(OpClass::kLink, to);
  if (d.fault == Fault::kEio || d.fault == Fault::kEnospc) {
    ec = std::make_error_code(d.fault == Fault::kEio
                                  ? std::errc::io_error
                                  : std::errc::no_space_on_device);
    return;
  }
  if (d.fault == Fault::kSlow) apply_slow(d.arg);
  std::filesystem::create_hard_link(from, to, ec);
}

bool checked_fsync(std::FILE* f, const std::string& path) {
  const Decision d = check(OpClass::kFsync, path);
  if (d.fault == Fault::kEio) {
    errno = EIO;
    return false;
  }
  if (d.fault == Fault::kSlow) apply_slow(d.arg);
  if (std::fflush(f) != 0) return false;
  return ::fsync(::fileno(f)) == 0;
}

ssize_t checked_send(int fd, const void* data, std::size_t size,
                     const std::string& tag) {
  const Decision d = check(OpClass::kSend, tag);
  if (d.fault == Fault::kDrop || d.fault == Fault::kEio) {
    // Shut the socket down too: the peer must observe the drop, exactly as
    // if the connection died under the message.
    ::shutdown(fd, SHUT_RDWR);
    errno = ECONNRESET;
    return -1;
  }
  if (d.fault == Fault::kShortWrite || d.fault == Fault::kTorn) {
    const std::size_t cut =
        d.fault == Fault::kTorn
            ? std::min(size, static_cast<std::size_t>(d.arg))
            : size / 2;
    if (cut > 0) ::send(fd, data, cut, MSG_NOSIGNAL);
    ::shutdown(fd, SHUT_RDWR);
    errno = ECONNRESET;
    return -1;
  }
  if (d.fault == Fault::kSlow) apply_slow(d.arg);
  return ::send(fd, data, size, MSG_NOSIGNAL);
}

ssize_t checked_recv(int fd, void* data, std::size_t size,
                     const std::string& tag) {
  const Decision d = check(OpClass::kRecv, tag);
  if (d.fault == Fault::kDrop || d.fault == Fault::kEio) {
    ::shutdown(fd, SHUT_RDWR);
    errno = ECONNRESET;
    return -1;
  }
  if (d.fault == Fault::kSlow) apply_slow(d.arg);
  const ssize_t got = ::recv(fd, data, size, 0);
  if (d.fault == Fault::kFlip && got > 0) {
    const std::size_t bit =
        static_cast<std::size_t>(d.arg) %
        (static_cast<std::size_t>(got) * 8);
    static_cast<unsigned char*>(data)[bit / 8] ^=
        static_cast<unsigned char>(1u << (bit % 8));
  }
  return got;
}

bool connect_should_drop(const std::string& tag) {
  const Decision d = check(OpClass::kConnect, tag);
  if (d.fault == Fault::kDrop || d.fault == Fault::kEio) {
    errno = ECONNREFUSED;
    return true;
  }
  if (d.fault == Fault::kSlow) apply_slow(d.arg);
  return false;
}

}  // namespace winofault::iofault
